// The benchmark's own tests: the oracle, HISTORY coalescing, schedule
// determinism, and that a corrupted served record is caught. Run with
// `python3 perfbench/selftest.py` (README.md).
#include <filesystem>
#include <iostream>

#include "catalog/catalog.h"
#include "harness.h"
#include "leasing/report.h"
#include "net.h"
#include "serve/engine_state.h"
#include "serve/server.h"
#include "simnet/timeline_scenario.h"
#include "snapshot/writer.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace sublet;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++g_failures;
}

// Brute force: scan every leaf, keep the longest cover; a later duplicate
// of the same prefix wins, as in the oracle and the snapshot.
Answer brute_longest(const std::vector<Leaf>& leaves, std::uint32_t addr,
                     std::uint8_t len) {
  Answer best;
  int best_len = -1;
  for (const Leaf& leaf : leaves) {
    if (leaf.len > len) continue;
    std::uint32_t mask = prefix_mask(leaf.len);
    if ((addr & mask) != (leaf.addr & mask) || leaf.len < best_len) continue;
    best_len = leaf.len;
    best = Answer{true, leaf.addr & mask, leaf.len, leaf.group};
  }
  return best;
}

void test_oracle_vs_brute_force() {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<Leaf> leaves;
    for (int i = 0; i < 300; ++i) {
      // Roots inside 10.0.0.0/8, nested children, /32 leaves and duplicates.
      std::uint8_t len = static_cast<std::uint8_t>(12 + rng.below(13));
      std::uint32_t addr = (10u << 24) | (static_cast<std::uint32_t>(rng.next()) >> 8);
      leaves.push_back(Leaf{addr & prefix_mask(len), len,
                            static_cast<std::uint8_t>(rng.below(6)), false, "RIPE"});
      for (int c = 0; c < 3; ++c) {
        std::uint8_t clen = static_cast<std::uint8_t>(len + 1 + rng.below(33 - len - 1));
        std::uint32_t caddr = (addr & prefix_mask(len)) |
                              (static_cast<std::uint32_t>(rng.next()) & ~prefix_mask(len));
        leaves.push_back(Leaf{caddr & prefix_mask(clen), clen,
                              static_cast<std::uint8_t>(rng.below(6)), false, "RIPE"});
      }
      if (i % 10 == 0) leaves.push_back(leaves[rng.below(leaves.size())]);
      if (i % 7 == 0) {
        leaves.push_back(Leaf{(10u << 24) | static_cast<std::uint32_t>(rng.below(1u << 24)),
                              32, 3, true, "ARIN"});
      }
    }
    LpmOracle oracle(leaves);
    int wrong = 0, hits = 0, misses = 0;
    for (int q = 0; q < 20000; ++q) {
      std::uint32_t addr;
      if (q % 3 == 0) {
        addr = static_cast<std::uint32_t>(rng.next());  // mostly misses
      } else {
        const Leaf& leaf = leaves[rng.below(leaves.size())];
        addr = leaf.addr | (static_cast<std::uint32_t>(rng.next()) & ~prefix_mask(leaf.len));
      }
      std::uint8_t len = q % 5 == 0 ? static_cast<std::uint8_t>(8 + rng.below(25)) : 32;
      Answer got = oracle.longest(addr, len);
      if (!(got == brute_longest(leaves, addr, len))) ++wrong;
      (got.found ? hits : misses)++;
    }
    expect(wrong == 0 && hits > 1000 && misses > 1000,
           "LPM oracle equals brute force, seed " + std::to_string(seed) + " (" +
               std::to_string(hits) + " hits, " + std::to_string(misses) + " misses)");
  }
}

void test_coalesce() {
  Answer a{true, 10u << 24, 24, 2}, b{true, 10u << 24, 24, 3}, none{};
  Answer c{true, 10u << 24, 25, 2};
  std::vector<std::uint32_t> epochs = {100, 200, 300, 400, 500};
  expect(coalesce({}, {}).empty(), "coalesce: no epochs, no segments");
  expect(coalesce(epochs, {a, a, a, a, a}) ==
             std::vector<Segment>{{100, 500, a}},
         "coalesce: identical answers form one segment");
  expect(coalesce(epochs, {a, a, b, a, a}) ==
             std::vector<Segment>{{100, 200, a}, {300, 300, b}, {400, 500, a}},
         "coalesce: a group change splits, a return opens a new segment");
  expect(coalesce(epochs, {none, none, a, c, c}) ==
             std::vector<Segment>{{100, 200, none}, {300, 300, a}, {400, 500, c}},
         "coalesce: misses coalesce; a prefix change splits");
  std::string json =
      "{\"query\":\"10.0.0.0/24\",\"epochs\":5,\"first_epoch\":100,\"last_epoch\":500,"
      "\"segments\":[{\"from_epoch\":100,\"to_epoch\":200,\"found\":false},"
      "{\"from_epoch\":300,\"to_epoch\":300,\"found\":true,\"prefix\":\"10.0.0.0/24\","
      "\"group\":\"isp-customer\",\"leased\":false},{\"from_epoch\":400,\"to_epoch\":500,"
      "\"found\":true,\"prefix\":\"10.0.0.0/25\",\"group\":\"isp-customer\",\"leased\":false}],"
      "\"transitions\":2}";
  auto parsed = parse_history(json);
  expect(parsed && *parsed == coalesce(epochs, {none, none, a, c, c}),
         "coalesce: a served HISTORY line parses into the same segments");
}

void test_schedule_digest() {
  std::vector<Leaf> leaves;
  for (std::uint32_t i = 0; i < 500; ++i) {
    leaves.push_back(Leaf{(20u << 24) | (i << 8), 24, static_cast<std::uint8_t>(i % 6),
                          i % 6 == 3 || i % 6 == 5, "RIPE"});
  }
  LpmOracle oracle(leaves);
  auto a = make_latest_plan(oracle, 7, 1.0, 500);
  auto b = make_latest_plan(oracle, 7, 1.0, 500);
  auto c = make_latest_plan(oracle, 8, 1.0, 500);
  expect(a.digest == b.digest, "schedule: the same seed gives the same digest");
  expect(a.digest != c.digest, "schedule: another seed gives another digest");
  bool inside_hit = true;
  for (std::size_t i = 0; i < a.pool->addrs.size(); ++i) {
    if (oracle.longest(a.pool->addrs[i]).found != a.pool->expect[i].found) {
      inside_hit = false;
    }
  }
  expect(inside_hit, "schedule: expected answers match the oracle");
}

std::vector<leasing::LeaseInference> small_epoch(std::uint64_t seed) {
  sim::WorldConfig config;
  config.scale = 0.02;
  config.seed = seed;
  sim::EpochSeriesOptions options;
  options.epochs = 1;
  return sim::build_epoch_series(config, options).inferences[0];
}

std::uint64_t sweep_snapshot(const std::string& snap, const std::vector<Leaf>& leaves) {
  auto state = serve::EngineState::load(snap);
  if (!state) throw std::runtime_error(state.error().to_string());
  serve::QueryServer::Options options;
  options.shards = 1;
  serve::QueryServer server(*state, options);
  auto port = server.start();
  if (!port) throw std::runtime_error(port.error().to_string());
  std::uint64_t bad = sweep_leaves(*port, leaves, 0);
  server.stop();
  return bad;
}

void test_corrupt_snapshot(const std::string& dir) {
  auto records = small_epoch(11);
  leasing::save_inferences_csv(dir + "/true.csv", records);
  auto leaves = read_leaves(dir + "/true.csv");
  snapshot::write_snapshot_file(dir + "/true.snap", records);
  expect(sweep_snapshot(dir + "/true.snap", leaves) == 0,
         "sweep: a faithful snapshot checks correct");
  auto& victim = records[records.size() / 3];
  victim.group = static_cast<leasing::InferenceGroup>((static_cast<int>(victim.group) + 1) % 6);
  snapshot::write_snapshot_file(dir + "/flipped.snap", records);
  expect(sweep_snapshot(dir + "/flipped.snap", leaves) == 1,
         "sweep: one flipped group in the snapshot is reported");
}

std::uint64_t sweep_catalog(const std::string& dir) {
  auto opened = catalog::Catalog::open(dir + "/catalog");
  if (!opened) throw std::runtime_error(opened.error().to_string());
  std::shared_ptr<catalog::Catalog> cat = std::move(*opened);
  auto latest = cat->epoch_at(0);
  if (!latest) throw std::runtime_error(latest.error().to_string());
  serve::QueryServer::Options options;
  options.shards = 1;
  serve::QueryServer server(cat, *latest, options);
  auto port = server.start();
  if (!port) throw std::runtime_error(port.error().to_string());
  std::uint64_t bad = 0;
  for (const auto& entry : cat->entries()) {
    bad += sweep_leaves(*port, read_leaves(epoch_csv(dir, entry.epoch)), entry.epoch);
  }
  server.stop();
  return bad;
}

void test_corrupt_catalog(const std::string& dir) {
  emit_history(dir + "/good", 0.02, 5, 4, false);
  emit_history(dir + "/bad", 0.02, 5, 4, true);
  expect(sweep_catalog(dir + "/good") == 0, "sweep: a faithful catalog checks correct");
  expect(sweep_catalog(dir + "/bad") >= 1,
         "sweep: one flipped group in one catalog epoch is reported");
}

}  // namespace

int cmd_selftest(const Args& args) {
  const std::string dir = args.str("dir");
  fs::remove_all(dir);
  fs::create_directories(dir);
  test_oracle_vs_brute_force();
  test_coalesce();
  test_schedule_digest();
  test_corrupt_snapshot(dir);
  test_corrupt_catalog(dir);
  fs::remove_all(dir);
  std::cout << (g_failures == 0 ? "all harness tests passed" : "harness tests FAILED")
            << std::endl;
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
