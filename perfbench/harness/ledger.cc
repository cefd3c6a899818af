// The traced layer ledger and the catalog emitter.
//
// `ledger` re-composes `sublet infer` -> `snapshot write` -> `serve` from
// the libraries' public calls, one after another on one thread, with a
// span around each call made from here (nothing inside src/ is traced).
// The composed inference list must equal the CLI's byte for byte, and the
// spans must account for the wall time of an untraced single-threaded
// CLI ingest of the same world (run.py compares the two). It then times
// the serving layers in-process (engine batch lookups, request handling)
// and the catalog layers (materialize, HISTORY, append, RELOAD) on a
// catalog it emits with the program's own generator (emit_history).
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>

#include "abuse/asn_lists.h"
#include "asgraph/as2org.h"
#include "asgraph/as_graph.h"
#include "asgraph/as_rel.h"
#include "bgp/rib.h"
#include "catalog/catalog.h"
#include "common.h"
#include "geo/geodb.h"
#include "leasing/dataset.h"
#include "leasing/pipeline.h"
#include "leasing/report.h"
#include "mrt/rib_file.h"
#include "net.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "rpki/archive.h"
#include "serve/engine_state.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "simnet/timeline_scenario.h"
#include "snapshot/snapshot.h"
#include "snapshot/writer.h"
#include "harness.h"
#include "transfers/transfer_log.h"
#include "util/strings.h"
#include "whoisdb/alloc_tree.h"
#include "whoisdb/parse.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace sublet;

namespace {

/// In-memory span recorder; written out once at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      id_ = static_cast<int>(tracer_.spans_.size());
      tracer_.spans_.push_back(Span{std::move(name), now_ns(), 0, tracer_.open_});
      tracer_.open_ = id_;
    }
    ~Scope() {
      Span& span = tracer_.spans_[static_cast<std::size_t>(id_)];
      span.end_ns = now_ns();
      tracer_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_ = 0;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

  /// Summed duration of every span with exactly this name, in seconds.
  double seconds(const std::string& name) const {
    double total = 0;
    for (const Span& s : spans_) {
      if (s.name == name) total += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
    return total;
  }
  /// Summed duration of the direct children of the first span `name`.
  double children_seconds(const std::string& name) const {
    int id = -1;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        id = static_cast<int>(i);
        break;
      }
    }
    double total = 0;
    for (const Span& s : spans_) {
      if (id >= 0 && s.parent == id) {
        total += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
      }
    }
    return total;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\":[";
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << (s.start_ns - base) / 1000
          << ",\"end_us\":" << (s.end_ns - base) / 1000
          << ",\"parent\":" << s.parent << "}";
    }
    out << "]}\n";
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

double rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

double file_mb(const std::string& path) {
  return static_cast<double>(fs::file_size(path)) / 1e6;
}

std::vector<std::string> files_with_extension(const std::string& dir,
                                              const std::string& ext) {
  std::vector<std::string> out;
  if (!fs::is_directory(dir)) return out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ext) out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool same_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  std::string ca((std::istreambuf_iterator<char>(fa)), {});
  std::string cb((std::istreambuf_iterator<char>(fb)), {});
  return !ca.empty() && ca == cb;
}

/// What `sublet infer` holds between loading and exit.
struct LoadedRun {
  std::vector<whois::WhoisDb> dbs;
  bgp::Rib rib;
  asgraph::AsRelationships as_rel;
  asgraph::As2Org as2org;
  rpki::RpkiArchive rpki_archive;
  std::vector<geo::GeoDb> geodbs;
  abuse::AsnSet drop, hijackers;
  transfers::TransferLog transfer_log;
  std::vector<leasing::LeaseInference> results;
};

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

std::string epoch_csv(const std::string& dir, std::uint32_t epoch) {
  return dir + "/epoch-" + std::to_string(epoch) + ".csv";
}

Series emit_history(const std::string& dir, double scale, std::uint64_t seed,
                    std::size_t catalogued, bool corrupt) {
  sim::WorldConfig config;
  config.scale = scale;
  config.seed = seed;
  sim::EpochSeriesOptions options;
  options.epochs = catalogued + 1;
  sim::EpochSeries series = sim::build_epoch_series(config, options);
  fs::create_directories(dir);
  const std::string catalog_dir = dir + "/catalog";
  for (std::size_t k = 0; k < series.timestamps.size(); ++k) {
    leasing::save_inferences_csv(epoch_csv(dir, series.timestamps[k]), series.inferences[k]);
    if (k == catalogued) continue;
    auto records = series.inferences[k];
    if (corrupt && k == catalogued / 2 && !records.empty()) {
      auto& victim = records[records.size() / 2];
      victim.group = static_cast<leasing::InferenceGroup>(
          (static_cast<int>(victim.group) + 1) % 6);
    }
    auto entry = k == 0 ? catalog::catalog_init(catalog_dir, series.timestamps[k],
                                                std::move(records))
                        : catalog::catalog_append(catalog_dir,
                                                  series.timestamps[k],
                                                  std::move(records));
    if (!entry) throw std::runtime_error(entry.error().to_string());
  }
  return Series{std::move(series.timestamps), std::move(series.inferences)};
}

int cmd_ledger(const Args& args) {
  const std::string world = args.str("world");
  const std::string out_dir = args.str("out");
  const unsigned threads = static_cast<unsigned>(args.num("threads"));
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  fs::create_directories(out_dir);
  // The composition runs kReps times and the median one (by its root
  // span) is reported, as the untraced side is a median of three too.
  constexpr int kReps = 3;
  std::vector<Tracer> reps;
  reps.reserve(kReps);
  JsonOut json;
  std::uint64_t mismatches = 0;
  std::string first_error;
  auto mismatch = [&](const std::string& what) {
    if (mismatches++ == 0) first_error = what;
  };

  // ---- ingest, composed call by call -----------------------------------
  const std::string composed_csv = out_dir + "/composed.csv";
  const std::string composed_snap = out_dir + "/composed.snap";
  double whois_mb = 0, mrt_mb = 0, rss_growth = 0;
  std::uint64_t mrt_records = 0, rib_prefixes = 0, leaves = 0;
  double alloc_tree_s = 0, encode_s = 0, stride_s = 0;
  std::uint64_t snapshot_bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    Tracer& tr = reps.emplace_back();
    whois_mb = mrt_mb = 0;
    mrt_records = 0;
    auto root = tr.scope("ingest");
    auto run = std::make_unique<LoadedRun>();
    auto& dbs = run->dbs;
    std::vector<Error> diags;
    {
      auto layer = tr.scope("whoisdb.parse");
      for (whois::Rir rir : whois::kAllRirs) {
        std::string path = world + "/whois/" + to_lower(whois::rir_name(rir)) + ".db";
        if (!fs::exists(path)) continue;
        auto call = tr.scope("whoisdb.load_whois_file");
        dbs.push_back(whois::load_whois_file(path, rir, &diags, 1));
        whois_mb += file_mb(path);
      }
    }
    std::vector<std::string> mrt_files = files_with_extension(world + "/bgp", ".mrt");
    std::vector<Expected<mrt::RibSnapshot>> snaps;
    const double rss_before = rss_mb();
    {
      auto layer = tr.scope("mrt.decode");
      for (const std::string& path : mrt_files) {
        auto call = tr.scope("mrt.read_rib_file");
        snaps.push_back(mrt::read_rib_file(path));
        if (snaps.back()) mrt_records += snaps.back()->records.size();
        mrt_mb += file_mb(path);
      }
    }
    // Later repetitions reuse memory the allocator kept; only the first
    // shows what the decode costs a fresh process.
    if (rep == 0) rss_growth = rss_mb() - rss_before;
    bgp::Rib& rib = run->rib;
    {
      auto layer = tr.scope("bgp.merge");
      for (const auto& snap : snaps) {
        if (snap) rib.add_snapshot(*snap);
      }
    }
    {
      auto layer = tr.scope("mrt.free");
      snaps.clear();
      snaps.shrink_to_fit();
    }
    {
      auto layer = tr.scope("bgp.freeze");
      rib.freeze();
    }
    rib_prefixes = rib.prefix_count();
    auto& as_rel = run->as_rel;
    auto& as2org = run->as2org;
    {
      auto layer = tr.scope("asgraph.load");
      if (fs::exists(world + "/asgraph/as-rel.txt")) {
        as_rel = asgraph::AsRelationships::load(world + "/asgraph/as-rel.txt", &diags);
      }
      if (fs::exists(world + "/asgraph/as2org.txt")) {
        as2org = asgraph::As2Org::load(world + "/asgraph/as2org.txt", &diags);
      }
    }
    {
      auto layer = tr.scope("rpki.load");
      if (fs::is_directory(world + "/rpki")) {
        run->rpki_archive = rpki::RpkiArchive::load_directory(world + "/rpki", &diags);
      }
    }
    {
      auto layer = tr.scope("geo.load");
      for (const std::string& path : files_with_extension(world + "/geo", ".csv")) {
        run->geodbs.push_back(
            geo::GeoDb::load_csv(path, fs::path(path).stem().string(), &diags));
      }
    }
    {
      auto layer = tr.scope("lists.load");
      if (fs::exists(world + "/lists/asn-drop.json")) {
        run->drop = abuse::AsnSet::load_drop(world + "/lists/asn-drop.json", &diags);
      }
      if (fs::exists(world + "/lists/serial-hijackers.txt")) {
        run->hijackers = abuse::AsnSet::load_plain(world + "/lists/serial-hijackers.txt",
                                              &diags);
      }
      if (fs::exists(world + "/lists/transfers.txt")) {
        run->transfer_log =
            transfers::TransferLog::load(world + "/lists/transfers.txt", &diags);
      }
    }
    auto& results = run->results;
    auto graph = std::make_unique<asgraph::AsGraph>(&as_rel, &as2org);
    {
      auto layer = tr.scope("leasing.classify");
      leasing::PipelineOptions options;
      options.threads = 1;
      leasing::Pipeline pipeline(rib, *graph, options);
      for (const whois::WhoisDb& db : dbs) {
        auto call = tr.scope("leasing.Pipeline::classify");
        auto part = pipeline.classify(db);
        results.insert(results.end(), part.begin(), part.end());
      }
    }
    leaves = results.size();
    {
      auto layer = tr.scope("leasing.csv_write");
      leasing::save_inferences_csv(composed_csv, results);
    }
    // Measured apart: classify() builds each tree itself.
    {
      const std::int64_t t0 = now_ns();
      for (const whois::WhoisDb& db : dbs) whois::AllocationTree::build(db);
      alloc_tree_s = seconds_since(t0);
    }
    {
      // `sublet infer` returns after writing; its loaded run is destroyed
      // then, inside the timed process.
      auto layer = tr.scope("leasing.teardown");
      graph.reset();
      run.reset();
    }
    std::vector<leasing::LeaseInference> inferences;
    {
      auto layer = tr.scope("leasing.csv_read");
      auto loaded = leasing::load_inferences_csv(composed_csv);
      if (!loaded) throw std::runtime_error(loaded.error().to_string());
      inferences = std::move(*loaded);
    }
    {
      auto layer = tr.scope("snapshot.write");
      snapshot::write_snapshot_file(composed_snap, inferences);
    }
    {
      const std::int64_t t0 = now_ns();
      snapshot_bytes = snapshot::encode_snapshot(inferences).size();
      encode_s = seconds_since(t0);
    }
    {
      // `sublet snapshot write` frees the parsed list on its way out.
      auto layer = tr.scope("snapshot.teardown");
      inferences = {};
    }
    std::optional<snapshot::Snapshot> snap;
    {
      auto layer = tr.scope("snapshot.open");
      auto opened = snapshot::Snapshot::open(composed_snap);
      if (!opened) throw std::runtime_error(opened.error().to_string());
      snap.emplace(std::move(*opened));
    }
    {
      auto layer = tr.scope("serve.engine_create");
      auto engine = serve::QueryEngine::create(&*snap);
      if (!engine) throw std::runtime_error(engine.error().to_string());
    }
    {
      const std::int64_t t0 = now_ns();
      auto trie = snap->build_trie();
      stride_s = seconds_since(t0);
      if (!trie) throw std::runtime_error(trie.error().to_string());
    }
  }
  std::vector<std::size_t> order(reps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return reps[a].seconds("ingest") < reps[b].seconds("ingest");
  });
  const Tracer& tr = reps[order[order.size() / 2]];
  if (!same_bytes(composed_csv, args.str("cli-csv"))) {
    mismatch("composed inference list differs from the CLI's");
  }
  const double parse_s = tr.seconds("whoisdb.parse");
  const double decode_s = tr.seconds("mrt.decode");
  const double classify_s = tr.seconds("leasing.classify");
  const double load_serial_s =
      parse_s + decode_s + tr.seconds("bgp.merge") + tr.seconds("mrt.free") +
      tr.seconds("bgp.freeze") + tr.seconds("asgraph.load") +
      tr.seconds("rpki.load") + tr.seconds("geo.load") + tr.seconds("lists.load");
  json.num("whoisdb.parse_s", parse_s)
      .num("whoisdb.parse_mb_per_s", whois_mb / parse_s)
      .num("whoisdb.alloc_tree_s", alloc_tree_s)
      .num("mrt.decode_s", decode_s)
      .num("mrt.decode_mb_per_s", mrt_mb / decode_s)
      .num("mrt.records", static_cast<double>(mrt_records))
      .num("mrt.free_s", tr.seconds("mrt.free"))
      .num("mrt.rss_growth_mb", rss_growth)
      .num("bgp.merge_s", tr.seconds("bgp.merge"))
      .num("bgp.freeze_s", tr.seconds("bgp.freeze"))
      .num("bgp.prefixes", static_cast<double>(rib_prefixes))
      .num("asgraph.load_s", tr.seconds("asgraph.load"))
      .num("rpki.load_s", tr.seconds("rpki.load"))
      .num("geo.load_s", tr.seconds("geo.load"))
      .num("lists.load_s", tr.seconds("lists.load"))
      .num("leasing.classify_s", classify_s)
      .num("leasing.leaves_per_s", static_cast<double>(leaves) / classify_s)
      .num("leasing.csv_write_s", tr.seconds("leasing.csv_write"))
      .num("leasing.teardown_s", tr.seconds("leasing.teardown"))
      .num("leasing.csv_read_s", tr.seconds("leasing.csv_read"))
      .num("snapshot.encode_s", encode_s)
      .num("snapshot.write_s", tr.seconds("snapshot.write"))
      .num("snapshot.teardown_s", tr.seconds("snapshot.teardown"))
      .num("snapshot.bytes", static_cast<double>(snapshot_bytes))
      .num("snapshot.open_s", tr.seconds("snapshot.open"))
      .num("netbase.stride_build_s", stride_s)
      .num("serve.engine_create_s", tr.seconds("serve.engine_create"))
      .num("ingest.layer_sum_s", tr.children_seconds("ingest"))
      .num("ingest.traced_wall_s", tr.seconds("ingest"))
      .num("leaves", static_cast<double>(leaves));

  // ---- the parallel load, one call at the workload's thread count -------
  {
    const std::int64_t t0 = now_ns();
    leasing::LoadOptions options;
    options.threads = threads;
    auto bundle = leasing::load_dataset(world, options);
    const double wall = seconds_since(t0);
    json.num("leasing.load_dataset_s", wall)
        .num("leasing.load_serial_s", load_serial_s)
        .num("leasing.load_speedup", load_serial_s / wall)
        .num("leasing.load_threads", threads);
  }

  // ---- serving layers in-process ---------------------------------------
  {
    LpmOracle oracle(read_leaves(composed_csv));
    const auto& oleaves = oracle.leaves();
    auto state = serve::EngineState::load(composed_snap);
    if (!state) throw std::runtime_error(state.error().to_string());
    const serve::QueryEngine& engine = (*state)->engine();
    Rng rng(seed ^ 0x1ed6e4ull);
    std::vector<std::uint32_t> addrs(1 << 16);
    std::vector<bool> inside(addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      if (rng.unit() < 0.1) {
        addrs[i] = static_cast<std::uint32_t>(rng.next());
      } else {
        const Leaf& leaf = oleaves[rng.below(oleaves.size())];
        addrs[i] = (leaf.addr & prefix_mask(leaf.len)) |
                   (static_cast<std::uint32_t>(rng.next()) & ~prefix_mask(leaf.len));
        inside[i] = true;
      }
    }
    std::vector<std::uint32_t> out(1024);
    std::uint64_t lookups = 0;
    const std::int64_t t0 = now_ns();
    do {
      for (std::size_t first = 0; first < addrs.size(); first += 1024) {
        engine.lookup_batch({addrs.data() + first, 1024}, out);
        for (std::size_t i = 0; i < 1024; ++i) {
          if (inside[first + i] && out[i] == serve::QueryEngine::kNoRecord) {
            mismatch("lookup_batch missed " + format_addr(addrs[first + i]));
          }
        }
      }
      lookups += addrs.size();
    } while (seconds_since(t0) < 0.5);
    json.num("netbase.lookup_batch_ns",
             static_cast<double>(now_ns() - t0) / static_cast<double>(lookups));

    serve::QueryServer server(*state, serve::QueryServer::Options{});
    std::vector<std::pair<std::string, Answer>> requests;
    for (std::size_t i = 0; i < 4096; ++i) {
      const Leaf& leaf = oleaves[rng.below(oleaves.size())];
      if (i % 2 == 0) {
        requests.emplace_back("EXACT " + format_prefix(leaf.addr, leaf.len),
                              oracle.exact(leaf.addr, leaf.len));
      } else {
        std::uint32_t a = (leaf.addr & prefix_mask(leaf.len)) |
                          (static_cast<std::uint32_t>(rng.next()) &
                           ~prefix_mask(leaf.len));
        requests.emplace_back("LPM " + format_addr(a), oracle.longest(a));
      }
    }
    std::uint64_t handled = 0;
    const std::int64_t t1 = now_ns();
    do {
      for (const auto& [line, want] : requests) {
        auto got = parse_text_answer(server.handle_request(line));
        if (!got || !(*got == want)) mismatch("handle_request " + line);
      }
      handled += requests.size();
    } while (seconds_since(t1) < 0.5);
    json.num("serve.handle_us", static_cast<double>(now_ns() - t1) / 1e3 /
                                    static_cast<double>(handled));
  }

  // ---- catalog layers on a catalog of the ledger's own ------------------
  {
    const std::string dir = out_dir + "/history";
    fs::remove_all(dir);
    const auto epochs = static_cast<std::size_t>(args.num("epochs"));
    Series series = emit_history(dir, args.num("history-scale"), seed, epochs, false);
    auto opened = catalog::Catalog::open(dir + "/catalog");
    if (!opened) throw std::runtime_error(opened.error().to_string());
    std::shared_ptr<catalog::Catalog> cat = std::move(*opened);
    auto entries = cat->entries();
    std::int64_t t0 = now_ns();
    if (!cat->materialize(entries[0].epoch)) mismatch("materialize anchor");
    json.num("catalog.materialize_full_s", seconds_since(t0));
    t0 = now_ns();
    if (!cat->materialize(entries[1].epoch)) mismatch("materialize delta");
    json.num("catalog.materialize_delta_ms", seconds_since(t0) * 1e3);
    if (entries[1].kind != catalog::EpochKind::kDelta) {
      mismatch("second catalog epoch is not a delta");
    }

    auto latest = cat->epoch_at(0);
    if (!latest) throw std::runtime_error(latest.error().to_string());
    serve::QueryServer server(cat, *latest, serve::QueryServer::Options{});
    std::vector<std::unique_ptr<LpmOracle>> oracles;
    for (std::size_t k = 0; k < epochs; ++k) {
      oracles.push_back(
          std::make_unique<LpmOracle>(read_leaves(epoch_csv(dir, series.timestamps[k]))));
    }
    std::vector<std::uint32_t> ts(series.timestamps.begin(),
                                  series.timestamps.begin() + static_cast<std::ptrdiff_t>(epochs));
    Rng rng(seed ^ 0x4157ull);
    const std::uint64_t mat0 = counter("sublet_catalog_materializations_total");
    const std::uint64_t ev0 = counter("sublet_catalog_lru_evictions_total");
    constexpr int kHistories = 8;
    for (int h = 0; h < kHistories; ++h) {
      const auto& leaves_now = oracles.back()->leaves();
      const Leaf& leaf = leaves_now[rng.below(leaves_now.size())];
      std::uint32_t a = leaf.addr & prefix_mask(leaf.len);
      std::string reply = server.handle_request("HISTORY " + format_prefix(a, leaf.len));
      std::vector<Answer> answers;
      for (const auto& o : oracles) answers.push_back(o->longest(a, leaf.len));
      auto got = parse_history(reply);
      if (!got || *got != coalesce(ts, answers)) mismatch("HISTORY " + reply.substr(0, 200));
    }
    json.num("catalog.materializations_per_history",
             static_cast<double>(counter("sublet_catalog_materializations_total") - mat0) /
                 kHistories)
        .num("catalog.evictions_per_history",
             static_cast<double>(counter("sublet_catalog_lru_evictions_total") - ev0) /
                 kHistories);

    t0 = now_ns();
    auto appended = catalog::catalog_append(dir + "/catalog", series.timestamps.back(),
                                            series.inferences.back());
    json.num("catalog.append_s", seconds_since(t0));
    if (!appended) throw std::runtime_error(appended.error().to_string());
    json.num("catalog.delta_bytes", static_cast<double>(appended->bytes));
    t0 = now_ns();
    std::string reloaded = server.handle_request("RELOAD");
    json.num("catalog.reload_ms", seconds_since(t0) * 1e3);
    if (reloaded.find("\"ok\":true") == std::string::npos) mismatch("RELOAD " + reloaded);
    // The appended epoch now answers AT its own timestamp.
    LpmOracle appended_oracle(read_leaves(epoch_csv(dir, series.timestamps.back())));
    const std::string at = " AT " + std::to_string(series.timestamps.back());
    for (int i = 0; i < 8; ++i) {
      const auto& leaves_new = appended_oracle.leaves();
      const Leaf& leaf = leaves_new[rng.below(leaves_new.size())];
      std::string line = "EXACT " + format_prefix(leaf.addr, leaf.len) + at;
      auto got = parse_text_answer(server.handle_request(line));
      if (!got || !(*got == appended_oracle.exact(leaf.addr, leaf.len))) {
        mismatch(line + " after RELOAD");
      }
    }
  }

  if (args.has("trace-file")) tr.write(args.str("trace-file"));
  json.boolean("correct", mismatches == 0)
      .num("mismatches", static_cast<double>(mismatches))
      .str("first_error", first_error);
  std::cout << json.take() << std::endl;
  return 0;
}

}  // namespace perfbench
