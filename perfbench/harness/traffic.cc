// The serve_latest load generator, plus the full-table sweep that checks
// every leaf of an epoch before traffic starts.
//
// serve_latest alternates, in 1-second rounds, half a closed loop of
// pipelined binary LPM batches (two connections, four frames in flight on
// each) with half an open loop of text EXACT/LPM at a fixed rate (one
// connection); each metric is the median over the rounds.
//
// Every request is generated up front from the seed, with its expected
// answer from the oracle, so the timed loops only send, receive, compare.
#include <poll.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <numeric>

#include "common.h"
#include "net.h"
#include "oracle.h"
#include "harness.h"

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 1024;       // addresses per binary frame
constexpr std::size_t kDepth = 4;          // frames in flight per connection
constexpr std::size_t kBinaryConns = 2;    // one per server shard
constexpr std::size_t kCheckEvery = 8;     // every 8th frame fully checked
constexpr double kOutsideShare = 0.10;     // addresses outside every leaf
constexpr std::int64_t kSpinNs = 60'000;   // open loop: busy-poll this close to due

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::string first_error;
  void mismatch(const std::string& what) {
    if (mismatches++ == 0 && first_error.empty()) first_error = what;
  }
  void fail(const std::string& what) {
    if (failed++ == 0 && first_error.empty()) first_error = what;
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    mismatches += other.mismatches;
    if (first_error.empty()) first_error = other.first_error;
  }
};


Pool make_pool(const LpmOracle& oracle, Rng& rng, std::size_t n) {
  Pool pool;
  const auto& leaves = oracle.leaves();
  pool.addrs.reserve(n);
  pool.expect.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t addr = 0;
    if (rng.unit() < kOutsideShare) {
      do {
        addr = static_cast<std::uint32_t>(rng.next());
      } while (oracle.longest(addr).found);
    } else {
      const Leaf& leaf = leaves[rng.below(leaves.size())];
      addr = (leaf.addr & prefix_mask(leaf.len)) |
             (static_cast<std::uint32_t>(rng.next()) & ~prefix_mask(leaf.len));
    }
    pool.addrs.push_back(addr);
    pool.expect.push_back(oracle.longest(addr));
  }
  return pool;
}

void check_frame(const FrameReply& reply, const Pool& pool, std::size_t first,
                 bool full, Tally& tally) {
  if (reply.status != 0 || reply.payload.size() != kBatch * kResultBytes) {
    tally.fail("binary frame status " + std::to_string(reply.status));
    return;
  }
  if (reply.epoch != 0) tally.mismatch("frame epoch not echoed");
  if (!full) return;
  for (std::size_t i = 0; i < kBatch; ++i) {
    bool leased = false;
    Answer got = decode_result(reply.payload, i, &leased);
    const Answer& want = pool.expect[first + i];
    if (!(got == want) || (got.found && leased != group_leased(got.group))) {
      tally.mismatch("binary LPM " + format_addr(pool.addrs[first + i]) +
                     ": served " +
                     (got.found ? format_prefix(got.addr, got.len) + " " +
                                      std::string(kGroupNames[got.group % 6])
                                : "miss") +
                     ", oracle " +
                     (want.found ? format_prefix(want.addr, want.len) + " " +
                                       std::string(kGroupNames[want.group])
                                 : "miss"));
      return;
    }
  }
}


struct ClosedLoopResult {
  Tally tally;
  std::uint64_t lookups = 0;
  double seconds = 0;
  std::vector<double> rtt_us;  // sampled batch round trips
};

/// Pipelined closed loop over `conns`: each keeps kDepth frames in flight
/// and a frame is replaced as soon as its answer is read. Frames are
/// taken in turn from `cursor`, cycling. After `seconds` the loop stops
/// sending and drains, so nothing is in flight between
/// calls; lookups answered during the drain count too.
ClosedLoopResult closed_loop(std::vector<std::unique_ptr<Conn>>& conns,
                             const std::vector<Frame>& frames, std::size_t& cursor, double seconds) {
  ClosedLoopResult out;
  struct InFlight {
    std::size_t frame;
    std::int64_t sent_ns;
  };
  std::vector<std::vector<InFlight>> inflight(conns.size());
  std::uint64_t seq = 0;
  auto send_next = [&](std::size_t c) {
    std::size_t f = cursor++ % frames.size();
    inflight[c].push_back(InFlight{f, now_ns()});
    conns[c]->send_all(frames[f].bytes);
  };
  auto receive = [&](std::size_t c) {
    FrameReply reply = read_frame(*conns[c]);
    InFlight head = inflight[c].front();
    inflight[c].erase(inflight[c].begin());
    const Frame& frame = frames[head.frame];
    ++out.tally.attempted;
    if (reply.request_id != static_cast<std::uint32_t>(head.frame)) {
      out.tally.mismatch("binary response out of order");
    }
    check_frame(reply, *frame.pool, frame.first, seq % kCheckEvery == 0, out.tally);
    if (seq % 64 == 0) {
      out.rtt_us.push_back(static_cast<double>(now_ns() - head.sent_ns) / 1e3);
    }
    ++seq;
    out.lookups += kBatch;
  };
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t c = 0; c < conns.size(); ++c) {
    for (std::size_t d = 0; d < kDepth; ++d) send_next(c);
  }
  // Connections are serviced as their answers arrive, so a stall on one
  // server shard does not hold back the connection on the other.
  std::vector<pollfd> fds(conns.size());
  auto wait_ready = [&] {
    for (int idle_s = 0;; ++idle_s) {
      if (idle_s >= kStallSeconds) throw std::runtime_error("binary answers stalled");
      bool any = false;
      for (auto& conn : conns) any = any || conn->frame_buffered();
      if (any) return;
      for (std::size_t c = 0; c < conns.size(); ++c) {
        fds[c] = pollfd{conns[c]->fd(), POLLIN, 0};
      }
      if (::poll(fds.data(), fds.size(), 1000) <= 0) continue;
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) &&
            !conns[c]->fill_nonblocking()) {
          throw std::runtime_error("server closed a binary connection");
        }
      }
    }
  };
  for (bool running = true; running;) {
    wait_ready();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (!conns[c]->frame_buffered()) continue;
      receive(c);
      if (now_ns() >= deadline) {
        running = false;
      } else {
        send_next(c);
      }
    }
  }
  for (std::size_t c = 0; c < conns.size(); ++c) {
    while (!inflight[c].empty()) receive(c);
  }
  out.seconds = seconds_since(start);
  return out;
}

std::vector<std::unique_ptr<Conn>> connect_all(std::uint16_t port, std::size_t n) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t c = 0; c < n; ++c) conns.push_back(std::make_unique<Conn>(port));
  return conns;
}

struct OpenLoopResult {
  Tally tally;
  std::vector<double> latency_us;  // from due time to answer
  std::vector<double> late_us;     // how late each send left
};

/// Single-threaded open loop: send each request when due regardless of
/// outstanding answers; answers arrive in order on the one connection.
OpenLoopResult open_loop(Conn& conn, const std::vector<TextRequest>& requests) {
  OpenLoopResult out;
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::size_t sent = 0, received = 0;
  const std::int64_t start = now_ns();
  std::int64_t last_answer = 0;
  while (received < requests.size()) {
    std::int64_t now = now_ns() - start;
    if (received < sent && now - last_answer > std::int64_t{kStallSeconds} * 1'000'000'000 &&
        now - requests[received].due_ns > std::int64_t{kStallSeconds} * 1'000'000'000) {
      out.tally.fail("text answers stalled");
      return out;
    }
    if (sent < requests.size() && now >= requests[sent].due_ns) {
      out.late_us.push_back(static_cast<double>(now - requests[sent].due_ns) / 1e3);
      conn.send_all(requests[sent].line + "\n");
      ++sent;
      ++out.tally.attempted;
      continue;
    }
    if (!conn.line_buffered()) {
      // Sleep until shortly before the next send is due, then poll
      // without sleeping, so sends leave on time rather than a timer
      // slack late.
      std::int64_t wait_ns = sent < requests.size()
                                 ? requests[sent].due_ns - now - kSpinNs
                                 : 1'000'000'000;
      if (wait_ns < 0) wait_ns = 0;
      pollfd pfd{conn.fd(), POLLIN, 0};
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) continue;
      if (!conn.fill_nonblocking()) {
        out.tally.fail("server closed the text connection");
        return out;
      }
    }
    while (conn.line_buffered() && received < sent) {
      std::string line = conn.read_line();
      std::int64_t at = now_ns() - start;
      last_answer = at;
      const TextRequest& req = requests[received++];
      out.latency_us.push_back(static_cast<double>(at - req.due_ns) / 1e3);
      bool leased = false;
      auto got = parse_text_answer(line, &leased);
      if (!got) {
        out.tally.fail("text answer: " + line.substr(0, 200));
      } else if (!(*got == req.expect) ||
                 (got->found && leased != group_leased(got->group))) {
        out.tally.mismatch(req.line + " -> " + line.substr(0, 200));
      }
    }
  }
  return out;
}

std::string digest_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Exact-batch every leaf of one epoch and compare group, prefix and the
/// leased flag with the CSV.
void sweep_epoch(Conn& conn, const std::vector<Leaf>& leaves, std::uint32_t epoch,
                 Tally& tally) {
  constexpr std::size_t kChunk = 32768;
  for (std::size_t first = 0; first < leaves.size(); first += kChunk) {
    std::size_t n = std::min(kChunk, leaves.size() - first);
    conn.send_all(encode_exact_frame(static_cast<std::uint32_t>(first), epoch,
                                     leaves, first, n));
    FrameReply reply = read_frame(conn);
    ++tally.attempted;
    if (reply.status != 0 || reply.payload.size() != n * kResultBytes) {
      tally.fail("exact sweep status " + std::to_string(reply.status));
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Leaf& leaf = leaves[first + i];
      bool leased = false;
      Answer got = decode_result(reply.payload, i, &leased);
      Answer want{true, leaf.addr & prefix_mask(leaf.len), leaf.len, leaf.group};
      if (!(got == want) || leased != leaf.leased) {
        tally.mismatch("exact " + format_prefix(leaf.addr, leaf.len) +
                       (epoch ? " at " + std::to_string(epoch) : "") +
                       ": served group " +
                       (got.found ? std::string(kGroupNames[got.group % 6])
                                  : "miss") +
                       ", CSV " + std::string(kGroupNames[leaf.group]));
      }
    }
  }
}

std::string tally_json(JsonOut& json, const Tally& tally) {
  json.boolean("correct", tally.mismatches == 0)
      .num("attempted", static_cast<double>(tally.attempted))
      .num("failed", static_cast<double>(tally.failed))
      .num("mismatches", static_cast<double>(tally.mismatches))
      .str("first_error", tally.first_error);
  return json.take();
}

}  // namespace

std::uint64_t sweep_leaves(std::uint16_t port, const std::vector<Leaf>& leaves,
                           std::uint32_t epoch) {
  Tally tally;
  Conn conn(port);
  sweep_epoch(conn, leaves, epoch, tally);
  return tally.mismatches + tally.failed;
}

int cmd_sweep(const Args& args) {
  auto port = static_cast<std::uint16_t>(args.num("port"));
  auto leaves = read_leaves(args.str("csv"));
  Tally tally;
  Conn conn(port);
  sweep_epoch(conn, leaves, 0, tally);
  JsonOut json;
  json.num("leaves", static_cast<double>(leaves.size()));
  std::cout << tally_json(json, tally) << std::endl;
  return 0;
}

LatestPlan make_latest_plan(const LpmOracle& oracle, std::uint64_t seed,
                            double seconds, double rate) {
  LatestPlan plan;
  Rng rng(seed ^ 0x5e7e1a7e5ull);
  const auto& leaves = oracle.leaves();
  plan.pool = std::make_unique<Pool>(make_pool(oracle, rng, 256 * kBatch));
  const Pool& pool = *plan.pool;
  std::uint64_t digest = 0;
  for (std::size_t f = 0; f * kBatch < pool.addrs.size(); ++f) {
    Frame frame{encode_lpm_frame(static_cast<std::uint32_t>(f), 0,
                                 pool.addrs.data() + f * kBatch, kBatch),
                &pool, f * kBatch};
    digest = fnv1a(frame.bytes, digest);
    plan.frames.push_back(std::move(frame));
  }

  // Open-loop text schedule: Zipf over a seeded ranking of the leaves,
  // half EXACT on the leaf, half LPM on an address inside it.
  std::vector<std::size_t> rank(leaves.size());
  std::iota(rank.begin(), rank.end(), 0);
  for (std::size_t i = rank.size(); i > 1; --i) {
    std::swap(rank[i - 1], rank[rng.below(i)]);
  }
  Zipf zipf(leaves.size(), 0.99);
  const auto count = static_cast<std::size_t>(rate * seconds);
  plan.text.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Leaf& leaf = leaves[rank[zipf.draw(rng)]];
    TextRequest& req = plan.text[i];
    req.due_ns = static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
    if (rng.below(2) == 0) {
      req.line = "EXACT " + format_prefix(leaf.addr, leaf.len);
      req.expect = oracle.exact(leaf.addr, leaf.len);
    } else {
      std::uint32_t addr =
          (leaf.addr & prefix_mask(leaf.len)) |
          (static_cast<std::uint32_t>(rng.next()) & ~prefix_mask(leaf.len));
      req.line = "LPM " + format_addr(addr);
      req.expect = oracle.longest(addr);
    }
    digest = fnv1a(req.line, digest);
  }
  plan.digest = digest;
  return plan;
}

int cmd_serve_latest(const Args& args) {
  auto port = static_cast<std::uint16_t>(args.num("port"));
  const double seconds = args.num("seconds");
  LpmOracle oracle(read_leaves(args.str("csv")));
  const auto& leaves = oracle.leaves();
  LatestPlan plan =
      make_latest_plan(oracle, static_cast<std::uint64_t>(args.num("seed")),
                       seconds / 2, args.num("text-rate"));
  auto& frames = plan.frames;
  auto& text = plan.text;
  const std::uint64_t digest = plan.digest;

  Tally tally;
  {
    Conn conn(port);
    sweep_epoch(conn, leaves, 0, tally);
  }
  // Alternate short binary and text windows so both phases sample the
  // same background load; report the median window.
  const auto rounds = static_cast<std::size_t>(std::max(1.0, std::round(seconds)));
  const std::size_t per_round = text.size() / rounds;
  auto conns = connect_all(port, kBinaryConns);
  Conn text_conn(port);
  std::size_t cursor = 0;
  std::uint64_t lookups = 0;
  double bin_seconds = 0;
  std::vector<double> rates, rtt_us, window_p50, latency_us, late_us;
  for (std::size_t r = 0; r < rounds; ++r) {
    ClosedLoopResult bin = closed_loop(conns, frames, cursor, seconds / 2 / rounds);
    tally.merge(bin.tally);
    lookups += bin.lookups;
    bin_seconds += bin.seconds;
    rates.push_back(static_cast<double>(bin.lookups) / bin.seconds);
    rtt_us.insert(rtt_us.end(), bin.rtt_us.begin(), bin.rtt_us.end());
    std::vector<TextRequest> window(text.begin() + static_cast<std::ptrdiff_t>(r * per_round),
                                    text.begin() + static_cast<std::ptrdiff_t>((r + 1) * per_round));
    const std::int64_t base = window.front().due_ns;
    for (TextRequest& req : window) req.due_ns -= base;
    OpenLoopResult txt = open_loop(text_conn, window);
    tally.merge(txt.tally);
    window_p50.push_back(quantile(txt.latency_us, 0.5));
    latency_us.insert(latency_us.end(), txt.latency_us.begin(), txt.latency_us.end());
    late_us.insert(late_us.end(), txt.late_us.begin(), txt.late_us.end());
  }

  JsonOut json;
  json.num("lookups", static_cast<double>(lookups))
      .num("lookups_per_s", quantile(rates, 0.5))
      .num("lookups_per_s_overall", static_cast<double>(lookups) / bin_seconds)
      .num("batch_rtt_us", quantile(rtt_us, 0.5))
      .num("text_p50_us", quantile(window_p50, 0.5))
      .num("text_p50_us_overall", quantile(latency_us, 0.5))
      .num("text_p99_us", quantile(latency_us, 0.99))
      .num("text_samples", static_cast<double>(latency_us.size()))
      .num("late_p99_us", quantile(late_us, 0.99))
      .num("rounds", static_cast<double>(rounds))
      .num("outside_share", kOutsideShare)
      .str("digest", digest_hex(digest));
  std::cout << tally_json(json, tally) << std::endl;
  return 0;
}

}  // namespace perfbench
