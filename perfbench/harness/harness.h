// Harness subcommands (main.cc dispatches on argv[1]) and the pieces the
// self-test drives directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "leasing/types.h"
#include "oracle.h"

namespace perfbench {

int cmd_sweep(const Args& args);
int cmd_serve_latest(const Args& args);
int cmd_ledger(const Args& args);
int cmd_selftest(const Args& args);

/// Addresses for binary batches with their expected answers: a share
/// drawn outside every leaf, the rest uniformly over the leaves.
struct Pool {
  std::vector<std::uint32_t> addrs;
  std::vector<Answer> expect;
};

/// One pre-encoded frame of a closed loop.
struct Frame {
  std::string bytes;
  const Pool* pool = nullptr;
  std::size_t first = 0;
};

/// One open-loop text request with its due time and expected answer.
struct TextRequest {
  std::string line;
  std::int64_t due_ns = 0;  // offset from the loop's start
  Answer expect;
};

/// Everything serve_latest sends, generated from the seed before timing.
struct LatestPlan {
  std::unique_ptr<Pool> pool;  // frames point into it
  std::vector<Frame> frames;
  std::vector<TextRequest> text;
  std::uint64_t digest = 0;  // over every frame and request line
};
LatestPlan make_latest_plan(const LpmOracle& oracle, std::uint64_t seed,
                            double text_seconds, double text_rate);

/// Exact-batch every leaf at `epoch` (0 = latest) and compare with the
/// leaves; returns mismatched plus failed entries.
std::uint64_t sweep_leaves(std::uint16_t port, const std::vector<Leaf>& leaves,
                           std::uint32_t epoch);

/// Every epoch's timestamp and inference list, as generated.
struct Series {
  std::vector<std::uint32_t> timestamps;
  std::vector<std::vector<sublet::leasing::LeaseInference>> inferences;
};

/// With the program's own generator: `catalogued` + 1 epochs, the first
/// `catalogued` in a catalog under dir/catalog and the last left for the
/// caller to append, each also written to epoch_csv(dir, timestamp).
/// `corrupt` flips the group of one record of the middle epoch in the
/// catalog only (the benchmark's negative check).
Series emit_history(const std::string& dir, double scale, std::uint64_t seed,
                    std::size_t catalogued, bool corrupt);
std::string epoch_csv(const std::string& dir, std::uint32_t epoch);

}  // namespace perfbench
