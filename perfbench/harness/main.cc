// perfbench_harness <subcommand> [--key value ...]
//
//   sweep          exact-batch every leaf of a CSV against a live server
//   serve-latest   serve_latest traffic (binary closed loop, text open loop)
//   ledger         traced layer-by-layer composition (per-layer metrics)
//   selftest       the benchmark's own tests
//
// Each prints one JSON object on stdout; run.py drives them.
#include <iostream>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench_harness <sweep|serve-latest|ledger|selftest> [--key value ...]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    Args args(argc, argv, 2);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "serve-latest") return cmd_serve_latest(args);
    if (cmd == "ledger") return cmd_ledger(args);
    if (cmd == "selftest") return cmd_selftest(args);
    std::cerr << "unknown subcommand " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness " << cmd << ": " << e.what() << "\n";
    return 1;
  }
}
