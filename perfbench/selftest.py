#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a sublet checkout:

    python3 perfbench/selftest.py

1. Builds the harness (as run.py does) and runs `perfbench_harness
   selftest`: the LPM oracle against brute force on seeded prefix sets with
   nesting, /32 entries and misses; HISTORY segment coalescing; the same
   seed giving the same request-schedule digest; and a snapshot or catalog
   with one flipped group caught by the sweep.
2. Runs every workload once for a short time and requires correct=true.
3. Runs every workload with --corrupt (one served record has its group
   flipped) and requires correct=false: the negative check end to end.

Exits 0 only if all of it holds.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "2"


def result_of(workload, seed, corrupt):
    cmd = [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"]
    if corrupt:
        cmd.append("--corrupt")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0 or not out.stdout.strip():
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    run.build()
    failures = 0
    unit = subprocess.run([run.HARNESS, "selftest", "--dir",
                           os.path.join(run.WORK, "selftest")])
    failures += unit.returncode != 0
    for workload in run.WORKLOADS:
        for corrupt in (False, True):
            result = result_of(workload, 3, corrupt)
            ok = result is not None and result["correct"] == (not corrupt)
            what = "corrupted record reported incorrect" if corrupt else "checks correct"
            print("%s  %s: %s" % ("ok  " if ok else "FAIL", workload, what), flush=True)
            failures += not ok
    print("all benchmark self-tests passed" if failures == 0 else
          "%d benchmark self-test(s) FAILED" % failures)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
