#!/usr/bin/env python3
"""End-to-end benchmark of sublet: raw dataset -> served verdict.

Run from the root of a sublet checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Builds `sublet` and the harness from this checkout into .bench_build/
(incrementally, on every run), generates the workload's inputs from --seed with the program's
own generator, runs the workload for --seconds, checks every answer
against the benchmark's own oracle, and prints one JSON object as the
last line of stdout:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger
(README.md lists both and which end-to-end metric each layer moves).
"""

import argparse
import csv
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
SUBLET = os.path.join(BUILD, "sublet", "tools", "sublet")
HARNESS = os.path.join(BUILD, "perfbench_harness")
THREADS = max(1, min(4, os.cpu_count() or 1))  # never more than the box
SHARDS = 2

# World sizes and traffic shapes, fixed for every seed (README.md).
INGEST_SCALE = 1.0
CATALOG_SCALE = 0.5  # traced run: the ledger's own catalog
CATALOG_EPOCHS = 12  # more than the catalog's 8-epoch LRU
TEXT_RATE = 20000  # serve_latest open loop, requests/s
SAMPLE_LEAVES = 64  # leaves compared field by field over the socket
SERIAL_ROUNDS = 3  # traced run: untraced single-threaded ingests (median)
PROBE_SECONDS = 4  # traced run: serve_latest traffic for the serve.* layers
ACCOUNTED_SHARE = (0.6, 1.4)  # layer spans / untraced serial ingest wall
SPAN_COVERAGE = (0.85, 1.0)  # layer spans / the traced composition's own wall
PRECISION_FLOOR = 0.85
RECALL_FLOOR = 0.98

WORKLOADS = ("ingest", "serve_latest")


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ----------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "CMakeLists.txt"))):
        raise BenchError("run from the root of a sublet checkout (src/ and tools/ missing)")
    # Configure and build on every run: both are incremental, so an
    # unchanged tree costs a few seconds, and a tree whose sources changed
    # since .bench_build/ was made is rebuilt before anything is measured.
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(WORK, "build.log")
    with open(build_log, "w") as out:
        steps = [
            ["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", BUILD, "-j", str(THREADS), "--target", "sublet",
             "perfbench_harness"],
        ]
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("build failed; see " + build_log)


# ---- child processes ------------------------------------------------------

class Child:
    """A finished child: wall time, rusage CPU and peak RSS, stdout."""

    def __init__(self, wall, cpu, rss_mb, out):
        self.wall, self.cpu, self.rss_mb, self.out = wall, cpu, rss_mb, out


def run_child(cmd, what):
    """Run cmd to completion; its own rusage comes from wait4."""
    t0 = time.perf_counter()
    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    with open(out_path, "rb") as f:
        text = f.read().decode(errors="replace")
    if proc.returncode != 0:
        with open(err_path, "rb") as f:
            tail = f.read().decode(errors="replace")[-2000:]
        raise BenchError("%s failed (exit %d): %s" % (what, proc.returncode, tail))
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, text)


def harness(*args):
    child = run_child([HARNESS] + [str(a) for a in args], "harness " + str(args[0]))
    return json.loads(child.out.strip().splitlines()[-1])


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class TextClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        reply = self.file.readline()
        if not reply:
            raise BenchError("server closed the connection on " + line)
        return reply.decode()

    def close(self):
        self.file.close()
        self.sock.close()


class Server:
    """`sublet serve` from launch to the first answer that checks correct."""

    def __init__(self, serve_args, first_query, first_check, tag):
        port_file = os.path.join(WORK, "port-" + tag)
        if os.path.exists(port_file):
            os.remove(port_file)
        t0 = time.perf_counter()
        self.err = open(os.path.join(WORK, "serve-%s.err" % tag), "wb")
        self.proc = subprocess.Popen(
            [SUBLET, "serve"] + serve_args +
            ["--port", "0", "--port-file", port_file, "--shards", str(SHARDS)],
            stdout=subprocess.DEVNULL, stderr=self.err)
        self.port = None
        try:
            while True:
                if self.proc.poll() is not None:
                    raise BenchError("sublet serve exited with %d" % self.proc.returncode)
                if time.perf_counter() - t0 > 120:
                    raise BenchError("sublet serve did not answer within 120 s")
                try:
                    with open(port_file) as f:
                        text = f.read()
                    if text.endswith("\n"):
                        self.port = int(text)
                        client = TextClient(self.port)
                        reply = client.request(first_query)
                        client.close()
                        break
                except (OSError, ValueError):
                    pass
                time.sleep(0.001)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0
        self.first_ok = first_check(reply)
        self.cpu_at_first = proc_cpu_s(self.proc.pid)

    def cpu_s(self):
        return proc_cpu_s(self.proc.pid)

    def hwm_mb(self):
        return proc_hwm_mb(self.proc.pid)

    def stop(self):
        try:
            client = TextClient(self.port)
            client.request("SHUTDOWN")
            client.close()
            self.proc.wait(timeout=30)
        except (OSError, BenchError, subprocess.TimeoutExpired):
            self.kill()
        self.err.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.err.close()


# ---- inference CSVs and answers -------------------------------------------

def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def row_matches(reply, row):
    """A served EXACT answer equals its CSV row, field by field."""
    try:
        got = json.loads(reply)
    except ValueError:
        return False
    if not got.get("found"):
        return False
    asns = lambda key: " ".join(str(a) for a in got.get(key, []))
    return (got.get("prefix") == row["prefix"] and got.get("rir") == row["rir"]
            and got.get("group") == row["group"]
            and bool(got.get("leased")) == (row["leased"] == "1")
            and got.get("root_prefix", "") == row["root_prefix"]
            and got.get("holder_org", "") == row["holder_org"]
            and asns("holder_asns") == row["holder_asns"]
            and asns("leaf_origins") == row["leaf_origins"]
            and asns("root_origins") == row["root_origins"]
            and " ".join(got.get("facilitators", [])) == row["facilitators"]
            and got.get("netname", "") == row["netname"])


def first_row(path):
    with open(path, newline="") as f:
        return next(csv.DictReader(f))


def flip_one_group(src, dst):
    """Copy an inference CSV with the group of its middle row changed."""
    with open(src, newline="") as f:
        rows = list(csv.reader(f))
    victim = rows[len(rows) // 2]
    groups = ["unused", "aggregated-customer", "isp-customer", "leased(g3)",
              "delegated-customer", "leased(g4)"]
    victim[2] = groups[(groups.index(victim[2]) + 1) % len(groups)]
    victim[3] = "1" if victim[2].startswith("leased") else "0"
    with open(dst, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


class Checks:
    """Outcome of every correctness check in one run."""

    def __init__(self):
        self.ok = True
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.ok = False
            self.notes.append(what)

    def add_result(self, result, what):
        self.attempted += int(result["attempted"])
        self.failed += int(result["failed"])
        if not result["correct"]:
            self.ok = False
            self.notes.append("%s: %s" % (what, result.get("first_error", "")))


# ---- ingest ---------------------------------------------------------------

def ingest_round(world, out_csv, snap, threads, corrupt, tag):
    """infer -> snapshot write -> serve -> first correct answer."""
    t0 = time.perf_counter()
    infer = run_child([SUBLET, "--threads", str(threads), "infer", world, "-o", out_csv],
                      "sublet infer")
    source = out_csv
    if corrupt:
        source = out_csv + ".corrupt"
        flip_one_group(out_csv, source)
    write = run_child([SUBLET, "snapshot", "write", source, snap], "sublet snapshot write")
    first = first_row(out_csv)
    server = Server([snap], "EXACT " + first["prefix"], lambda r: row_matches(r, first), tag)
    wall = time.perf_counter() - t0
    cpu = infer.cpu + write.cpu + server.cpu_at_first
    rss = max(infer.rss_mb, write.rss_mb, server.hwm_mb())
    return wall, cpu, rss, infer.out, server


def check_ingest(world, out_csv, infer_out, server, seed, checks):
    rows = read_rows(out_csv)
    truth = {r["prefix"]: r for r in read_rows(os.path.join(world, "truth", "leases.csv"))}
    tp = fp = fn = 0
    untrue = [row["prefix"] for row in rows if row["prefix"] not in truth]
    checks.check(not untrue, "leaves missing from truth: %s" % untrue[:5])
    for row in rows:
        t = truth.get(row["prefix"])
        if t is None or t["active"] != "1":
            continue  # inactive leases are invisible in BGP by design
        pred, real = row["leased"] == "1", t["is_leased"] == "1"
        tp += pred and real
        fp += pred and not real
        fn += real and not pred
    precision = tp / max(1, tp + fp)
    recall = tp / max(1, tp + fn)
    checks.check(precision >= PRECISION_FLOOR, "precision %.4f < floor" % precision)
    checks.check(recall >= RECALL_FLOOR, "recall %.4f < floor" % recall)
    words = infer_out.split()
    classified = int(words[words.index("classified") + 1].replace(",", ""))
    leased = int(words[words.index("inferred") - 1].replace(",", ""))
    checks.check(classified == len(rows), "classified count != CSV rows")
    checks.check(leased == sum(r["leased"] == "1" for r in rows), "leased count != CSV")
    checks.add_result(harness("sweep", "--port", server.port, "--csv", out_csv), "sweep")
    client = TextClient(server.port)
    for row in random.Random(seed).sample(rows, min(SAMPLE_LEAVES, len(rows))):
        checks.check(row_matches(client.request("EXACT " + row["prefix"]), row),
                     "served row differs from CSV: " + row["prefix"])
    client.close()
    return precision, recall, len(rows)


def workload_ingest(args, run_dir, checks, extra):
    world = os.path.join(run_dir, "world")
    gen = run_child([SUBLET, "--threads", str(THREADS), "generate", world,
                     "--scale", str(INGEST_SCALE), "--seed", str(args.seed)],
                    "sublet generate")
    setup_s = gen.wall
    extra.update(generate_rss_mb=gen.rss_mb)  # set-up, so not in peak_rss_mb
    out_csv = os.path.join(run_dir, "leases.csv")
    snap = os.path.join(run_dir, "leases.snap")
    walls, cpus, rss = [], [], []
    leaves = 0
    first_csv = None
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        wall, cpu, peak, infer_out, server = ingest_round(
            world, out_csv, snap, THREADS, args.corrupt, "ingest")
        try:
            checks.check(server.first_ok, "first served answer differs from CSV")
            if first_csv is None:
                precision, recall, leaves = check_ingest(
                    world, out_csv, infer_out, server, args.seed, checks)
                extra.update(precision=precision, recall=recall, leaves=leaves)
                with open(out_csv, "rb") as f:
                    first_csv = f.read()
            else:
                with open(out_csv, "rb") as f:
                    checks.check(f.read() == first_csv, "inference CSV changed between rounds")
        finally:
            server.stop()
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
    extra.update(rounds=len(walls), ingest_walls=walls)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": wall * 1e3,
        "throughput_per_s": leaves / wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(rss),
    }
    return metrics, {"world": world, "csv": out_csv, "snap": snap}


# ---- serving workloads ----------------------------------------------------

def prepare_snapshot(seed, run_dir, corrupt):
    """Seeded world -> infer -> snapshot (not timed)."""
    world = os.path.join(run_dir, "world")
    run_child([SUBLET, "--threads", str(THREADS), "generate", world,
               "--scale", str(INGEST_SCALE), "--seed", str(seed)], "sublet generate")
    out_csv = os.path.join(run_dir, "leases.csv")
    run_child([SUBLET, "--threads", str(THREADS), "infer", world, "-o", out_csv], "sublet infer")
    source = out_csv
    if corrupt:
        source = out_csv + ".corrupt"
        flip_one_group(out_csv, source)
    snap = os.path.join(run_dir, "leases.snap")
    run_child([SUBLET, "snapshot", "write", source, snap], "sublet snapshot write")
    return world, out_csv, snap


def workload_serve_latest(args, run_dir, checks, extra):
    world, out_csv, snap = prepare_snapshot(args.seed, run_dir, args.corrupt)
    first = first_row(out_csv)
    server = Server([snap], "EXACT " + first["prefix"], lambda r: row_matches(r, first),
                    "latest")
    try:
        checks.check(server.first_ok, "first served answer differs from CSV")
        cpu0 = server.cpu_s()
        result = harness("serve-latest", "--port", server.port, "--csv", out_csv,
                         "--seed", args.seed, "--seconds", args.seconds,
                         "--text-rate", TEXT_RATE)
        cpu = server.cpu_s() - cpu0
        rss = server.hwm_mb()
    finally:
        server.stop()
    checks.add_result(result, "serve-latest")
    extra.update(result)
    mlookups = (result["lookups"] + result["text_samples"]) / 1e6
    metrics = {
        "setup_s": server.setup_s,
        "latency_p50_ms": result["text_p50_us"] / 1e3,
        "throughput_per_s": result["lookups_per_s"],
        "cpu_s": cpu / mlookups,
        "peak_rss_mb": rss,
    }
    return metrics, {"world": world, "csv": out_csv, "snap": snap}


# ---- traced run: the per-layer ledger ---------------------------------------

def traced_ledger(args, run_dir, inputs, checks):
    """Layer metrics for any workload: serial untraced ingest, the traced
    composition of the same world, and a short probe of the live server."""
    world = inputs["world"]
    serial_csv = os.path.join(run_dir, "serial.csv")
    serial_snap = os.path.join(run_dir, "serial.snap")
    walls = []
    for i in range(SERIAL_ROUNDS):
        wall, _, _, _, server = ingest_round(world, serial_csv, serial_snap, 1, False,
                                             "serial")
        walls.append(wall)
        if i + 1 < SERIAL_ROUNDS:
            checks.check(server.first_ok, "serial ingest: first answer differs from CSV")
            server.stop()
    wall = statistics.median(walls)
    try:
        checks.check(server.first_ok, "serial ingest: first answer differs from CSV")
        cpu0 = server.cpu_s()
        probe = harness("serve-latest", "--port", server.port, "--csv", serial_csv,
                        "--seed", args.seed, "--seconds", PROBE_SECONDS,
                        "--text-rate", TEXT_RATE)
        cpu = server.cpu_s() - cpu0
        client = TextClient(server.port)
        stats = json.loads(client.request("STATS"))
        client.close()
    finally:
        server.stop()
    checks.add_result(probe, "probe")
    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    ledger = harness("ledger", "--world", world, "--cli-csv", serial_csv,
                     "--out", os.path.join(run_dir, "ledger"), "--threads", THREADS,
                     "--seed", args.seed, "--history-scale", CATALOG_SCALE,
                     "--epochs", CATALOG_EPOCHS, "--trace-file",
                     os.path.join(traces, "%s-%d.json" % (args.workload, args.seed)))
    checks.check(ledger["correct"], "ledger: " + ledger.get("first_error", ""))
    with open(inputs["csv"], "rb") as a, open(serial_csv, "rb") as b:
        checks.check(a.read() == b.read(), "infer output differs across thread counts")
    # A layer lost from the ledger, or counted twice, moves the spans'
    # share of the composition's own wall; host noise barely does.
    coverage = ledger["ingest.layer_sum_s"] / ledger["ingest.traced_wall_s"]
    checks.check(SPAN_COVERAGE[0] <= coverage <= SPAN_COVERAGE[1],
                 "layer spans cover %.3f of the traced composition" % coverage)
    share = ledger["ingest.layer_sum_s"] / wall
    checks.check(ACCOUNTED_SHARE[0] <= share <= ACCOUNTED_SHARE[1],
                 "layer spans account for %.2f of the untraced ingest wall" % share)
    lookups = probe["lookups"] + probe["text_samples"]
    hits, misses = stats["hits"], stats["misses"]
    layer = {k: v for k, v in ledger.items()
             if k not in ("correct", "mismatches", "first_error", "leaves",
                          "leasing.load_threads")}
    layer.update({
        "ingest.serial_wall_s": wall,
        "ingest.accounted_share": share,
        "serve.transport_us": probe["text_p50_us"] - ledger["serve.handle_us"],
        "serve.batch_rtt_us": probe["batch_rtt_us"],
        "serve.cpu_s_per_mlookup": cpu / (lookups / 1e6),
        "serve.hit_ratio": hits / max(1, hits + misses),
    })
    return layer


def metric_units(kind):
    """name -> unit of the "end_to_end" or "per_layer" metrics."""
    with open(os.path.join(BENCH, "..", "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


# ---- main -----------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="serve one record with a flipped group; the run must "
                             "then report correct=false (negative check)")
    args = parser.parse_args()
    try:
        build()
        run_dir = os.path.join(WORK, "run-%d" % os.getpid())
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        checks = Checks()
        extra = {}
        try:
            workload = {"ingest": workload_ingest,
                        "serve_latest": workload_serve_latest}[args.workload]
            metrics, inputs = workload(args, run_dir, checks, extra)
            if args.trace:
                metrics = traced_ledger(args, run_dir, inputs, checks)
            units = metric_units("per_layer" if args.trace else "end_to_end")
            missing = sorted(set(units) - set(metrics))
            if missing:
                raise BenchError("run did not measure " + ", ".join(missing))
            reported = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "checks_failed": checks.notes[:20], "detail": extra}
    with open(os.path.join(results, "%s-%d-%d.json" % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(detail, f, indent=1)
    for note in checks.notes[:20]:
        log("check failed: " + note)
    print(json.dumps({"correct": checks.ok, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
