#!/usr/bin/env python3
"""Benchmark entry point for the MPLS VPN simulator.

    python3 perfbench/run.py --workload edge_qos|isp_sharded|isp_boot \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles ../src
with the same flags as the driver) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs one workload
for S seconds and checks its outputs. Untraced runs split S over
PROCESSES driver processes and report the median of their medians, so one
process's memory layout or placement cannot move the result; traced runs
use one process. Every metric is printed with its
unit; the last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end_to_end metrics of BENCHMARK.json for --trace 0 and its
per_layer metrics for --trace 1. Exits non-zero without a result line
when the simulator sources are absent or the build or the run breaks.
"""

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("edge_qos", "isp_sharded", "isp_boot")
# Threads the traffic phase of a parallel workload may use, beyond the
# host's own limit; the other workloads are serial.
MAX_THREADS = {"isp_sharded": 3}
PROCESSES = 5


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure once, then bring the driver up to date (log in `out`)."""
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                fail(f"build failed ({' '.join(cmd)}); see {log}")
    cache = (out / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=RelWithDebInfo" not in cache:
        fail(f"{out} is not a RelWithDebInfo build; delete it and rerun")
    return out / "perfbench_driver"


def source_digest():
    """sha256 over the simulator and benchmark sources, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def aggregate(runs):
    """One result from several driver processes: counts add up, each
    metric is the median of the processes' values."""
    first = runs[0]
    merged = dict(first)
    merged["reps"] = sum(r["reps"] for r in runs)
    merged["attempted"] = sum(r["attempted"] for r in runs)
    merged["failed"] = sum(r["failed"] for r in runs)
    merged["threads_used"] = max(r["threads_used"] for r in runs)
    merged["problems"] = [p for r in runs for p in r["problems"]]
    for r in runs[1:]:
        if r["digest"] != first["digest"]:
            merged["problems"].append(
                f"digest differs between processes: {r['digest']} vs "
                f"{first['digest']}")
    merged["metrics"] = {
        name: {"value": statistics.median(r["metrics"][name]["value"]
                                          for r in runs),
               "unit": m["unit"]}
        for name, m in first["metrics"].items()}
    return merged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    driver = build(out)
    trace_file = out / "trace" / f"{args.workload}-seed{args.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    processes = 1 if args.trace else PROCESSES
    load1 = os.getloadavg()[0]
    t0 = time.monotonic()
    runs = []
    cpus = sorted(os.sched_getaffinity(0))
    for i in range(processes):
        cmd = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds / processes),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", str(trace_file)]
        # The vCPUs of a shared host run at different speeds from minute to
        # minute, so serial workloads visit them in turn instead of landing
        # wherever the scheduler puts them.
        pin = None
        if args.workload not in MAX_THREADS:
            pin = functools.partial(os.sched_setaffinity, 0,
                                    {cpus[i % len(cpus)]})
        left = 170 - (time.monotonic() - t0)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  preexec_fn=pin, timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            fail("driver exceeded the 170 s run limit", 1)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            raw = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            fail(f"driver printed no result (exit {proc.returncode})", 1)
        if processes == 1:
            for line in lines[:-1]:
                print(line)
        raw["exit"] = proc.returncode
        runs.append(raw)

    raw = aggregate(runs)
    if processes > 1:
        for name, m in raw["metrics"].items():
            print(f"{args.workload:<12} {name:<32} {m['value']:16.6g} "
                  f"{m['unit']}")
        frac = raw["failed"] / raw["attempted"] if raw["attempted"] else 0.0
        print(f"{args.workload:<12} {'fail_frac':<32} {frac:16.6g} ratio   "
              f"({raw['failed']} failed of {raw['attempted']} ops, "
              f"{raw['reps']} reps in {processes} processes)")
    problems = list(raw["problems"])
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    recorded = digests.get(args.workload, {}).get(str(args.seed))
    if recorded is not None and recorded != raw["digest"]:
        problems.append(f"digest {raw['digest']} != recorded {recorded}")
    nproc = len(os.sched_getaffinity(0))
    limit = min(nproc, MAX_THREADS.get(args.workload, nproc))
    if raw["threads_used"] > limit:
        problems.append(f"used {raw['threads_used']} threads, limit {limit}")
    if raw["failed"] != 0:
        problems.append(
            f"{raw['failed']} of {raw['attempted']} operations failed")

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing from the run", 1)
        metrics[m["name"]] = got

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reps": raw["reps"], "processes": processes, "digest": raw["digest"],
        "digest_recorded": recorded, "nproc": nproc,
        "hw_threads": raw["hw_threads"], "loadavg_1m": load1,
        "threads_used": raw["threads_used"], "build": raw["build"],
        "git_rev": git_revision(), "src_sha256": source_digest(),
        "run_s": round(time.monotonic() - t0, 3),
        "trace_file": str(trace_file) if args.trace else None,
        "problems": problems,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems and all(r["exit"] == 0 for r in runs),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    results = out / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"stamp": stamp, "result": result}, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
