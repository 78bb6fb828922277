#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced at a
tiny length (one repetition each, recorded seed 1), and checks that each
run is correct, matches its recorded digest and reports every metric
BENCHMARK.json names with its unit. Then checks that run.py refuses to
produce a result in a directory holding only BENCHMARK.json and the
benchmark's own files. Exits 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            tag = f"{wl['name']} trace={trace}"
            p = run(["--workload", wl["name"], "--seed", "1", "--seconds",
                     "0.1", "--trace", str(trace)])
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or len(lines) < 2:
                errors.append(f"{tag}: exit {p.returncode}: {p.stderr[-400:]}")
                continue
            result = json.loads(lines[-1])
            stamp = json.loads(lines[-2].split(" ", 1)[1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                errors.append(f"{tag}: checks failed: {stamp['problems']}")
            if stamp["digest"] != stamp["digest_recorded"]:
                errors.append(f"{tag}: digest {stamp['digest']} vs recorded "
                              f"{stamp['digest_recorded']}")
            want = spec["per_layer" if trace else "end_to_end"]
            for m in want:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    errors.append(f"{tag}: metric {m['name']} [{m['unit']}] "
                                  f"missing")
            if len(result["metrics"]) != len(want):
                errors.append(f"{tag}: {len(result['metrics'])} metrics, "
                              f"expected {len(want)}")
            print(f"ok   {tag}: {result['attempted']} ops, digest "
                  f"{stamp['digest']}", flush=True)

    # Without the simulator sources the benchmark must fail, not report.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run(["--workload", "edge_qos", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare)
    if p.returncode == 0 or '"correct"' in p.stdout:
        errors.append("bare directory: run.py produced a result")
    else:
        print(f"ok   bare directory refused (exit {p.returncode})")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
