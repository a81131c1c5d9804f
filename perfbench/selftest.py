#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny size, both modes.

Run from the root of a checkout:

  python3 perfbench/selftest.py

Each run must succeed, report `correct: true`, and carry exactly the
metric names (and units) BENCHMARK.json lists: the end-to-end metrics
untraced, the per-layer metrics traced. Exits 1 on the first
mismatch. Takes about a minute after the build.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(RUN), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace),
                   "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            tag = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{tag}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                failures.append(f"{tag}: not correct")
            if got != want[trace]:
                extra = sorted(set(got) - set(want[trace]))
                missing = sorted(set(want[trace]) - set(got))
                units = sorted(k for k in got.keys() & want[trace].keys()
                               if got[k] != want[trace][k])
                failures.append(f"{tag}: extra {extra}, missing "
                                f"{missing}, unit mismatches {units}")
            print(f"{tag}: {len(got)} metrics, attempted "
                  f"{result['attempted']}, failed {result['failed']}")
    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
