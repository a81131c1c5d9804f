#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from the experiment runner's JSON output.

EXPERIMENTS.md (referenced by src/trace/presets.hh) is the calibration
report: the measured values behind the workload presets, regenerated
from the same JSON files every bench emits with --out -- never
hand-edited. The generator runs the two calibration sweeps

  bench_table1_btb_mpki   (Table 1: BTB/L1-I MPKI, no prefetch)
  bench_fig7_speedup      (Fig 7: scheme speedups over baseline)

plus a six-scheme nutch grid through `shotgun-submit --local` for the
stall-attribution table, and formats their JSON into markdown
tables. Determinism makes this reproducible: the
same build regenerates the same file byte for byte.

Usage:
  scripts/regen_experiments.py [--build-dir build] [--quick]
      [--jobs N] [--out EXPERIMENTS.md]
"""

import argparse
import json
import math
import pathlib
import subprocess
import sys

WORKLOAD_ORDER = ["nutch", "streaming", "apache", "zeus", "oracle", "db2"]
PAPER_TABLE1 = {
    "nutch": 2.5,
    "streaming": 14.5,
    "apache": 23.7,
    "zeus": 14.6,
    "oracle": 45.1,
    "db2": 40.2,
}


# Every field a runner/shotgun-submit result row may carry. "windows"
# marks a result stitched from that many simulation windows
# (--window-shards); stitched results are numerically identical to
# monolithic ones, so the tables consume them like any other row.
KNOWN_ROW_FIELDS = {
    "workload", "label", "instructions", "cycles", "ipc",
    "btb_mpki", "l1i_mpki", "mispredicts_per_ki", "fe_stall_cycles",
    "active_cycles", "stall_icache", "stall_pf_wait", "stall_btb",
    "stall_redirect", "stall_ftq_empty", "stall_backend",
    "prefetch_accuracy", "avg_l1d_fill_cycles",
    "prefetches_issued", "storage_bits", "speedup", "stall_coverage",
    "windows",
}

# The subset the table generators below actually read.
REQUIRED_ROW_FIELDS = {"workload", "label", "btb_mpki", "l1i_mpki"}


def validate_rows(doc, source):
    """Fail with a clear message on schema drift, not a KeyError."""
    if not isinstance(doc, dict) or "rows" not in doc:
        sys.exit(f"{source}: not a runner result file (no \"rows\")")
    for i, row in enumerate(doc["rows"]):
        unknown = sorted(set(row) - KNOWN_ROW_FIELDS)
        if unknown:
            sys.exit(
                f"{source}: row {i} has unknown field(s) "
                f"{', '.join(unknown)} -- the runner JSON schema "
                f"moved; teach KNOWN_ROW_FIELDS in {__file__} about "
                f"them (and the tables, if they matter)")
        missing = sorted(REQUIRED_ROW_FIELDS - set(row))
        if missing:
            sys.exit(
                f"{source}: row {i} is missing required field(s) "
                f"{', '.join(missing)}")


def run_bench(build_dir, name, out_base, args, jobs):
    binary = build_dir / name
    if not binary.exists():
        sys.exit(f"{binary} not built (cmake --build {build_dir} first)")
    cmd = [str(binary), "--no-progress", "--out", str(out_base)]
    if jobs:  # 0 = bench default (all cores); the flag rejects 0.
        cmd += ["--jobs", str(jobs)]
    cmd += args
    print("+", " ".join(cmd), file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(f"{out_base}.json") as f:
        doc = json.load(f)
    validate_rows(doc, f"{out_base}.json")
    return doc


STALL_SCHEMES = ["baseline", "fdip", "boomerang", "confluence",
                 "shotgun", "rdip"]
STALL_CAUSES = [
    # (row field, column header)
    ("active_cycles", "active"),
    ("stall_icache", "icache"),
    ("stall_btb", "btb"),
    ("stall_redirect", "redirect"),
    ("stall_ftq_empty", "ftq-empty"),
    ("stall_backend", "backend"),
    ("stall_pf_wait", "pf-wait"),
]


def run_stall_grid(build_dir, work, warmup, measure, jobs):
    """Six-scheme nutch grid; returns its result rows by label."""
    binary = build_dir / "shotgun-submit"
    if not binary.exists():
        sys.exit(f"{binary} not built (cmake --build {build_dir} first)")
    out_base = work / "stall_grid"
    cmd = [str(binary), "--local", "--workload", "nutch",
           "--schemes", ",".join(STALL_SCHEMES),
           "--warmup", str(warmup), "--instructions", str(measure),
           "--no-progress", "--out", str(out_base)]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    print("+", " ".join(cmd), file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(f"{out_base}.json") as f:
        doc = json.load(f)
    validate_rows(doc, f"{out_base}.json")
    rows = {row["label"]: row for row in doc["rows"]}
    for scheme in STALL_SCHEMES:
        row = rows.get(scheme)
        if row is None:
            sys.exit(f"{out_base}.json: no row for scheme {scheme}")
        if sum(row[field] for field, _ in STALL_CAUSES) != row["cycles"]:
            sys.exit(f"{out_base}.json: {scheme}'s stall causes do not "
                     f"sum to its cycles -- some measured cycle is "
                     f"unattributed or double-charged (simulator bug)")
    return rows


def rows_by_workload(doc):
    by = {}
    for row in doc["rows"]:
        by.setdefault(row["workload"], {})[row["label"]] = row
    return by


def lookup(by, workload, label, source):
    try:
        return by[workload][label]
    except KeyError:
        sys.exit(f"{source}: no row for ({workload}, {label}); "
                 f"was the bench run with a workload filter?")


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--quick", action="store_true",
                        help="1M measured / 0.5M warm-up instructions")
    parser.add_argument("--jobs", type=int, default=0,
                        help="parallel data points (0 = all cores)")
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    build_dir = (root / args.build_dir).resolve()
    work = build_dir / "experiments"
    work.mkdir(parents=True, exist_ok=True)

    lengths = ["--quick"] if args.quick else []
    warmup, measure = (500000, 1000000) if args.quick \
        else (2000000, 5000000)
    table1 = rows_by_workload(run_bench(
        build_dir, "bench_table1_btb_mpki", work / "table1_btb_mpki",
        lengths, args.jobs))
    fig7 = rows_by_workload(run_bench(
        build_dir, "bench_fig7_speedup", work / "fig7_speedup",
        lengths, args.jobs))
    stall_rows = run_stall_grid(build_dir, work, warmup, measure,
                                args.jobs)

    out = []
    out.append("# EXPERIMENTS — measured calibration values")
    out.append("")
    out.append("Generated by `scripts/regen_experiments.py` from the")
    out.append("experiment runner's JSON output — do not hand-edit;")
    out.append("rerun the script after any change that moves the")
    out.append("numbers. Runs are deterministic, so a given build")
    out.append("regenerates this file byte for byte.")
    out.append("")
    out.append(f"Run lengths: {warmup} warm-up + {measure} measured")
    out.append("instructions per data point.")
    out.append("")
    out.append("## Table 1 — BTB MPKI, 2K-entry BTB, no prefetching")
    out.append("")
    out.append("Calibration targets from the paper alongside the")
    out.append("measured values of the synthetic presets"
               " (`src/trace/presets.cc`).")
    out.append("")
    out.append("| Workload | BTB MPKI (measured) | BTB MPKI (paper) |"
               " L1-I MPKI (measured) |")
    out.append("|---|---|---|---|")
    for name in WORKLOAD_ORDER:
        row = lookup(table1, name, "baseline", "table1_btb_mpki")
        out.append(
            f"| {name} | {row['btb_mpki']:.1f} |"
            f" {PAPER_TABLE1[name]:.1f} | {row['l1i_mpki']:.1f} |")
    out.append("")
    out.append("## Figure 7 — speedup over the no-prefetch baseline")
    out.append("")
    out.append("Paper shape: Shotgun ~1.32 average, ~5% over both")
    out.append("Boomerang and Confluence, the Boomerang gap largest")
    out.append("on the OLTP workloads.")
    out.append("")
    schemes = ["confluence", "boomerang", "shotgun"]
    out.append("| Workload | " + " | ".join(s.capitalize()
                                            for s in schemes) + " |")
    out.append("|---|" + "---|" * len(schemes))
    per_scheme = {s: [] for s in schemes}
    for name in WORKLOAD_ORDER:
        cells = []
        for scheme in schemes:
            row = lookup(fig7, name, scheme, "fig7_speedup")
            if "speedup" not in row:
                sys.exit(f"fig7_speedup: ({name}, {scheme}) row has "
                         f"no speedup (baseline missing from grid?)")
            speedup = row["speedup"]
            per_scheme[scheme].append(speedup)
            cells.append(f"{speedup:.3f}")
        out.append(f"| {name} | " + " | ".join(cells) + " |")
    out.append("| **geomean** | " +
               " | ".join(f"**{geomean(per_scheme[s]):.3f}**"
                          for s in schemes) + " |")
    out.append("")
    out.append("## Stall attribution — % of measured cycles, nutch")
    out.append("")
    out.append("Every measured cycle is active or charged to exactly")
    out.append("one stall cause (`src/sim/README.md`), so each row")
    out.append("sums to 100% -- the conservation invariant, asserted")
    out.append("by the generator. `btb` holds the cycles lost to BTB")
    out.append("misses: the BPU resolving a miss, and misfetch")
    out.append("bubbles; `redirect` holds mispredicts only.")
    out.append("")
    out.append("| Scheme | " +
               " | ".join(header for _, header in STALL_CAUSES) +
               " |")
    out.append("|---|" + "---|" * len(STALL_CAUSES))
    for scheme in STALL_SCHEMES:
        row = stall_rows[scheme]
        cycles = row["cycles"]
        cells = [f"{100.0 * row[field] / cycles:.1f}"
                 for field, _ in STALL_CAUSES]
        out.append(f"| {scheme} | " + " | ".join(cells) + " |")
    out.append("")
    out.append("## Reproducing")
    out.append("")
    out.append("```sh")
    out.append("cmake -B build -S . && cmake --build build -j")
    out.append("scripts/regen_experiments.py" +
               (" --quick" if args.quick else ""))
    out.append("```")
    out.append("")
    out.append("The same grids can be run on a fleet: submit them with")
    out.append("`shotgun-submit --coordinator` to a `shotgun-coord`")
    out.append("with `shotgun-serve` workers (`src/fleet/README.md`);")
    out.append("fleet results are byte-identical to the in-process")
    out.append("runs this file is generated from.")

    out_path = root / args.out
    out_path.write_text("\n".join(out) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)


if __name__ == "__main__":
    main()
