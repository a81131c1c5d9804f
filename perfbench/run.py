#!/usr/bin/env python3
"""The repository benchmark: cold, cross-checked runs of the simulator.

Run from the root of a checkout:

  python3 perfbench/run.py --workload point-cold --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (README.md here says why each exists):

  point-cold     one cold runSimulation per scheme (baseline, shotgun)
  fig7-grid      the paper's 6 presets x 6 schemes on 4 runner threads
  fleet-windows  a mixed window job on shotgun-coord + 2 worker daemons

The first run builds the library and the benchmark with CMake into
.bench_build (or $CARGO_TARGET_DIR). Every timed sample is a fresh
process. The run repeats samples for --seconds, checks every output
(cold-run guards and cross-checks) and prints a report, then one JSON
line: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. It exits 1 when a check fails.
"""

import argparse
import json
import math
import os
import pathlib
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
OUT = ROOT / ".bench_out"

WORKLOADS = ["point-cold", "fig7-grid", "fleet-windows"]

END_TO_END = {
    "sim_mips": "Minstr/s",
    "sim_mips.baseline": "Minstr/s",
    "sim_mips.shotgun": "Minstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "table1_btb_mpki_err": "ratio",
    "fig7_speedup_err": "ratio",
}

STALLS = ["active", "icache", "btb", "redirect", "ftq_empty", "backend",
          "pf_wait"]
# Uarch breakdown field behind each stall share.
STALL_FIELDS = {
    "active": "active_cycles", "icache": "stall_icache_miss",
    "btb": "stall_btb_miss", "redirect": "stall_redirect",
    "ftq_empty": "stall_ftq_empty",
    "backend": "stall_backend_pressure",
    "pf_wait": "stall_prefetch_in_flight",
}

PER_LAYER = {
    "trace.program_build_ms": "ms",
    "trace.record_ms": "ms",
    "trace.index_ms": "ms",
    "trace.decode_ms": "ms",
    "trace.decoded_mb": "MB",
    "trace.skip_ms": "ms",
    "trace.gen_ns_per_block": "ns",
    "trace.cursor_ns_per_block": "ns",
    "branch.tage_ns_per_branch": "ns",
    "btb.conv_lookup_ns": "ns",
    "btb.prefetch_buffer_insert_ns": "ns",
    "core.shotgun_btb_lookup_ns": "ns",
    "core.cbtb_prefill_ns": "ns",
    "core.rib_lookup_ns": "ns",
    "core.footprint_retire_ns": "ns",
    "cache.access_ns": "ns",
    "cache.mshr_ns": "ns",
    "cpu.host_ns_per_cycle.baseline": "ns",
    "cpu.host_ns_per_cycle.shotgun": "ns",
    "cpu.clone_ms": "ms",
    "cpu.state_mb": "MB",
    "sim.phase.decode_ms": "ms",
    "sim.phase.warmup_ms": "ms",
    "sim.phase.restore_ms": "ms",
    "sim.phase.measure_ms": "ms",
    "sim.checkpoint.hits": "count",
    "sim.checkpoint.misses": "count",
}
for _scheme in ("baseline", "shotgun"):
    PER_LAYER[f"sim.{_scheme}.ipc"] = "instr/cycle"
    PER_LAYER[f"sim.{_scheme}.btb_mpki"] = "miss/ki"
    PER_LAYER[f"sim.{_scheme}.l1i_mpki"] = "miss/ki"
    PER_LAYER[f"sim.{_scheme}.prefetches_pki"] = "pf/ki"
    for _stall in STALLS:
        PER_LAYER[f"sim.{_scheme}.stall.{_stall}"] = "share"
PER_LAYER.update({
    "runner.efficiency": "ratio",
    "runner.tail_s": "s",
    "window.stitch_us": "us",
    "service.codec_encode_us": "us",
    "service.codec_decode_us": "us",
    "service.rtt_ms": "ms",
    "fleet.overhead_ms_per_point": "ms",
    "fleet.cache_hits": "count",
    "obs.trace_overhead": "ratio",
    "obs.probe_overhead": "ratio",
})

GRID_PRESETS = ["nutch", "streaming", "apache", "zeus", "oracle", "db2"]

# Run lengths. The grid runs at EXPERIMENTS.md's lengths so its output
# can be checked against that file; the point runs a long measure
# region so nearly all its host time is the hot simulation loop.
FULL = {
    "point_preset": "oracle", "point_warmup": 2_000_000,
    "point_measure": 10_000_000, "grid_presets": GRID_PRESETS,
    "grid_warmup": 2_000_000, "grid_measure": 5_000_000,
    "micro_blocks": 1_000_000,
}
# --tiny: the self-test's sizes (exercises every path, checks nothing
# against EXPERIMENTS.md because the lengths differ).
TINY = {
    "point_preset": "oracle", "point_warmup": 100_000,
    "point_measure": 400_000, "grid_presets": ["nutch", "oracle"],
    "grid_warmup": 100_000, "grid_measure": 200_000,
    "micro_blocks": 50_000,
}
GRID_JOBS = 4
RUN_DEADLINE_S = 140         # start no timed sample after this


class SampleError(Exception):
    """A shotbench process crashed, timed out or printed no result."""


def median(values):
    return statistics.median(values) if values else 0.0


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def load_reference():
    with open(HERE / "reference.json") as f:
        ref = json.load(f)
    return (ref["table1_btb_mpki"]["values"],
            ref["fig7_shotgun_speedup"]["value"])


PAPER_TABLE1, PAPER_FIG7 = load_reference()


def table1_err(btb_mpki_by_preset):
    """Mean |measured - paper| / paper BTB MPKI over the presets."""
    return statistics.mean(
        abs(v - PAPER_TABLE1[p]) / PAPER_TABLE1[p]
        for p, v in btb_mpki_by_preset.items())


def fig7_err(speedups):
    """|geomean Shotgun speedup - paper| / paper."""
    return abs(geomean(speedups) - PAPER_FIG7) / PAPER_FIG7


def parse_experiments():
    """EXPERIMENTS.md's run lengths, Table 1 and Fig 7 cells, as text."""
    path = ROOT / "EXPERIMENTS.md"
    if not path.is_file():
        return None
    text = path.read_text()
    lengths = re.search(r"Run lengths: (\d+) warm-up \+ (\d+) measured",
                        text)
    table1, fig7 = {}, {}
    section = None
    for line in text.splitlines():
        if line.startswith("## "):
            section = ("table1" if "Table 1" in line else
                       "fig7" if "Figure 7" in line else None)
            continue
        cells = [c.strip().strip("*") for c in line.strip("|").split("|")]
        if section is None or not line.startswith("|") or len(cells) < 4:
            continue
        if section == "table1" and cells[0] in GRID_PRESETS:
            table1[cells[0]] = {"btb_mpki": cells[1], "l1i_mpki": cells[3]}
        if section == "fig7" and (cells[0] in GRID_PRESETS or
                                  cells[0] == "geomean"):
            fig7[cells[0]] = dict(zip(["confluence", "boomerang",
                                       "shotgun"], cells[1:4]))
    return {"lengths": (int(lengths.group(1)), int(lengths.group(2)))
            if lengths else None, "table1": table1, "fig7": fig7}


class Run:
    """One benchmark invocation: samples, checks and metrics."""

    def __init__(self, args, size, bin_dir):
        self.args = args
        self.size = size
        self.bin_dir = bin_dir
        self.seed = args.seed
        self.out = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.started = time.monotonic()

    # ------------------------------------------------------ plumbing
    def points(self, total, failed_keys=(), problems=()):
        """Account `total` attempted points, `failed_keys` failed."""
        self.attempted += total
        self.failed += len(set(failed_keys))
        self.problems.extend(problems)

    def shotbench(self, mode, *args, spans=None, timeout=120):
        cmd = [str(self.bin_dir / "shotbench"), mode] + [str(a) for a in args]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        # Its own process group, so a timeout also stops the daemons a
        # fleet sample started.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SampleError(f"shotbench {mode} timed out after {timeout}s")
        finally:
            stop_group(proc.pid)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SampleError(f"shotbench {mode} exited {proc.returncode}: "
                              f"{err.strip()[-400:]}")
        try:
            return json.loads(lines[-1])
        except ValueError:
            raise SampleError(f"shotbench {mode} printed no JSON result")

    def timed_loop(self, sample, traced_too):
        """Run `sample(index, traced)` for --seconds; at least once
        (once traced and once untraced with traced_too)."""
        samples = []
        index = 0
        while True:
            traced = traced_too and index % 2 == 1
            try:
                samples.append((traced, sample(index, traced)))
            except SampleError as e:
                self.points(1, ["sample"], [str(e)])
                break
            index += 1
            elapsed = time.monotonic() - self.started
            need_traced = traced_too and index < 2
            if elapsed > RUN_DEADLINE_S:
                break
            if elapsed >= self.args.seconds and not need_traced:
                break
        return samples

    def spans_file(self, tag, index, traced):
        return self.out / f"spans-{tag}-{index}.json" if traced else None

    # ---------------------------------------------------- point-cold
    def point_args(self, scheme, warmup, measure):
        return ["--preset", self.size["point_preset"], "--scheme", scheme,
                "--warmup", warmup, "--measure", measure]

    def point_sample(self, index, traced):
        # Alternate which scheme goes first, so neither always runs on
        # a machine the other just warmed.
        order = ["baseline", "shotgun"]
        if (self.seed + index) % 2:
            order.reverse()
        pair = {}
        for scheme in order:
            pair[scheme] = self.shotbench(
                "point", *self.point_args(scheme, self.size["point_warmup"],
                                          self.size["point_measure"]),
                spans=self.spans_file(f"point-{scheme}", index, traced),
                timeout=120)
        failed = []
        for scheme, p in pair.items():
            # Cold-run guard: one warm-up captured, nothing restored,
            # exactly one simulation (no memo served it).
            if (p["checkpoint"]["hits"] != 0 or
                    p["checkpoint"]["misses"] != 1 or p["sim_points"] != 1):
                failed.append(scheme)
                self.problems.append(f"cold-run guard: point {scheme} saw "
                                     f"{p['checkpoint']} with "
                                     f"{p['sim_points']} simulations")
        self.points(2, failed)
        return pair

    def point_cross_check(self):
        """The same two points, at the grid's lengths, through the
        single-threaded path and through the runner: bit-identical, and
        equal to EXPERIMENTS.md at its printed precision."""
        w, m = self.size["grid_warmup"], self.size["grid_measure"]
        preset = self.size["point_preset"]
        grid = self.shotbench("grid", "--presets", preset, "--schemes",
                              "baseline,shotgun", "--jobs", 2,
                              "--warmup", w, "--measure", m,
                              "--order-seed", self.seed, timeout=120)
        by_scheme = {p["scheme"]: p for p in grid["points"]}
        failed, problems = [], []
        for scheme in ("baseline", "shotgun"):
            point = self.shotbench("point", *self.point_args(scheme, w, m),
                                   timeout=120)
            if point["fingerprint"] != by_scheme[scheme]["fingerprint"]:
                failed.append(scheme)
                problems.append(f"point {scheme} differs from the grid's")
        bad = self.experiments_mismatches(grid["points"])
        problems += bad
        failed += [b.split(":")[0] for b in bad]
        self.points(4, failed, problems)

    def point_metrics(self, pair):
        b, s = pair["baseline"], pair["shotgun"]
        rb, rs = b["result"], s["result"]
        preset = self.size["point_preset"]
        return {
            "sim_mips": (b["instructions"] + s["instructions"]) /
                        (b["wall_s"] + s["wall_s"]) / 1e6,
            "sim_mips.baseline": b["instructions"] / b["wall_s"] / 1e6,
            "sim_mips.shotgun": s["instructions"] / s["wall_s"] / 1e6,
            "peak_rss_mb": max(b["rss_mb"], s["rss_mb"]),
            "table1_btb_mpki_err": table1_err({preset: rb["btb_mpki"]}),
            "fig7_speedup_err": fig7_err([rs["ipc"] / rb["ipc"]]),
        }

    def point_layers(self, pair):
        procs = list(pair.values())
        out = {
            "trace.program_build_ms":
                median([p["program_build_s"] for p in procs]) * 1e3,
            "runner.efficiency": 1.0,
            "runner.tail_s": 0.0,
            "sim.checkpoint.hits": sum(p["checkpoint"]["hits"]
                                       for p in procs),
            "sim.checkpoint.misses": sum(p["checkpoint"]["misses"]
                                         for p in procs),
            "service.codec_encode_us":
                median([p["codec"]["encode_us"] for p in procs]),
            "service.codec_decode_us":
                median([p["codec"]["decode_us"] for p in procs]),
        }
        for phase in ("decode", "warmup", "restore", "measure"):
            out[f"sim.phase.{phase}_ms"] = sum(
                p["phase_us"][phase] for p in procs) / 1e3
        for scheme, p in pair.items():
            out[f"cpu.host_ns_per_cycle.{scheme}"] = (
                p["phase_us"]["measure"] * 1e3 / p["result"]["cycles"])
        return out

    def point_probe_pass(self, untraced):
        """Probed re-runs of both points: model counts and overhead."""
        probed = {s: self.shotbench(
            "point", *self.point_args(s, self.size["point_warmup"],
                                      self.size["point_measure"]),
            "--probes", timeout=120) for s in ("baseline", "shotgun")}
        self.points(2)
        plain = sum(median([pair[s]["wall_s"] for pair in untraced])
                    for s in ("baseline", "shotgun"))
        overhead = sum(p["wall_s"] for p in probed.values()) / plain - 1
        return model_counts({s: [p["result"]] for s, p in probed.items()}), \
            overhead

    # ----------------------------------------------------- fig7-grid
    def grid_sample(self, index, traced):
        g = self.shotbench(
            "grid", "--presets", ",".join(self.size["grid_presets"]),
            "--jobs", GRID_JOBS, "--warmup", self.size["grid_warmup"],
            "--measure", self.size["grid_measure"],
            "--order-seed", self.seed * 1000 + index,
            spans=self.spans_file("grid", index, traced), timeout=150)
        n = len(g["points"])
        failed = []
        # Cold-run guard: every point simulated (the baseline memo
        # served none) and warmed up itself (no checkpoint restored).
        if (g["checkpoint"]["hits"] != 0 or g["checkpoint"]["misses"] != n
                or g["sim_points"] != n):
            failed = [p["workload"] + "/" + p["scheme"] for p in g["points"]]
            self.problems.append(f"cold-run guard: grid saw {g['checkpoint']}"
                                 f" with {g['sim_points']} simulations for "
                                 f"{n} points")
        bad = self.experiments_mismatches(g["points"])
        self.problems.extend(bad)
        failed += [b.split(":")[0] for b in bad]
        self.points(n, failed)
        return g

    def experiments_mismatches(self, points):
        """Grid points whose values differ from EXPERIMENTS.md at its
        printed precision (no check when the run lengths differ)."""
        exp = parse_experiments()
        lengths = (self.size["grid_warmup"], self.size["grid_measure"])
        if exp is None or exp["lengths"] != lengths:
            return []
        res = {(p["workload"], p["scheme"]): p["result"] for p in points}
        bad = []
        speedups = {s: [] for s in ("confluence", "boomerang", "shotgun")}
        for preset in GRID_PRESETS:
            base = res.get((preset, "baseline"))
            if base is None:
                continue
            row = exp["table1"].get(preset, {})
            for field in ("btb_mpki", "l1i_mpki"):
                if f"{base[field]:.1f}" != row.get(field):
                    bad.append(f"{preset}/baseline: {field} "
                               f"{base[field]:.1f} != EXPERIMENTS.md "
                               f"{row.get(field)}")
            for scheme in speedups:
                r = res.get((preset, scheme))
                if r is None:
                    continue
                sp = r["ipc"] / base["ipc"]
                speedups[scheme].append(sp)
                want = exp["fig7"].get(preset, {}).get(scheme)
                if f"{sp:.3f}" != want:
                    bad.append(f"{preset}/{scheme}: speedup {sp:.3f} != "
                               f"EXPERIMENTS.md {want}")
        for scheme, values in speedups.items():
            if len(values) == len(GRID_PRESETS):
                want = exp["fig7"].get("geomean", {}).get(scheme)
                if f"{geomean(values):.3f}" != want:
                    bad.append(f"geomean/{scheme}: {geomean(values):.3f} != "
                               f"EXPERIMENTS.md {want}")
        return bad

    def grid_metrics(self, g):
        pts = g["points"]
        res = {(p["workload"], p["scheme"]): p["result"] for p in pts}
        presets = sorted({p["workload"] for p in pts})
        out = {
            "sim_mips": sum(p["instructions"] for p in pts) / g["wall_s"]
                        / 1e6,
            "peak_rss_mb": g["rss_mb"],
            "table1_btb_mpki_err": table1_err(
                {w: res[(w, "baseline")]["btb_mpki"] for w in presets}),
            "fig7_speedup_err": fig7_err(
                [res[(w, "shotgun")]["ipc"] / res[(w, "baseline")]["ipc"]
                 for w in presets]),
        }
        for scheme in ("baseline", "shotgun"):
            mine = [p for p in pts if p["scheme"] == scheme]
            out[f"sim_mips.{scheme}"] = (
                sum(p["instructions"] for p in mine) /
                sum(p["end_s"] - p["start_s"] for p in mine) / 1e6)
        return out

    def grid_layers(self, g):
        pts = g["points"]
        busy = sum(p["end_s"] - p["start_s"] for p in pts)
        lane_end = {}
        for p in pts:
            lane_end[p["lane"]] = max(lane_end.get(p["lane"], 0), p["end_s"])
        out = {
            "trace.program_build_ms": g["program_build_s"] * 1e3,
            "runner.efficiency": busy / (g["jobs"] * g["wall_s"]),
            "runner.tail_s": max(lane_end.values()) - min(lane_end.values()),
            "sim.checkpoint.hits": g["checkpoint"]["hits"],
            "sim.checkpoint.misses": g["checkpoint"]["misses"],
            "service.codec_encode_us": g["codec"]["encode_us"],
            "service.codec_decode_us": g["codec"]["decode_us"],
        }
        for phase in ("decode", "warmup", "restore", "measure"):
            out[f"sim.phase.{phase}_ms"] = g["phase_us"][phase] / 1e3
        for scheme in ("baseline", "shotgun"):
            mine = [p for p in pts if p["scheme"] == scheme]
            out[f"cpu.host_ns_per_cycle.{scheme}"] = (
                sum(p["phase_us"]["measure"] for p in mine) * 1e3 /
                sum(p["result"]["cycles"] for p in mine))
        return out

    def grid_probe_pass(self):
        """Baseline and Shotgun over every preset, probed and plain."""
        walls, results = {}, {}
        for probes in (False, True):
            extra = ["--probes"] if probes else []
            g = self.shotbench(
                "grid", "--presets", ",".join(self.size["grid_presets"]),
                "--schemes", "baseline,shotgun", "--jobs", GRID_JOBS,
                "--warmup", self.size["grid_warmup"],
                "--measure", self.size["grid_measure"],
                "--order-seed", self.seed, *extra, timeout=150)
            self.points(len(g["points"]))
            walls[probes] = g["wall_s"]
            results[probes] = g["points"]
        by_scheme = {s: [p["result"] for p in results[True]
                         if p["scheme"] == s] for s in ("baseline", "shotgun")}
        return model_counts(by_scheme), walls[True] / walls[False] - 1

    # ------------------------------------------------- fleet-windows
    def fleet_sample(self, index, traced):
        d = self.out / f"fleet-{index}"
        d.mkdir(parents=True, exist_ok=True)
        f = self.shotbench(
            "fleet", "--dir", d.relative_to(ROOT),
            "--bin-dir", self.bin_dir / "shotgun",
            "--order-seed", self.seed * 1000 + index,
            spans=self.spans_file("fleet", index, traced), timeout=150)
        pts = f["points"]
        failed, problems = [], []
        key = lambda p: f"{p['scheme']}#{p['window']}" + \
            ("c" if p["contiguous"] else "s")
        # Cold-run guard: no result cache served a point; checkpoint
        # hits only where the design predicts them -- contiguous
        # windows share one warm key, restored by all but the first
        # window on each slot.
        hits = sum(w["checkpoint_hits"] for w in f["workers"])
        misses = sum(w["checkpoint_misses"] for w in f["workers"])
        result_hits = f["coord_cache_hits"] + sum(w["cache_hits"]
                                                  for w in f["workers"])
        if result_hits != 0 or any(p["cached"] for p in pts):
            failed += [key(p) for p in pts]
            problems.append(f"cold-run guard: {result_hits} result-cache "
                            "hits on fleet-windows")
        lo = f["contiguous_windows"] - f["slots"]
        hi = f["contiguous_windows"] - 1
        if not lo <= hits <= hi or hits + misses != len(pts):
            failed += [key(p) for p in pts if p["contiguous"]]
            problems.append(f"cold-run guard: {hits} checkpoint hits and "
                            f"{misses} misses for {len(pts)} windows")
        if not f["daemons_ok"]:
            failed += [key(p) for p in pts]
            problems.append("a fleet daemon failed or had to be killed")
        for p in pts:
            if not (p["has_timing"] and p["has_delta"]):
                failed.append(key(p))
                problems.append(f"window {key(p)} came back without "
                                "timing or delta")
        for c in f["checks"]:
            if not c["ok"]:
                failed.append(c["check"])
                problems.append("cross-check failed: " + c["check"])
        self.points(len(pts) + sum(c["points"] for c in f["checks"]),
                    failed, problems)
        self.fleet_sample_out = f
        # Keep only the newest sample's trace: the traced run's probe
        # and micro passes replay it.
        for old in self.out.glob("fleet-*"):
            if old != d:
                shutil.rmtree(old, ignore_errors=True)
        return f

    def fleet_metrics(self, f):
        pts = f["points"]
        samp = f["sampled_stitched"]
        out = {
            "sim_mips": sum(p["instructions"] for p in pts) / f["wall_s"]
                        / 1e6,
            "peak_rss_mb": f["rss_mb"],
            "table1_btb_mpki_err": table1_err(
                {f["preset"]: samp["baseline"]["btb_mpki"]}),
            "fig7_speedup_err": fig7_err(
                [samp["shotgun"]["ipc"] / samp["baseline"]["ipc"]]),
        }
        for scheme in ("baseline", "shotgun"):
            mine = [p for p in pts if p["scheme"] == scheme]
            out[f"sim_mips.{scheme}"] = (
                sum(p["instructions"] for p in mine) /
                sum(point_us(p) for p in mine))
        return out

    def fleet_layers(self, f):
        pts = f["points"]
        worker_us = sum(point_us(p) for p in pts)
        out = {
            "trace.program_build_ms": f["program_build_s"] * 1e3,
            "trace.record_ms": f["record_s"] * 1e3,
            "trace.index_ms": f["index_s"] * 1e3,
            "trace.decoded_mb": sum(w["trace_bytes"]
                                    for w in f["workers"]) / 1e6,
            "runner.efficiency": worker_us / 1e6 /
                                 (f["slots"] * f["wall_s"]),
            "runner.tail_s": f["tail_s"],
            "sim.checkpoint.hits": sum(w["checkpoint_hits"]
                                       for w in f["workers"]),
            "sim.checkpoint.misses": sum(w["checkpoint_misses"]
                                         for w in f["workers"]),
            "window.stitch_us": f["stitch_us"],
            "service.codec_encode_us": f["codec"]["encode_us"],
            "service.codec_decode_us": f["codec"]["decode_us"],
            "service.rtt_ms": f["rtt_ms"],
            "fleet.overhead_ms_per_point":
                (f["slots"] * f["wall_s"] * 1e6 - worker_us) / 1e3 /
                len(pts),
            "fleet.cache_hits": f["coord_cache_hits"] +
                                sum(w["cache_hits"] for w in f["workers"]),
        }
        for phase in ("decode", "warmup", "restore", "measure"):
            out[f"sim.phase.{phase}_ms"] = sum(
                p["phase_us"][phase] for p in pts) / 1e3
        for scheme in ("baseline", "shotgun"):
            # Sampled windows only: a contiguous window's measure phase
            # also runs its fast-forward, whose cycles it does not count.
            mine = [p for p in pts if p["scheme"] == scheme and
                    not p["contiguous"]]
            out[f"cpu.host_ns_per_cycle.{scheme}"] = (
                sum(p["phase_us"]["measure"] for p in mine) * 1e3 /
                sum(p["cycles"] for p in mine))
        return out

    def fleet_probe_pass(self):
        """The contiguous plan's monolithic run, per scheme, replayed
        in-process from the recorded trace, probed and plain."""
        f = self.fleet_sample_out
        walls, results = {False: 0.0, True: 0.0}, {}
        for probes in (False, True):
            for scheme in ("baseline", "shotgun"):
                extra = ["--probes"] if probes else []
                p = self.shotbench(
                    "point", "--preset", "trace:" + f["trace_path"],
                    "--scheme", scheme, "--warmup", f["contiguous_warmup"],
                    "--measure", f["contiguous_measure"], *extra,
                    timeout=120)
                self.points(1)
                walls[probes] += p["wall_s"]
                if probes:
                    results[scheme] = [p["result"]]
        return model_counts(results), walls[True] / walls[False] - 1

    # ------------------------------------------------------ the run
    def execute(self):
        """Returns the metrics dict for this run's mode."""
        self.out.mkdir(parents=True, exist_ok=True)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
            if OUT.is_dir() and not any(OUT.iterdir()):
                OUT.rmdir()

    def _execute(self):
        traced_mode = self.args.trace == 1
        kind = {"point-cold": "point", "fig7-grid": "grid",
                "fleet-windows": "fleet"}[self.args.workload]
        sample = getattr(self, f"{kind}_sample")
        samples = self.timed_loop(sample, traced_mode)
        if not samples:
            return {}
        self.check_repeats(kind, [s for _, s in samples])
        if kind == "point":
            try:
                self.point_cross_check()
            except SampleError as e:
                self.points(4, ["cross-check"], [str(e)])
        untraced = [s for t, s in samples if not t]
        traced = [s for t, s in samples if t]
        if not traced_mode:
            per = [getattr(self, f"{kind}_metrics")(s) for s in untraced]
            metrics = {m: median([p[m] for p in per]) for m in per[0]}
            metrics["setup_s"] = median(setup_times(kind, untraced))
            self.report_e2e(metrics, len(untraced))
            return metrics
        return self.per_layer(kind, untraced, traced)

    def per_layer(self, kind, untraced, traced):
        if not traced or not untraced:
            return {}
        per = [getattr(self, f"{kind}_layers")(s) for s in traced]
        for p in per:
            p["trace.decode_ms"] = p["sim.phase.decode_ms"]
        metrics = {name: 0.0 for name in PER_LAYER}
        for name in per[0]:
            metrics[name] = median([p[name] for p in per])
        wall = (lambda s: sum(p["wall_s"] for p in s.values())) \
            if kind == "point" else (lambda s: s["wall_s"])
        metrics["obs.trace_overhead"] = (
            median([wall(s) for s in traced]) /
            median([wall(s) for s in untraced]) - 1)
        # The micro pass replays the point preset's block stream, or
        # the fleet's recorded trace.
        micro_args = ["--preset", self.size["point_preset"]]
        try:
            if kind == "point":
                counts, overhead = self.point_probe_pass(untraced)
            elif kind == "grid":
                counts, overhead = self.grid_probe_pass()
            else:
                counts, overhead = self.fleet_probe_pass()
                f = self.fleet_sample_out
                micro_args = ["--preset", f["preset"], "--trace",
                              f["trace_path"]]
            micro = self.shotbench("micro", *micro_args, "--blocks",
                                   self.size["micro_blocks"])
        except SampleError as e:
            self.points(1, ["probe/micro"], [str(e)])
            return metrics
        metrics.update(counts)
        metrics["obs.probe_overhead"] = overhead
        for name, value in micro.items():
            if name in PER_LAYER:
                metrics[name] = value
        self.report_layers(metrics, len(traced), kind)
        return metrics

    def check_repeats(self, kind, samples):
        """Deterministic outputs must repeat exactly in every sample,
        traced or not."""
        def prints(s):
            if kind == "point":
                return {k: p["fingerprint"] for k, p in s.items()}
            if kind == "grid":
                return {(p["workload"], p["scheme"]): p["fingerprint"]
                        for p in s["points"]}
            return {(p["scheme"], p["window"], p["contiguous"]):
                    p["fingerprint"] for p in s["points"]}
        first = prints(samples[0])
        for s in samples[1:]:
            mine = prints(s)
            bad = [k for k in first if mine.get(k) != first[k]]
            self.points(0, [f"repeat:{k}" for k in bad],
                        [f"deterministic output changed between samples: "
                         f"{k}" for k in bad])

    # ---------------------------------------------------- reporting
    def report_e2e(self, metrics, n):
        print(f"{self.args.workload}: end-to-end, median of {n} "
              f"fresh-process samples (seed {self.seed})")
        for name, unit in END_TO_END.items():
            print(f"  {name:<24} {metrics[name]:>14.6g} {unit:<9} n={n}")
        print(f"  {'fail_ratio':<24} {self.fail_ratio():>14.6g} "
              f"{'ratio':<9} n={self.attempted}")

    def report_layers(self, metrics, n, kind):
        print(f"{self.args.workload}: per layer, median of {n} traced "
              f"samples (seed {self.seed})")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
        selfs = self_times(self.out, kind)
        if selfs:
            print(f"{self.args.workload}: span self time, ms, median over "
                  "traced samples")
            for name, ms in sorted(selfs.items(), key=lambda kv: -kv[1]):
                print(f"  {name:<34} {ms:>14.6g}")
        print(f"  {'fail_ratio':<34} {self.fail_ratio():>14.6g} "
              f"(n={self.attempted})")

    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0


def stop_group(pgid):
    """Kill whatever is left of a process group and wait until it is
    gone (a daemon orphaned by a failed sample included)."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def point_us(p):
    """A fleet window's worker time, from its result frame's phases."""
    return sum(p["phase_us"][k] for k in ("decode", "warmup", "restore",
                                          "measure"))


def setup_times(kind, samples):
    if kind == "point":
        return [p["setup_s"] for s in samples for p in s.values()]
    return [s["setup_s"] for s in samples]


def model_counts(results_by_scheme):
    """Deterministic model counts from probed results, averaged over
    the points of each scheme."""
    out = {}
    for scheme, results in results_by_scheme.items():
        def mean(f):
            return statistics.mean(f(r) for r in results)
        out[f"sim.{scheme}.ipc"] = mean(lambda r: r["ipc"])
        out[f"sim.{scheme}.btb_mpki"] = mean(lambda r: r["btb_mpki"])
        out[f"sim.{scheme}.l1i_mpki"] = mean(lambda r: r["l1i_mpki"])
        out[f"sim.{scheme}.prefetches_pki"] = mean(
            lambda r: r["prefetches_issued"] * 1e3 / r["instructions"])
        for stall, field in STALL_FIELDS.items():
            out[f"sim.{scheme}.stall.{stall}"] = mean(
                lambda r: r["uarch"][field] / r["cycles"])
    return out


def self_times(out_dir, kind):
    """Median over traced samples of each span name's self time: its
    duration minus the part of it its children cover."""
    per_sample = {}
    for path in sorted(out_dir.glob("spans-*.json")):
        sample = path.stem.rsplit("-", 1)[-1]
        spans = json.loads(path.read_text())
        children = {}
        for s in spans:
            children.setdefault(s["parent"], []).append(s)
        totals = per_sample.setdefault(sample, {})
        for s in spans:
            start, end = s["start_us"], s["end_us"]
            covered, cursor = 0.0, start
            for c in sorted(children.get(s["id"], []),
                            key=lambda c: c["start_us"]):
                lo, hi = max(c["start_us"], cursor), min(c["end_us"], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            name = s["name"].split(":")[0]
            totals[name] = totals.get(name, 0.0) + \
                (end - start - covered) / 1e3
    names = {n for t in per_sample.values() for n in t}
    return {n: median([t.get(n, 0.0) for t in per_sample.values()])
            for n in names}


def build():
    """Configure once, then (re)build the benchmark and the daemons."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no simulator sources here; run from the "
                 "root of a checkout (CMakeLists.txt and src/)")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "shotbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (see selftest.py)")
    args = parser.parse_args()
    # On SIGTERM unwind like SIGINT, so the running sample's process
    # group (daemons included) is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bin_dir = build()
    size = TINY if args.tiny else FULL

    names = WORKLOADS if args.workload == "all" else [args.workload]
    metrics, attempted, failed, problems = {}, 0, 0, []
    wanted = PER_LAYER if args.trace else END_TO_END
    for workload in names:
        run_args = argparse.Namespace(**{**vars(args), "workload": workload})
        run = Run(run_args, size, bin_dir)
        values = run.execute()
        attempted += run.attempted
        failed += run.failed
        problems += [f"{workload}: {p}" for p in run.problems]
        missing = [m for m in wanted if m not in values]
        if missing:
            failed += 1
            attempted += 1
            problems.append(f"{workload}: no value for {missing}")
        prefix = "" if len(names) == 1 else workload + ":"
        for name, unit in wanted.items():
            if name in values:
                metrics[prefix + name] = {"value": values[name],
                                          "unit": unit}
    for p in problems:
        print("CHECK FAILED: " + p)
    result = {"correct": failed == 0, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
