#!/usr/bin/env bash
# Smoke test: configure, build, run the unit/integration test suite,
# exercise the parallel experiment runner end-to-end with one quick
# bench sweep that must emit JSON/CSV results, record a trace and
# verify replaying it (standalone and through a bench grid) works,
# then start a fleet (shotgun-coord plus shotgun-serve workers) on
# Unix sockets, submit grids through the coordinator, and assert the
# results are byte-identical to the same grids run in-process.
#
# Usage: scripts/smoke.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== shotgun-lint: tree green, mutated clone ctor fails =="
# The tree must be lint-clean, and the linter must demonstrably
# still have teeth: in a scratch copy, delete one member-copy line
# from Core's clone constructor and assert shotgun-lint fails with a
# clone-completeness finding (the exact silent-restore-divergence
# bug the check exists to catch).
python3 tools/lint/shotgun_lint.py --root .

LINT_SCRATCH="$BUILD_DIR/smoke/lint_mutation"
rm -rf "$LINT_SCRATCH"
mkdir -p "$LINT_SCRATCH/tools"
cp -r src "$LINT_SCRATCH/src"
cp -r tools/lint "$LINT_SCRATCH/tools/lint"
grep -q 'stalls_(other.stalls_), btbMisses_(other.btbMisses_),' \
    "$LINT_SCRATCH/src/cpu/core.cc" || {
    echo "clone-ctor line to mutate not found in core.cc" >&2
    exit 1
}
sed -i '/stalls_(other.stalls_), btbMisses_(other.btbMisses_),/d' \
    "$LINT_SCRATCH/src/cpu/core.cc"
LINT_RC=0
python3 tools/lint/shotgun_lint.py --root "$LINT_SCRATCH" \
    > "$LINT_SCRATCH/findings.txt" 2> /dev/null || LINT_RC=$?
test "$LINT_RC" -eq 1 || {
    echo "shotgun-lint exited $LINT_RC on the mutated tree" \
         "(expected 1)" >&2
    exit 1
}
grep -q "clone-completeness.*'stalls_' of Core" \
    "$LINT_SCRATCH/findings.txt"
rm -rf "$LINT_SCRATCH"

echo "== bench smoke (fig7, --quick --jobs 2) =="
OUT="$BUILD_DIR/smoke/fig7_speedup"
"$BUILD_DIR/bench_fig7_speedup" --quick --jobs 2 --workload nutch \
    --no-progress --out "$OUT"

for ext in json csv; do
    test -s "$OUT.$ext" || {
        echo "missing result file $OUT.$ext" >&2
        exit 1
    }
done
grep -q '"experiment": "fig7_speedup"' "$OUT.json"
grep -q '"label": "shotgun"' "$OUT.json"

echo "== trace record -> replay -> verify =="
TRACE="$BUILD_DIR/smoke/nutch.trace"
"$BUILD_DIR/shotgun-trace" record nutch "$TRACE" \
    --warmup 100000 --instructions 200000
"$BUILD_DIR/shotgun-trace" info "$TRACE" | grep -q "workload.*nutch"
"$BUILD_DIR/shotgun-trace" replay "$TRACE" \
    --warmup 100000 --instructions 200000 --scheme shotgun

# Sweep the recorded trace through a bench grid...
TRACE_OUT="$BUILD_DIR/smoke/fig7_trace"
"$BUILD_DIR/bench_fig7_speedup" --workload "trace:$TRACE" \
    --warmup 100000 --instructions 200000 --jobs 2 --no-progress \
    --out "$TRACE_OUT"
grep -q '"workload": "nutch"' "$TRACE_OUT.json"

# ...and verify replay is bit-identical to live generation
# (trace_tools exits non-zero on divergence).
"$BUILD_DIR/trace_tools" nutch 100000 "$BUILD_DIR/smoke/verify.trace" \
    | grep -q "OK: file replay is bit-identical"

echo "== tool CLI conventions (--help 0 / --version 0 / bad usage 2) =="
for tool in shotgun-trace shotgun-serve shotgun-submit shotgun-coord; do
    "$BUILD_DIR/$tool" --help > /dev/null
    "$BUILD_DIR/$tool" --version | grep -q "^$tool "
    rc=0
    "$BUILD_DIR/$tool" --definitely-not-a-flag > /dev/null 2>&1 || rc=$?
    test "$rc" -eq 2 || {
        echo "$tool: bad usage exited $rc, expected 2" >&2
        exit 1
    }
done

echo "== one job frontend: no grid reaches a worker =="
# A worker needs a coordinator, and a worker's control endpoint takes
# no grid: both are usage errors, caught before any socket is used.
rc=0
"$BUILD_DIR/shotgun-serve" --listen "unix:$BUILD_DIR/smoke/lone.sock" \
    > /dev/null 2>&1 || rc=$?
test "$rc" -eq 2 || {
    echo "shotgun-serve without --coordinator exited $rc, expected 2" >&2
    exit 1
}
rc=0
"$BUILD_DIR/shotgun-submit" --server "unix:$BUILD_DIR/smoke/lone.sock" \
    --workload nutch --schemes shotgun > /dev/null 2>&1 || rc=$?
test "$rc" -eq 2 || {
    echo "shotgun-submit --server with a grid exited $rc, expected 2" >&2
    exit 1
}
# --jobs is the in-process thread count; the submit frame carries none.
rc=0
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$BUILD_DIR/smoke/lone.sock" \
    --workload nutch --jobs 2 > /dev/null 2>&1 || rc=$?
test "$rc" -eq 2 || {
    echo "shotgun-submit --coordinator --jobs exited $rc, expected 2" >&2
    exit 1
}

echo "== fleet: coord + one worker -> submit -> verify bitwise vs in-process =="
# Every spawned daemon registers its PID here; the EXIT trap kills
# whatever is still alive, so a failing mid-script step (set -e)
# can never leak a daemon orphan onto the CI machine.
DAEMON_PIDS=()
cleanup_daemons() {
    for pid in "${DAEMON_PIDS[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup_daemons EXIT

wait_socket() { # wait_socket SOCKET
    for _ in $(seq 50); do
        [ -S "$1" ] && return 0
        sleep 0.1
    done
    echo "daemon on $1 did not come up" >&2
    return 1
}

start_coord() { # start_coord SOCKET [extra flags...]
    local sock="$1"
    shift
    "$BUILD_DIR/shotgun-coord" --listen "unix:$sock" --quiet \
        --heartbeat-ms 200 "$@" &
    DAEMON_PIDS+=($!)
    wait_socket "$sock"
}

start_serve() { # start_serve SOCKET COORD_SOCKET [extra flags...]
    local sock="$1" coord="$2"
    shift 2
    "$BUILD_DIR/shotgun-serve" --listen "unix:$sock" \
        --coordinator "unix:$coord" --quiet --heartbeat-ms 200 "$@" &
    DAEMON_PIDS+=($!)
    wait_socket "$sock"
}

stop_fleet() { # stop_fleet COORD_SOCKET WORKER_SOCKET...
    local coord="$1"
    shift
    for sock in "$@"; do
        "$BUILD_DIR/shotgun-submit" --server "unix:$sock" --shutdown
    done
    "$BUILD_DIR/shotgun-submit" --coordinator "unix:$coord" --shutdown
}

COORD_S="$BUILD_DIR/smoke/coord_s.sock"
SOCK="$BUILD_DIR/smoke/serve.sock"
GRID=(--workload nutch --schemes fdip,shotgun
      --warmup 100000 --instructions 200000 --no-progress)

start_coord "$COORD_S"
start_serve "$SOCK" "$COORD_S" --name smoke-s
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK" --ping
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_S" --ping

# The same grid through the fleet, again through the fleet (the
# repeat is answered from the coordinator's result cache), and fully
# in-process (--local): all three must produce byte-identical
# JSON/CSV.
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_S" "${GRID[@]}" \
    --out "$BUILD_DIR/smoke/svc_remote" > /dev/null
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_S" "${GRID[@]}" \
    --out "$BUILD_DIR/smoke/svc_cached" > /dev/null
"$BUILD_DIR/shotgun-submit" --local "${GRID[@]}" \
    --out "$BUILD_DIR/smoke/svc_local" > /dev/null
for ext in json csv; do
    cmp "$BUILD_DIR/smoke/svc_remote.$ext" \
        "$BUILD_DIR/smoke/svc_local.$ext"
    cmp "$BUILD_DIR/smoke/svc_cached.$ext" \
        "$BUILD_DIR/smoke/svc_local.$ext"
done

# Two submits of one 3-point grid, but only 3 distinct configs
# simulated: the worker computed each once (its control endpoint's
# status frame shows the cache), and the coordinator answered the
# repeat from its own cache.
STATUS=$("$BUILD_DIR/shotgun-submit" --server "unix:$SOCK" --status)
echo "$STATUS" | grep -q '"cache_entries":3'
echo "$STATUS" | grep -q '"cache":{"entries":3'
echo "$STATUS" | grep -q '"evictions":0'
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_S" --status \
    | grep -q '"cache":{"entries":3,[^}]*"hits":3,"misses":3'

echo "== windowed simulation: record -> index -> windowed submit =="
# One heavy workload split into 3 measurement windows, submitted to
# the coordinator as grid points and stitched back: the result must
# match the monolithic run numerically -- the CSVs (which carry every
# metric) are compared byte for byte. The fleet step below repeats
# this with a worker killed mid-run. The index tool is exercised
# first (build + inspect; full-coverage windows re-simulate their
# prefix for exactness, so the .idx serves the sampled mode).
WTRACE="$BUILD_DIR/smoke/window.trace"
"$BUILD_DIR/shotgun-trace" record nutch "$WTRACE" \
    --warmup 100000 --instructions 200000
"$BUILD_DIR/shotgun-trace" index "$WTRACE" --every 4096
"$BUILD_DIR/shotgun-trace" index "$WTRACE" --show \
    | grep -q "checkpoints"
test -s "$WTRACE.idx" || {
    echo "missing trace window index $WTRACE.idx" >&2
    exit 1
}

WGRID=(--workload "trace:$WTRACE" --schemes shotgun
       --warmup 100000 --instructions 200000 --no-progress)

"$BUILD_DIR/shotgun-submit" --local "${WGRID[@]}" \
    --out "$BUILD_DIR/smoke/win_mono" > /dev/null

"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_S" \
    "${WGRID[@]}" --window-shards 3 \
    --out "$BUILD_DIR/smoke/win_server" > /dev/null
cmp "$BUILD_DIR/smoke/win_server.csv" "$BUILD_DIR/smoke/win_mono.csv"
grep -q '"windows": 3' "$BUILD_DIR/smoke/win_server.json"

# The same windowed grid entirely in-process matches too.
"$BUILD_DIR/shotgun-submit" --local "${WGRID[@]}" --window-shards 3 \
    --out "$BUILD_DIR/smoke/win_local" > /dev/null
cmp "$BUILD_DIR/smoke/win_local.csv" "$BUILD_DIR/smoke/win_mono.csv"

stop_fleet "$COORD_S" "$SOCK"

echo "== fleet: coord + 3 workers, kill one, verify bitwise =="
# The same windowed grid through the coordinator fleet: three
# shotgun-serve workers register with a shotgun-coord daemon and
# steal points from its global queue; one worker is killed mid-run
# and the coordinator must requeue its in-flight points on the
# survivors, with the stitched CSV still matching the monolithic
# local run byte for byte. The coordinator writes every result
# through to an on-disk cache, exercised by the restart step below.
COORD_SOCK="$BUILD_DIR/smoke/coord.sock"
FLEET_CACHE="$BUILD_DIR/smoke/fleet_cache"
rm -rf "$FLEET_CACHE"
start_coord "$COORD_SOCK" --cache-dir "$FLEET_CACHE"

SOCK_F1="$BUILD_DIR/smoke/serve_f1.sock"
SOCK_F2="$BUILD_DIR/smoke/serve_f2.sock"
SOCK_F3="$BUILD_DIR/smoke/serve_f3.sock"
for i in 1 2 3; do
    eval "sock=\$SOCK_F$i"
    start_serve "$sock" "$COORD_SOCK" --name "smoke-w$i" --jobs 1
done
FLEET_VICTIM_PID="${DAEMON_PIDS[-1]}"

# Kill one worker shortly after the windowed submit starts. Whether
# it dies before, during or after its windows were delivered, the
# stitched output must be the same -- that is the recovery contract.
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" \
    "${WGRID[@]}" --window-shards 3 \
    --out "$BUILD_DIR/smoke/fleet_run" > /dev/null &
SUBMIT_PID=$!
sleep 0.3
kill "$FLEET_VICTIM_PID" 2>/dev/null || true
wait "$SUBMIT_PID"
cmp "$BUILD_DIR/smoke/fleet_run.csv" "$BUILD_DIR/smoke/win_mono.csv"
grep -q '"windows": 3' "$BUILD_DIR/smoke/fleet_run.json"

# The metrics frame renders per-worker rows and fleet cache stats.
FLEET_STATUS=$("$BUILD_DIR/shotgun-submit" \
    --coordinator "unix:$COORD_SOCK" --fleet-status)
echo "$FLEET_STATUS" | grep -q "queue depth"
echo "$FLEET_STATUS" | grep -q "coordinator cache:"
echo "$FLEET_STATUS" | grep -q "smoke-w"

echo "== fleet: persistent cache answers across a coord restart =="
# Stop the whole fleet, then restart only the coordinator on the
# same --cache-dir with zero workers: the resubmitted grid must be
# answered entirely from the on-disk result cache, byte-identically.
stop_fleet "$COORD_SOCK" "$SOCK_F1" "$SOCK_F2"
sleep 0.3

"$BUILD_DIR/shotgun-coord" --listen "unix:$COORD_SOCK" --quiet \
    --heartbeat-ms 200 --cache-dir "$FLEET_CACHE" &
DAEMON_PIDS+=($!)
for _ in $(seq 50); do
    "$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" \
        --ping > /dev/null 2>&1 && break
    sleep 0.1
done
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" \
    "${WGRID[@]}" --window-shards 3 \
    --out "$BUILD_DIR/smoke/fleet_cached" > /dev/null
cmp "$BUILD_DIR/smoke/fleet_cached.csv" "$BUILD_DIR/smoke/win_mono.csv"
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" \
    --fleet-status | grep -q "(no workers registered)"
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" --shutdown

echo "== fleet: coord + 2 workers, one cross-process trace =="
# A traced fleet run: the client mints one trace id (--trace-out),
# the coordinator stamps it on every stolen point, and the workers
# ship their simulation spans back, so the coordinator's trace file
# holds spans from all three processes under the one id -- while the
# grid's CSV output stays byte-identical to the untraced local run
# (tracing is trajectory-invisible by contract, src/obs/README.md).
COORD_T_SOCK="$BUILD_DIR/smoke/coord_t.sock"
COORD_TRACE="$BUILD_DIR/smoke/coord_trace.json"
SUBMIT_TRACE="$BUILD_DIR/smoke/submit_trace.json"
start_coord "$COORD_T_SOCK" --trace-out "$COORD_TRACE"
COORD_T_PID="${DAEMON_PIDS[-1]}"
SOCK_T1="$BUILD_DIR/smoke/serve_t1.sock"
SOCK_T2="$BUILD_DIR/smoke/serve_t2.sock"
start_serve "$SOCK_T1" "$COORD_T_SOCK" --name trace-w1 --jobs 1
start_serve "$SOCK_T2" "$COORD_T_SOCK" --name trace-w2 --jobs 1

"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_T_SOCK" \
    "${GRID[@]}" --trace-out "$SUBMIT_TRACE" \
    --out "$BUILD_DIR/smoke/traced_run" > /dev/null
cmp "$BUILD_DIR/smoke/traced_run.csv" "$BUILD_DIR/smoke/svc_local.csv"
grep -q '"timing"' "$BUILD_DIR/smoke/traced_run.json"

stop_fleet "$COORD_T_SOCK" "$SOCK_T1" "$SOCK_T2"
wait "$COORD_T_PID" 2>/dev/null || true

# Both trace files are valid JSON...
python3 -m json.tool "$COORD_TRACE" > /dev/null
python3 -m json.tool "$SUBMIT_TRACE" > /dev/null
# ...the coordinator's holds lanes from all three processes and the
# full per-point phase span set...
for proc in coord trace-w1 trace-w2; do
    grep -q "\"name\":\"$proc\"" "$COORD_TRACE"
done
for span in decode measure queued emit; do
    grep -q "\"name\":\"$span\"" "$COORD_TRACE"
done
grep -Eq '"name":"(warmup|restore)"' "$COORD_TRACE"
# ...and every span everywhere carries the client's single trace id.
TRACE_IDS=$(grep -o '"trace_id":[0-9]*' "$COORD_TRACE" \
                "$SUBMIT_TRACE" | cut -d: -f3 | sort -u)
test "$(echo "$TRACE_IDS" | wc -l)" -eq 1 || {
    echo "expected one shared trace id, got: $TRACE_IDS" >&2
    exit 1
}

echo "== one-pass grid: shared decode + warmed checkpoints, bitwise =="
# A 6-scheme grid over one recorded trace must be byte-identical to
# running the six points one at a time in separate processes (where
# no cross-point reuse is possible): the cohort/checkpoint machinery
# is trajectory-invisible by contract (src/sim/README.md).
ALL_SCHEMES=baseline,fdip,boomerang,confluence,shotgun,rdip
CGRID=(--workload "trace:$WTRACE" --warmup 100000
       --instructions 200000 --no-progress)
"$BUILD_DIR/shotgun-submit" --local "${CGRID[@]}" \
    --schemes "$ALL_SCHEMES" \
    --out "$BUILD_DIR/smoke/cohort_grid" > /dev/null
head -n 1 "$BUILD_DIR/smoke/cohort_grid.csv" \
    > "$BUILD_DIR/smoke/point_grid.csv"
for scheme in ${ALL_SCHEMES//,/ }; do
    "$BUILD_DIR/shotgun-submit" --local "${CGRID[@]}" \
        --schemes "$scheme" \
        --out "$BUILD_DIR/smoke/point_$scheme" > /dev/null
    # Keep only the point's own row: a single-scheme submit also
    # simulates the implicit baseline for the speedup column.
    tail -n 1 "$BUILD_DIR/smoke/point_$scheme.csv" \
        >> "$BUILD_DIR/smoke/point_grid.csv"
done
cmp "$BUILD_DIR/smoke/cohort_grid.csv" "$BUILD_DIR/smoke/point_grid.csv"

# Through the fleet the worker's status frame proves the reuse: the
# grid decoded the trace once and simulated each scheme's warmup once
# (6 misses, one per checkpoint key); a second grid with a shorter
# measure phase shares those keys and restores all six warmups.
COORD_G="$BUILD_DIR/smoke/coord_g.sock"
SOCK_G="$BUILD_DIR/smoke/serve_g.sock"
start_coord "$COORD_G"
start_serve "$SOCK_G" "$COORD_G" --name smoke-g
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_G" "${CGRID[@]}" \
    --schemes "$ALL_SCHEMES" \
    --out "$BUILD_DIR/smoke/cohort_svc" > /dev/null
cmp "$BUILD_DIR/smoke/cohort_svc.csv" "$BUILD_DIR/smoke/cohort_grid.csv"
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" --status \
    | grep -q '"checkpoint":{"entries":6,[^}]*"hits":0,"misses":6'
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" --status \
    | grep -q '"traces":{"entries":1,[^}]*"decodes":1'
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_G" "${CGRID[@]}" \
    --schemes "$ALL_SCHEMES" --instructions 100000 \
    --out "$BUILD_DIR/smoke/cohort_rerun" > /dev/null
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" --status \
    | grep -q '"checkpoint":{"entries":6,[^}]*"hits":6,"misses":6'
# Contiguous windows skip no stream prefix, so all 18 windows of the
# same grid restore the six parked keys and park nothing new.
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_G" "${CGRID[@]}" \
    --schemes "$ALL_SCHEMES" --window-shards 3 \
    --out "$BUILD_DIR/smoke/cohort_windows" > /dev/null
cmp "$BUILD_DIR/smoke/cohort_windows.csv" "$BUILD_DIR/smoke/cohort_grid.csv"
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" --status \
    | grep -q '"checkpoint":{"entries":6,[^}]*"hits":24,"misses":6'
stop_fleet "$COORD_G" "$SOCK_G"

# A bounded cache on a live worker evicts instead of growing: after
# a grid bigger than the budget, its status frame reports evictions.
COORD_C="$BUILD_DIR/smoke/coord_c.sock"
SOCK_C="$BUILD_DIR/smoke/serve_c.sock"
start_coord "$COORD_C"
start_serve "$SOCK_C" "$COORD_C" --name smoke-c --cache-bytes 600
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_C" "${GRID[@]}" \
    > /dev/null
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_C" --status \
    | grep -q '"evictions":[1-9]'

echo "== stall split: every cycle charged once, probes observer-only =="
# A probe-free row charges every measured cycle to exactly one of the
# seven causes, so they sum to its cycles.
python3 - "$BUILD_DIR/smoke/svc_local.json" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
causes = ["active_cycles", "stall_icache", "stall_pf_wait", "stall_btb",
          "stall_redirect", "stall_ftq_empty", "stall_backend"]
for row in rows:
    if sum(row[c] for c in causes) != row["cycles"]:
        sys.exit(f"{row['label']}: stall causes do not sum to cycles")
PY
# Probed local run: --uarch-report must be valid JSON whose
# conservation flag holds, the CSV must be byte-identical to the
# probe-free run of the same grid (probes are observer-only,
# src/obs/README.md "uarch probes"), and the row JSON gains its
# optional "uarch" member only when probed.
UARCH_REPORT="$BUILD_DIR/smoke/uarch_report.json"
"$BUILD_DIR/shotgun-submit" --local "${GRID[@]}" \
    --out "$BUILD_DIR/smoke/uarch_local" \
    --uarch-report "$UARCH_REPORT" > /dev/null
python3 -m json.tool "$UARCH_REPORT" > /dev/null
grep -q '"conserves":true' "$UARCH_REPORT"
if grep -q '"conserves":false' "$UARCH_REPORT"; then
    echo "uarch report has a non-conserved row" >&2
    exit 1
fi
cmp "$BUILD_DIR/smoke/uarch_local.csv" "$BUILD_DIR/smoke/svc_local.csv"
grep -q '"uarch"' "$BUILD_DIR/smoke/uarch_local.json"
if grep -q '"uarch"' "$BUILD_DIR/smoke/svc_local.json"; then
    echo "probe-free row JSON must not carry a uarch member" >&2
    exit 1
fi

# The same probed grid through the fleet: the breakdown rides the
# result frames' optional "uarch" member home, so the remote report
# (and CSV) must match the local ones byte for byte. (Probed configs
# fingerprint apart from probe-free ones, so nothing is served from
# the earlier run's caches.)
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_C" \
    "${GRID[@]}" --out "$BUILD_DIR/smoke/uarch_remote" \
    --uarch-report "$BUILD_DIR/smoke/uarch_remote_report.json" \
    > /dev/null
cmp "$BUILD_DIR/smoke/uarch_remote.csv" "$BUILD_DIR/smoke/svc_local.csv"
cmp "$BUILD_DIR/smoke/uarch_remote_report.json" "$UARCH_REPORT"

echo "== fleet: a corrupt trace record fails its job, not the worker =="
# Set the branch-type byte (17) of record 30553 of a nutch trace to
# 0xEE. The worker's header probe passes; decoding the payload throws
# on that record, so the job fails naming it (exit 1), the worker
# keeps serving, and the next job matches the in-process run.
BAD_TRACE="$BUILD_DIR/smoke/corrupt.trace"
"$BUILD_DIR/shotgun-trace" record nutch "$BAD_TRACE" --warmup 100000 \
    --instructions 200000 > /dev/null
python3 - "$BAD_TRACE" <<'PY'
import os, struct, sys
path = sys.argv[1]
with open(path, "r+b") as f:
    records = struct.unpack("<Q", f.read(16)[8:16])[0]
    f.seek(os.path.getsize(path) - (records - 30553) * 19 + 17)
    f.write(b"\xee")
PY
BAD_RC=0
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_C" \
    --workload "trace:$BAD_TRACE" --schemes shotgun --warmup 100000 \
    --instructions 200000 --no-progress \
    > /dev/null 2> "$BUILD_DIR/smoke/corrupt.err" || BAD_RC=$?
test "$BAD_RC" -eq 1 || {
    echo "submit over a corrupt trace exited $BAD_RC, expected 1" >&2
    exit 1
}
grep -q "corrupt record 30553 (bad branch type 238)" \
    "$BUILD_DIR/smoke/corrupt.err"
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_C" --ping > /dev/null
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_C" \
    "${GRID[@]}" --seed 2 --out "$BUILD_DIR/smoke/after_corrupt" \
    > /dev/null
"$BUILD_DIR/shotgun-submit" --local "${GRID[@]}" --seed 2 \
    --out "$BUILD_DIR/smoke/after_corrupt_local" > /dev/null
cmp "$BUILD_DIR/smoke/after_corrupt.csv" \
    "$BUILD_DIR/smoke/after_corrupt_local.csv"

stop_fleet "$COORD_C" "$SOCK_C"
wait "${DAEMON_PIDS[@]}" 2>/dev/null || true

echo "smoke OK"
