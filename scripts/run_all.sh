#!/usr/bin/env bash
# Regenerates every paper table/figure and ablation into results/, including
# each bench's machine-readable BENCH_<name>.json (written next to the .txt),
# then records causal journals and validates the reports and the
# Chrome/Perfetto trace exported from them.
# Usage: scripts/run_all.sh [build-dir] [results-dir]
#
# Env:
#   DEEPPLAN_JOBS=N  worker threads per bench sweep (default: all cores;
#                    output is byte-identical for any value).
#   DEEPPLAN_TSAN=1  first build the ThreadSanitizer preset
#                    (cmake -DDEEPPLAN_SANITIZE=thread) into <build-dir>-tsan
#                    and run the sweep determinism, trace-export and journal-merge
#                    tests under it.
#   DEEPPLAN_ASAN=1  build the AddressSanitizer+UndefinedBehaviorSanitizer
#                    preset (cmake -DDEEPPLAN_SANITIZE=address,undefined) into
#                    <build-dir>-asan with -DDEEPPLAN_WERROR=ON (any
#                    compiler warning fails the build) and run the full
#                    test suite under it; any report aborts its test.
#   DEEPPLAN_TIDY=1  configure <build-dir>-tidy with -DDEEPPLAN_TIDY=ON and
#                    compile src/ under clang-tidy --warnings-as-errors=*
#                    (skipped with a notice when clang-tidy is not installed).
#   DEEPPLAN_CLANGXX=path
#                    clang++ for check_lint.sh's -Wthread-safety sweep and
#                    the static_analysis negative-compile tests (default:
#                    `clang++` on PATH; both skip with a notice when absent).
set -euo pipefail

BUILD_DIR="${1:-build}"
RESULTS_DIR="${2:-results}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "build first: cmake -B $BUILD_DIR -G Ninja && cmake --build $BUILD_DIR" >&2
  exit 1
fi

if [ "${DEEPPLAN_TSAN:-0}" = "1" ]; then
  echo "== sweep_test + obs_test + journal_test + profile_report_test +" \
       "whatif_test + scaling_test (ThreadSanitizer)"
  cmake -B "$BUILD_DIR-tsan" -S . -DDEEPPLAN_SANITIZE=thread >/dev/null
  cmake --build "$BUILD_DIR-tsan" --target sweep_test obs_test journal_test \
    profile_report_test whatif_test scaling_test -j >/dev/null
  DEEPPLAN_JOBS=8 "$BUILD_DIR-tsan/tests/sweep_test"
  "$BUILD_DIR-tsan/tests/obs_test"
  "$BUILD_DIR-tsan/tests/journal_test"
  # Their parallel-sweep cases record one graph per worker thread and Adopt
  # the graphs' journals on the main thread, the recording hand-off.
  DEEPPLAN_JOBS=8 "$BUILD_DIR-tsan/tests/profile_report_test"
  DEEPPLAN_JOBS=8 "$BUILD_DIR-tsan/tests/whatif_test"
  # The scale replay fans point sweeps across threads — and now records one
  # binary journal per point; run it under TSan with maximum fan-out (the
  # differential queue/fabric tests are single-threaded and covered by the
  # ASan+UBSan full-suite leg below).
  DEEPPLAN_JOBS=8 "$BUILD_DIR-tsan/tests/scaling_test"
fi

if [ "${DEEPPLAN_ASAN:-0}" = "1" ]; then
  echo "== test suite (AddressSanitizer+UndefinedBehaviorSanitizer)"
  cmake -B "$BUILD_DIR-asan" -S . -DDEEPPLAN_SANITIZE=address,undefined \
    -DDEEPPLAN_WERROR=ON >/dev/null
  cmake --build "$BUILD_DIR-asan" -j >/dev/null
  ctest --test-dir "$BUILD_DIR-asan" --output-on-failure
fi

if [ "${DEEPPLAN_TIDY:-0}" = "1" ]; then
  echo "== clang-tidy (src/ via DEEPPLAN_TIDY=ON)"
  cmake -B "$BUILD_DIR-tidy" -S . -DDEEPPLAN_TIDY=ON >/dev/null
  cmake --build "$BUILD_DIR-tidy" -j >/dev/null
fi

# Formatting gate: check-only, skips with a notice when clang-format is
# absent.
scripts/check_format.sh

# Determinism/concurrency lint gate: deepplan_lint always, clang
# -Wthread-safety when a clang++ is available (see scripts/check_lint.sh).
scripts/check_lint.sh "$BUILD_DIR"

mkdir -p "$RESULTS_DIR"
export DEEPPLAN_BENCH_DIR="$RESULTS_DIR"
# Keep the main sweep unprofiled (byte-stable baseline outputs) even when
# the caller has a global DEEPPLAN_PROFILE/DEEPPLAN_WHATIF/DEEPPLAN_SELFPROF/
# DEEPPLAN_PROGRESS; the dedicated steps below capture each artifact.
unset DEEPPLAN_PROFILE
unset DEEPPLAN_WHATIF
unset DEEPPLAN_SELFPROF
unset DEEPPLAN_PROGRESS
for bench in "$BUILD_DIR"/bench/*; do
  if [ -x "$bench" ] && [ -f "$bench" ]; then
    name="$(basename "$bench")"
    echo "== $name"
    "$bench" >"$RESULTS_DIR/$name.txt" 2>&1
  fi
done

# Regression gate: every checked-in golden under bench/golden/ must match the
# fresh BENCH output point-for-point (wall_clock_ms and jobs are ignored by
# the differ, so goldens gate across hosts). DEEPPLAN_BENCH_TOL widens the
# relative tolerance; the simulator is deterministic, so the default is exact.
# Runs before the traced/profiled replays below, which overwrite some BENCH
# files with short-run variants. Skips gracefully when no goldens exist.
echo "== bench_diff regression gate"
GOLDEN_DIR="bench/golden"
GOLDEN_FOUND=0
if [ -d "$GOLDEN_DIR" ]; then
  for golden in "$GOLDEN_DIR"/BENCH_*.json; do
    [ -e "$golden" ] || continue
    GOLDEN_FOUND=1
    name="$(basename "$golden")"
    if [ -f "$RESULTS_DIR/$name" ]; then
      "$BUILD_DIR/tools/bench_diff" --tol="${DEEPPLAN_BENCH_TOL:-0}" \
        "$golden" "$RESULTS_DIR/$name"
    else
      echo "skip $name: no fresh counterpart in $RESULTS_DIR"
    fi
  done
fi
if [ "$GOLDEN_FOUND" = "0" ]; then
  echo "skip: no goldens under $GOLDEN_DIR"
fi

# Scaling determinism: BENCH_scaling's deterministic surface must not depend
# on the sweep's thread count. Replay the trimmed curve (1M point dropped for
# speed) once serially and once threaded, and hold the two JSONs to the same
# exact gate the goldens use. The full default curve, 1M point included, ran
# in the main sweep above and is golden-gated like every other bench.
echo "== scaling determinism (DEEPPLAN_JOBS=1 vs 2)"
mkdir -p "$RESULTS_DIR/scaling_jobs1" "$RESULTS_DIR/scaling_jobs2"
# stdout only: wall-clock throughput lines go to stderr by design, so the
# table is byte-comparable across thread counts.
DEEPPLAN_BENCH_DIR="$RESULTS_DIR/scaling_jobs1" DEEPPLAN_JOBS=1 \
  "$BUILD_DIR/bench/bench_scaling" --max_requests=200000 \
  >"$RESULTS_DIR/scaling_jobs1/bench_scaling.txt" 2>/dev/null
DEEPPLAN_BENCH_DIR="$RESULTS_DIR/scaling_jobs2" DEEPPLAN_JOBS=2 \
  "$BUILD_DIR/bench/bench_scaling" --max_requests=200000 \
  >"$RESULTS_DIR/scaling_jobs2/bench_scaling.txt" 2>/dev/null
"$BUILD_DIR/tools/bench_diff" --tol=0 \
  "$RESULTS_DIR/scaling_jobs1/BENCH_scaling.json" \
  "$RESULTS_DIR/scaling_jobs2/BENCH_scaling.json"
cmp "$RESULTS_DIR/scaling_jobs1/bench_scaling.txt" \
  "$RESULTS_DIR/scaling_jobs2/bench_scaling.txt"

# Critical-path profiling: capture a causal journal (binary DPJL) from a
# short profiled replay, re-analyze it with the offline tool, and lint the
# report JSON schema (attribution must tile each request's latency exactly).
# The same run replays its own journal under the default what-if experiments
# (--whatif_out), which the what-if leg below holds the offline tool to. The
# profiled run writes its BENCH file into a separate subdir so the baseline
# BENCH output above stays pristine.
echo "== profile leg (fig15_azure_trace, 2 minutes)"
PROFILE_JOURNAL="$RESULTS_DIR/profile_fig15.dpj"
PROFILE_REPORT="$RESULTS_DIR/profile_fig15_report.json"
WHATIF_FIG15_BENCH="$RESULTS_DIR/whatif_fig15_bench.json"
mkdir -p "$RESULTS_DIR/profiled"
DEEPPLAN_BENCH_DIR="$RESULTS_DIR/profiled" DEEPPLAN_VALIDATE=1 \
  "$BUILD_DIR/bench/fig15_azure_trace" --minutes=2 \
  --profile_out="$PROFILE_JOURNAL" --whatif_out="$WHATIF_FIG15_BENCH" \
  >"$RESULTS_DIR/fig15_azure_trace_profiled.txt" 2>&1
"$BUILD_DIR/tools/profile_report" "$PROFILE_JOURNAL" \
  --json="$PROFILE_REPORT" >"$RESULTS_DIR/profile_fig15_report.txt"
"$BUILD_DIR/tools/trace_lint" --profile "$PROFILE_REPORT"

# Trace leg: the same run's Chrome trace, exported from its journal. Check
# that it parses and carries the expected tracks (load it in ui.perfetto.dev
# to explore), then the deep structural lint (slice nesting, async pairing,
# metadata coverage) the track check cannot do.
echo "== trace leg (journal_convert --to-chrome on the fig15 journal)"
TRACE_FILE="$RESULTS_DIR/trace_fig15.json"
"$BUILD_DIR/tools/journal_convert" --to-chrome "$PROFILE_JOURNAL" \
  "$TRACE_FILE" 2>/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TRACE_FILE" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
phases = {e["ph"] for e in events}
assert {"M", "X", "C", "b", "e"} <= phases, f"missing event phases: {phases}"
tracks = {e["args"]["name"] for e in events
          if e["ph"] == "M" and e["name"] == "thread_name"}
tracks |= {e["name"] for e in events if e["ph"] == "C"}
for prefix in ("exec/gpu", "pcie/gpu", "queue", "inflight/pcie/gpu",
               "inflight/uplink/", "queued"):
    assert any(t.startswith(prefix) for t in tracks), f"no {prefix} track"
print(f"trace OK: {len(events)} events, {len(tracks)} tracks")
EOF
else
  # Fallback: structural spot checks only.
  grep -q '"traceEvents"' "$TRACE_FILE"
  grep -q '"ph":"C"' "$TRACE_FILE"
  grep -q '"exec/gpu' "$TRACE_FILE"
  grep -q 'inflight/' "$TRACE_FILE"
  echo "trace OK (grep checks; python3 unavailable)"
fi
"$BUILD_DIR/tools/trace_lint" "$TRACE_FILE"

# The single-cold-start Figure 9 picture is the same export of a one-run
# journal, through the same lint: PCIe/NVLink intervals, exec slices and
# in-flight counters.
echo "== timeline_export + trace_lint"
TIMELINE_FILE="$RESULTS_DIR/timeline_bert_base.json"
"$BUILD_DIR/examples/timeline_export" --model=bert_base --strategy=pt_dha \
  --out="$TIMELINE_FILE" >"$RESULTS_DIR/timeline_export.txt"
"$BUILD_DIR/tools/trace_lint" "$TIMELINE_FILE"

# The cold-start decomposition and concurrency-sweep journals go through the
# same journal -> offline report -> schema lint round trip.
echo "== profile leg (fig02_stall_decomposition)"
FIG02_JOURNAL="$RESULTS_DIR/profile_fig02.dpj"
FIG02_REPORT="$RESULTS_DIR/profile_fig02_report.json"
DEEPPLAN_BENCH_DIR="$RESULTS_DIR/profiled" \
  "$BUILD_DIR/bench/fig02_stall_decomposition" \
  --profile_out="$FIG02_JOURNAL" \
  >"$RESULTS_DIR/fig02_stall_decomposition_profiled.txt" 2>&1
"$BUILD_DIR/tools/profile_report" "$FIG02_JOURNAL" \
  --json="$FIG02_REPORT" >"$RESULTS_DIR/profile_fig02_report.txt"
"$BUILD_DIR/tools/trace_lint" --profile "$FIG02_REPORT"

echo "== profile leg (fig13_concurrency_sweep, short)"
FIG13_JOURNAL="$RESULTS_DIR/profile_fig13.dpj"
FIG13_REPORT="$RESULTS_DIR/profile_fig13_report.json"
DEEPPLAN_BENCH_DIR="$RESULTS_DIR/profiled" \
  "$BUILD_DIR/bench/fig13_concurrency_sweep" --requests=200 \
  --profile_out="$FIG13_JOURNAL" \
  >"$RESULTS_DIR/fig13_concurrency_sweep_profiled.txt" 2>&1
"$BUILD_DIR/tools/profile_report" "$FIG13_JOURNAL" \
  --json="$FIG13_REPORT" >"$RESULTS_DIR/profile_fig13_report.txt"
"$BUILD_DIR/tools/trace_lint" --profile "$FIG13_REPORT"

# What-if leg. fig16 --whatif_out is the full round trip: journal cold starts
# at PCIe 3.0 bandwidth, predict the PCIe 4.0 latencies from the journal
# alone, re-simulate on real PCIe 4.0 hardware, and DP_CHECK every
# per-request prediction within 1%. The offline tool then replays the fig15
# journal captured above, chunk by chunk, under the default virtual
# experiments: its report must be byte-identical to the one the run wrote
# from its own journal in memory, and both reports must lint clean (the linter
# rejects any report whose identity replay failed to reproduce its own
# journal).
echo "== what-if leg (fig16 validation + fig15 journal replay)"
WHATIF_FIG16="$RESULTS_DIR/whatif_fig16.json"
DEEPPLAN_BENCH_DIR="$RESULTS_DIR/profiled" \
  "$BUILD_DIR/bench/fig16_pcie4" --runs=1 --whatif_out="$WHATIF_FIG16" \
  >"$RESULTS_DIR/fig16_pcie4_whatif.txt" 2>&1
"$BUILD_DIR/tools/trace_lint" --whatif "$WHATIF_FIG16"
WHATIF_FIG15="$RESULTS_DIR/whatif_fig15.json"
"$BUILD_DIR/tools/whatif_report" "$PROFILE_JOURNAL" \
  --json="$WHATIF_FIG15" >"$RESULTS_DIR/whatif_fig15.txt"
cmp "$WHATIF_FIG15_BENCH" "$WHATIF_FIG15"
"$BUILD_DIR/tools/trace_lint" --whatif "$WHATIF_FIG15"

# Journal leg: the fig15 journal lints clean, and its JSON export (the one
# place a {"causal_journal":...} document is written) parses as JSON.
echo "== journal leg (lint + JSON export)"
"$BUILD_DIR/tools/trace_lint" --journal "$PROFILE_JOURNAL"
JOURNAL_EXPORT="$RESULTS_DIR/profile_fig15_export.json"
"$BUILD_DIR/tools/journal_convert" --to-json "$PROFILE_JOURNAL" \
  "$JOURNAL_EXPORT" 2>/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$JOURNAL_EXPORT" <<'EOF'
import json, sys
journal = json.load(open(sys.argv[1]))["causal_journal"]
print(f"journal export OK: {len(journal['requests'])} requests, "
      f"{len(journal['nodes'])} nodes")
EOF
else
  grep -q '^{"causal_journal":' "$JOURNAL_EXPORT"
  echo "journal export OK (grep check; python3 unavailable)"
fi

# Bounded-memory recording at scale: stream one binary journal per scaling
# point (200k cap here for CI speed; the RSS bound while journaling is pinned
# by tests/scaling_test.cc, and the full 1M point records the same way with
# --max_requests=1000000) and lint every produced journal.
echo "== journal recording at scale (bench_scaling --journal_out)"
mkdir -p "$RESULTS_DIR/journaled"
DEEPPLAN_BENCH_DIR="$RESULTS_DIR/journaled" \
  "$BUILD_DIR/bench/bench_scaling" --max_requests=200000 \
  --journal_out="$RESULTS_DIR/journaled/scaling.dpj" \
  >"$RESULTS_DIR/journaled/bench_scaling.txt" 2>/dev/null
"$BUILD_DIR/tools/trace_lint" --journal \
  "$RESULTS_DIR/journaled/scaling.dpj.44000" \
  "$RESULTS_DIR/journaled/scaling.dpj.200000"

# Host self-profiling leg. A profiled scaling run must (a) produce a report
# that passes the schema lint, (b) attribute >=90% of its wall clock to
# top-level phases, (c) leave the simulated surface byte-identical to the
# unprofiled jobs=1 run above, and (d) project to the same deterministic
# phase/counter surface for any DEEPPLAN_JOBS.
echo "== selfprof leg (bench_scaling --selfprof_out)"
mkdir -p "$RESULTS_DIR/selfprof" "$RESULTS_DIR/selfprof_jobs2"
SELFPROF_JSON="$RESULTS_DIR/selfprof/selfprof_scaling.json"
DEEPPLAN_BENCH_DIR="$RESULTS_DIR/selfprof" DEEPPLAN_JOBS=1 \
  "$BUILD_DIR/bench/bench_scaling" --max_requests=200000 \
  --selfprof_out="$SELFPROF_JSON" \
  >"$RESULTS_DIR/selfprof/bench_scaling.txt" 2>/dev/null
"$BUILD_DIR/tools/trace_lint" --selfprof "$SELFPROF_JSON"
"$BUILD_DIR/tools/selfprof_report" --min_coverage=0.9 "$SELFPROF_JSON" \
  >"$RESULTS_DIR/selfprof/selfprof_report.txt"
"$BUILD_DIR/tools/bench_diff" --tol=0 \
  "$RESULTS_DIR/scaling_jobs1/BENCH_scaling.json" \
  "$RESULTS_DIR/selfprof/BENCH_scaling.json"
cmp "$RESULTS_DIR/scaling_jobs1/bench_scaling.txt" \
  "$RESULTS_DIR/selfprof/bench_scaling.txt"
DEEPPLAN_BENCH_DIR="$RESULTS_DIR/selfprof_jobs2" DEEPPLAN_JOBS=2 \
  "$BUILD_DIR/bench/bench_scaling" --max_requests=200000 \
  --selfprof_out="$RESULTS_DIR/selfprof_jobs2/selfprof_scaling.json" \
  >"$RESULTS_DIR/selfprof_jobs2/bench_scaling.txt" 2>/dev/null
"$BUILD_DIR/tools/selfprof_report" --deterministic "$SELFPROF_JSON" \
  >"$RESULTS_DIR/selfprof/deterministic.json"
"$BUILD_DIR/tools/selfprof_report" --deterministic \
  "$RESULTS_DIR/selfprof_jobs2/selfprof_scaling.json" \
  >"$RESULTS_DIR/selfprof_jobs2/deterministic.json"
cmp "$RESULTS_DIR/selfprof/deterministic.json" \
  "$RESULTS_DIR/selfprof_jobs2/deterministic.json"

# Overhead gate: self-profiling must stay under 3% wall-clock slowdown at
# the full 1M-request curve, best-of-5 vs best-of-5 (the minimum absorbs
# scheduler noise; single short runs are too jittery to gate on — tab05
# prints one for orientation only). The profiled runs double as the
# full-scale report: the first one's 1M lane must lint clean and attribute
# >=90% of its wall clock, answering ROADMAP item 1's open question.
echo "== selfprof overhead gate (1M curve, best-of-5, max 3% slowdown)"
OVH_BASE_DIRS=()
OVH_CAND_ARGS=()
for i in 1 2 3 4 5; do
  mkdir -p "$RESULTS_DIR/ovh_base$i" "$RESULTS_DIR/ovh_self$i"
  DEEPPLAN_BENCH_DIR="$RESULTS_DIR/ovh_base$i" \
    "$BUILD_DIR/bench/bench_scaling" --max_requests=1000000 \
    >"$RESULTS_DIR/ovh_base$i/bench_scaling.txt" 2>/dev/null
  DEEPPLAN_BENCH_DIR="$RESULTS_DIR/ovh_self$i" \
    "$BUILD_DIR/bench/bench_scaling" --max_requests=1000000 \
    --selfprof_out="$RESULTS_DIR/ovh_self$i/selfprof.json" \
    >"$RESULTS_DIR/ovh_self$i/bench_scaling.txt" 2>/dev/null
  OVH_BASE_DIRS+=("$RESULTS_DIR/ovh_base$i")
  OVH_CAND_ARGS+=("--candidate=$RESULTS_DIR/ovh_self$i")
done
"$BUILD_DIR/tools/bench_history" --max_slowdown=1.03 \
  "${OVH_BASE_DIRS[@]}" "${OVH_CAND_ARGS[@]}" \
  >"$RESULTS_DIR/selfprof_overhead_gate.txt"
"$BUILD_DIR/tools/trace_lint" --selfprof "$RESULTS_DIR/ovh_self1/selfprof.json"
"$BUILD_DIR/tools/selfprof_report" --min_coverage=0.9 \
  "$RESULTS_DIR/ovh_self1/selfprof.json" \
  >"$RESULTS_DIR/selfprof_1m_report.txt"

# Heartbeat smoke: DEEPPLAN_PROGRESS emits liveness lines on stderr and may
# not touch stdout or the BENCH output (byte-compared against a silent run).
echo "== heartbeat smoke (DEEPPLAN_PROGRESS)"
mkdir -p "$RESULTS_DIR/heartbeat_on" "$RESULTS_DIR/heartbeat_off"
DEEPPLAN_BENCH_DIR="$RESULTS_DIR/heartbeat_on" DEEPPLAN_PROGRESS=0.02 \
  "$BUILD_DIR/bench/bench_scaling" --max_requests=44000 \
  >"$RESULTS_DIR/heartbeat_on/bench_scaling.txt" \
  2>"$RESULTS_DIR/heartbeat_on/stderr.txt"
grep -q "deepplan-progress:" "$RESULTS_DIR/heartbeat_on/stderr.txt"
DEEPPLAN_BENCH_DIR="$RESULTS_DIR/heartbeat_off" \
  "$BUILD_DIR/bench/bench_scaling" --max_requests=44000 \
  >"$RESULTS_DIR/heartbeat_off/bench_scaling.txt" 2>/dev/null
cmp "$RESULTS_DIR/heartbeat_on/bench_scaling.txt" \
  "$RESULTS_DIR/heartbeat_off/bench_scaling.txt"
"$BUILD_DIR/tools/bench_diff" --tol=0 \
  "$RESULTS_DIR/heartbeat_off/BENCH_scaling.json" \
  "$RESULTS_DIR/heartbeat_on/BENCH_scaling.json"

# Wall-clock trajectory, report only: where this host's bench times stand
# across every snapshot taken above (gating happens in the leg before).
echo "== bench trajectory (report only)"
"$BUILD_DIR/tools/bench_history" \
  "${OVH_BASE_DIRS[@]}" \
  "$RESULTS_DIR/ovh_self1" "$RESULTS_DIR/ovh_self2" "$RESULTS_DIR/ovh_self3" \
  >"$RESULTS_DIR/bench_history.txt"

echo "results written to $RESULTS_DIR/"
