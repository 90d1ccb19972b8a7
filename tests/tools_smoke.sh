#!/usr/bin/env bash
# Command-line smoke test of the causal-journal tools, run on one profiled
# fig02 cold-start sweep (well under a second):
#
#   1. fig02_stall_decomposition --profile_out --whatif_out writes a DPJL
#      journal and its in-process what-if report;
#   2. profile_report --json reads the journal, and trace_lint --profile
#      lints the report;
#   3. whatif_report --json on the journal must equal fig02's own report
#      byte for byte, and trace_lint --whatif lints it;
#   4. journal_convert --to-json exports the journal (and it must parse as
#      JSON), trace_lint --journal validates it, and journal_convert
#      --to-chrome renders its Chrome trace, which trace_lint accepts;
#   5. every journal reader handed that JSON export exits non-zero with the
#      DPJL diagnostic;
#   6. selfprof_report --min_coverage and bench_history --max_slowdown refuse
#      a value that is not a number with exit 2, and fig13_concurrency_sweep
#      refuses --requests=0 with exit 1, naming the flag; trace_lint refuses
#      JSON nested 50,000 deep and fig15_azure_trace a replayed CSV row
#      naming an instance it lacks, both with exit 1 (not a signal), and
#      whatif_report a scale outside its range with exit 2;
#   7. the profile report fig13_concurrency_sweep --profile_out prints from
#      its journal in memory equals profile_report's on the journal it wrote,
#      byte for byte (0.1 s at --requests=200), and the Chrome traces of that
#      journal recorded at DEEPPLAN_JOBS=1 and 3 are byte-identical.
#
# usage: tools_smoke.sh <fig02_stall_decomposition> <profile_report>
#                       <whatif_report> <journal_convert> <trace_lint>
#                       <selfprof_report> <bench_history>
#                       <fig13_concurrency_sweep> <fig15_azure_trace>
set -euo pipefail

if [ "$#" -ne 9 ]; then
  echo "usage: $0 <fig02> <profile_report> <whatif_report>" \
    "<journal_convert> <trace_lint> <selfprof_report> <bench_history>" \
    "<fig13> <fig15>" >&2
  exit 2
fi
fig02="$1"
profile_report="$2"
whatif_report="$3"
journal_convert="$4"
trace_lint="$5"
selfprof_report="$6"
bench_history="$7"
fig13="$8"
fig15="$9"

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

echo "== fig02 --profile_out --whatif_out"
DEEPPLAN_BENCH_DIR="$dir" "$fig02" --profile_out="$dir/fig02.dpj" \
  --whatif_out="$dir/whatif_bench.json" >"$dir/fig02.txt"

echo "== profile_report --json, trace_lint --profile"
"$profile_report" "$dir/fig02.dpj" --json="$dir/profile.json" \
  >"$dir/profile.txt"
"$trace_lint" --profile "$dir/profile.json"

echo "== whatif_report --json matches fig02 --whatif_out, trace_lint --whatif"
"$whatif_report" "$dir/fig02.dpj" --json="$dir/whatif_tool.json" >/dev/null
cmp "$dir/whatif_bench.json" "$dir/whatif_tool.json"
"$trace_lint" --whatif "$dir/whatif_bench.json"

echo "== journal_convert --to-json, trace_lint --journal, --to-chrome"
"$journal_convert" --to-json "$dir/fig02.dpj" "$dir/fig02.json"
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))["causal_journal"]' \
    "$dir/fig02.json"
else
  grep -q '^{"causal_journal":' "$dir/fig02.json"
fi
"$trace_lint" --journal "$dir/fig02.dpj"
"$journal_convert" --to-chrome "$dir/fig02.dpj" "$dir/fig02_trace.json"
"$trace_lint" "$dir/fig02_trace.json"

echo "== JSON input is refused with the DPJL diagnostic"
expect_refused() {  # expect_refused <command...>
  if "$@" >"$dir/refused.txt" 2>&1; then
    echo "FAIL: '$*' accepted a JSON journal" >&2
    exit 1
  fi
  if ! grep -q "recorded as DPJL" "$dir/refused.txt"; then
    echo "FAIL: '$*' did not give the DPJL diagnostic:" >&2
    sed 's/^/  | /' "$dir/refused.txt" >&2
    exit 1
  fi
}
expect_refused "$profile_report" "$dir/fig02.json"
expect_refused "$whatif_report" "$dir/fig02.json"
expect_refused "$journal_convert" --to-json "$dir/fig02.json" "$dir/again.json"
expect_refused "$journal_convert" --to-chrome "$dir/fig02.json" "$dir/again.json"
expect_refused "$trace_lint" --journal "$dir/fig02.json"

echo "== malformed gate values exit 2, an out-of-range bench flag exits 1"
expect_exit() {  # expect_exit <status> <command...>
  local want="$1" status=0
  shift
  "$@" >"$dir/bad_value.txt" 2>&1 || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "FAIL: '$*' exited $status, expected $want:" >&2
    sed 's/^/  | /' "$dir/bad_value.txt" >&2
    exit 1
  fi
}
expect_exit 2 "$selfprof_report" --min_coverage=abc "$dir/whatif_bench.json"
expect_exit 2 "$bench_history" --max_slowdown=abc "$dir"
expect_exit 1 "$fig13" --requests=0
grep -q 'bad value for --requests: "0"' "$dir/bad_value.txt"

echo "== deep JSON, a trace row past the instances, an extreme scale: no signal"
printf '%*s' 50000 '' | tr ' ' '[' >"$dir/deep.json"
expect_exit 1 "$trace_lint" --selfprof "$dir/deep.json"
printf 'time_ns,instance\n1000,0\n2000,500\n' >"$dir/far_instance.csv"
expect_exit 1 env DEEPPLAN_BENCH_DIR="$dir" "$fig15" \
  --trace="$dir/far_instance.csv"
grep -q 'far_instance.csv:3: malformed row' "$dir/bad_value.txt"
expect_exit 2 "$whatif_report" --exp=pcie=1e300 "$dir/fig02.dpj"

echo "== fig13 --profile_out report matches profile_report on its journal"
DEEPPLAN_BENCH_DIR="$dir" DEEPPLAN_JOBS=1 "$fig13" --requests=200 \
  --profile_out="$dir/fig13.dpj" >"$dir/fig13.txt" 2>/dev/null
sed -n '/^== profile report ==$/,$p' "$dir/fig13.txt" >"$dir/fig13_report.txt"
"$profile_report" "$dir/fig13.dpj" >"$dir/fig13_tool.txt"
test -s "$dir/fig13_report.txt"
cmp "$dir/fig13_report.txt" "$dir/fig13_tool.txt"

echo "== fig13's Chrome trace is the same for DEEPPLAN_JOBS=1 and 3"
DEEPPLAN_BENCH_DIR="$dir" DEEPPLAN_JOBS=3 "$fig13" --requests=200 \
  --profile_out="$dir/fig13_jobs3.dpj" >/dev/null 2>&1
"$journal_convert" --to-chrome "$dir/fig13.dpj" "$dir/fig13_trace.json" \
  2>/dev/null
"$journal_convert" --to-chrome "$dir/fig13_jobs3.dpj" \
  "$dir/fig13_jobs3_trace.json" 2>/dev/null
cmp "$dir/fig13_trace.json" "$dir/fig13_jobs3_trace.json"

echo "PASS: journal tools read DPJL and refuse JSON; gate values and"\
  "outside inputs are checked; the streamed profile report matches the"\
  "in-memory one; the Chrome export lints clean and is byte-identical"\
  "for any DEEPPLAN_JOBS"
