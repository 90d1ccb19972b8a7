#!/usr/bin/env bash
# Command-line smoke test of the causal-journal tools, run on one profiled
# fig02 cold-start sweep (well under a second):
#
#   1. fig02_stall_decomposition --profile_out --whatif_out writes a DPJL
#      journal and its in-process what-if report;
#   2. profile_report --json reads the journal, and trace_lint --profile
#      lints the report;
#   3. whatif_report --json on the journal must equal fig02's own report
#      byte for byte;
#   4. journal_convert --to-json exports the journal (and it must parse as
#      JSON), journal_convert --info and trace_lint --journal validate it;
#   5. every journal reader handed that JSON export exits non-zero with the
#      DPJL diagnostic.
#
# usage: tools_smoke.sh <fig02_stall_decomposition> <profile_report>
#                       <whatif_report> <journal_convert> <trace_lint>
set -euo pipefail

if [ "$#" -ne 5 ]; then
  echo "usage: $0 <fig02> <profile_report> <whatif_report>" \
    "<journal_convert> <trace_lint>" >&2
  exit 2
fi
fig02="$1"
profile_report="$2"
whatif_report="$3"
journal_convert="$4"
trace_lint="$5"

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

echo "== fig02 --profile_out --whatif_out"
DEEPPLAN_BENCH_DIR="$dir" "$fig02" --profile_out="$dir/fig02.dpj" \
  --whatif_out="$dir/whatif_bench.json" >"$dir/fig02.txt"

echo "== profile_report --json, trace_lint --profile"
"$profile_report" "$dir/fig02.dpj" --json="$dir/profile.json" \
  >"$dir/profile.txt"
"$trace_lint" --profile "$dir/profile.json"

echo "== whatif_report --json matches fig02 --whatif_out"
"$whatif_report" "$dir/fig02.dpj" --json="$dir/whatif_tool.json" >/dev/null
cmp "$dir/whatif_bench.json" "$dir/whatif_tool.json"

echo "== journal_convert --to-json/--info, trace_lint --journal"
"$journal_convert" --to-json "$dir/fig02.dpj" "$dir/fig02.json"
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))["causal_journal"]' \
    "$dir/fig02.json"
else
  grep -q '^{"causal_journal":' "$dir/fig02.json"
fi
"$journal_convert" --info "$dir/fig02.dpj"
"$trace_lint" --journal "$dir/fig02.dpj"

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
expect_refused "$journal_convert" --info "$dir/fig02.json"
expect_refused "$trace_lint" --journal "$dir/fig02.json"

echo "PASS: journal tools read DPJL and refuse JSON"
