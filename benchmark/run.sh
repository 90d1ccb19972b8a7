#!/usr/bin/env bash
# Builds the benchmark binary (deepplan_bench) into benchmark/build and runs
# it, one process at a time, with the cost-changing DEEPPLAN_* variables
# unset.
#
#   run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
#       one run of one workload; the last stdout line is its JSON result
#   run.sh [--seconds=<s>] [--trace] [--repeat=<n> --out=<dir>]
#       every workload (n rounds, default 1), printing one
#       "<workload> <metric> <value> <unit>" line per metric; --trace adds one
#       traced run per workload; --out copies each round's results to
#       <dir>/<workload>.<round>.json for benchmark/compare.py, numbering
#       rounds after any already there
#
# Results land in benchmark/results/<workload>.json (traced:
# <workload>.traced.json, plus trace_<workload>.json and
# selfprof_<workload>.json). See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/build"

workload="" seed="" seconds=10 trace=0 repeat=1 out=""
while (($#)); do
  case "$1" in
    --*=*) key="${1%%=*}" val="${1#*=}"; shift ;;
    --trace)
      key=--trace val=1; shift
      if (($#)) && [[ $1 == [01] ]]; then val=$1; shift; fi ;;
    --workload | --seed | --seconds | --repeat | --out)
      (($# >= 2)) || { echo "missing value for $1" >&2; exit 2; }
      key=$1 val=$2; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  case "$key" in
    --workload) workload=$val ;;
    --seed) seed=$val ;;
    --seconds) seconds=$val ;;
    --trace) trace=$val ;;
    --repeat) repeat=$val ;;
    --out) out=$val ;;
    *) echo "unknown argument: $key" >&2; exit 2 ;;
  esac
done

unset DEEPPLAN_VALIDATE DEEPPLAN_SELFPROF DEEPPLAN_PROGRESS DEEPPLAN_TRACE \
  DEEPPLAN_PROFILE DEEPPLAN_WHATIF DEEPPLAN_JOBS

# Compiler temporaries stay inside the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
jobs=$(nproc)
((jobs <= 4)) || jobs=4
cmake --build "$build" --target deepplan_bench -j "$jobs" >&2

# Provenance; a checkout that is not a git repository reports "unknown".
commit=unknown dirty=unknown
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
if git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
  commit=$(git -C "$root" rev-parse HEAD)
  dirty=false
  [[ -z "$(git -C "$root" status --porcelain)" ]] || dirty=true
fi

bench=("$build/deepplan_bench" --root="$root" --commit="$commit"
  --dirty="$dirty" --seconds="$seconds")
[[ -z "$seed" ]] || bench+=(--seed="$seed")

if [[ -n "$workload" ]]; then
  exec "${bench[@]}" --workload="$workload" --trace="$trace"
fi

status=0
# Runs one workload; prints its metric lines and records whether it passed.
run_one() {
  local result
  result=$("${bench[@]}" --workload="$1" --trace="$2")
  printf '%s\n' "$result" | sed '$d'
  [[ "$(printf '%s\n' "$result" | tail -n 1)" == *'"correct": true'* ]] ||
    { echo "$1: incorrect output or failed ops" >&2; status=1; }
}

workloads=(synthetic_1m azure_mix journal_record whatif_replay cold_plan)
# Rounds continue after those already in <dir>, so two checkouts can take
# turns one round at a time.
first=0
if [[ -n "$out" ]]; then
  mkdir -p "$out"
  while [[ -e "$out/${workloads[0]}.$first.json" ]]; do ((first += 1)); done
fi
for ((round = first; round < first + repeat; round++)); do
  for w in "${workloads[@]}"; do
    run_one "$w" 0
    [[ -z "$out" ]] || cp "$here/results/$w.json" "$out/$w.$round.json"
  done
done
if [[ $trace == 1 ]]; then
  for w in "${workloads[@]}"; do
    run_one "$w" 1
  done
fi
exit "$status"
