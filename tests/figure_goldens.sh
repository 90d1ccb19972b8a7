#!/usr/bin/env bash
# Byte-for-byte gate on every paper figure, table and ablation bench: runs
# each bench at its default size and compares its stdout with the committed
# golden bench/golden/<bench>.txt.
#
# Each bench runs in its own empty directory (the BENCH_*.json it writes
# lands there) with every DEEPPLAN_* variable unset, so validation, tracing,
# self-profiling and the sweep job count take their defaults. A listed bench
# without a golden fails, and so does a golden no listed bench produces. On a
# mismatch the script prints the diff and the cp command that re-blesses an
# intended change, and keeps the outputs it compared.
#
# usage: figure_goldens.sh <golden_dir> <bench_bin_dir> <bench>...
set -uo pipefail

if [ "$#" -lt 3 ]; then
  echo "usage: $0 <golden_dir> <bench_bin_dir> <bench>..." >&2
  exit 2
fi
golden_dir="$1"
bin_dir="$2"
shift 2

for var in $(compgen -e | grep '^DEEPPLAN_' || true); do
  unset "$var"
done

out="$(mktemp -d)"
failed=0
for bench in "$@"; do
  golden="$golden_dir/$bench.txt"
  mkdir -p "$out/$bench"
  if ! (cd "$out/$bench" && "$bin_dir/$bench" >"$out/$bench.txt"); then
    echo "FAIL $bench: exited non-zero"
    failed=1
    continue
  fi
  if [ ! -f "$golden" ]; then
    echo "FAIL $bench: no golden $golden"
    echo "  bless it with: cp $out/$bench.txt $golden"
    failed=1
  elif ! cmp -s "$golden" "$out/$bench.txt"; then
    echo "FAIL $bench: stdout differs from $golden"
    diff -u "$golden" "$out/$bench.txt"
    echo "  re-bless an intended change with: cp $out/$bench.txt $golden"
    failed=1
  else
    echo "ok   $bench"
  fi
done

for golden in "$golden_dir"/*.txt; do
  name="$(basename "$golden" .txt)"
  listed=0
  for bench in "$@"; do
    [ "$bench" = "$name" ] && listed=1
  done
  if [ "$listed" -eq 0 ]; then
    echo "FAIL stale golden $golden: no listed bench prints it"
    failed=1
  fi
done

if [ "$failed" -ne 0 ]; then
  echo "outputs kept in $out"
  exit 1
fi
rm -rf "$out"
