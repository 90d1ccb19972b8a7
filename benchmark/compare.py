#!/usr/bin/env python3
"""Compares two sets of benchmark runs, e.g. a parent commit (A) and a change (B).

    python3 benchmark/compare.py <dirA> <dirB>

Each directory holds the <workload>.<round>.json results that
`benchmark/run.sh --repeat=N --out=<dir>` writes. For every workload and
end-to-end metric in BENCHMARK.json, plus failed_ratio, it prints each side's
sample count, median and quartiles, the relative change of B's median against
A's (positive = B worse), and a verdict:

  better      B's median is better, B wins at least 9 in 10 of the run pairs
              (round i against round i, ties count for neither), and the
              medians differ by more than A's interquartile range
  worse       B's median is worse than A's by more than the metric's bound
  unresolved  neither, and the run-to-run spread (interquartile range over
              median, the wider of the two sides) exceeds the bound, unless
              every run of B reads better than every run of A
  same        otherwise

Exits 1 when any metric is worse or B's failed_ratio is higher than A's.
"""
import json
import statistics
import sys
from pathlib import Path


def load_runs(directory):
    """{workload: [metrics dict per round, in round order]}"""
    runs = {}
    paths = sorted(Path(directory).glob("*.json"),
                   key=lambda p: (p.name.split(".")[0], int(p.name.split(".")[1])))
    for path in paths:
        result = json.loads(path.read_text())
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        runs.setdefault(result["workload"], []).append(metrics)
    return runs


def summary(values):
    """(median, q1, q3). Quartiles interpolate between samples ("inclusive"),
    so that with five rounds one round slowed by other tenants of the host
    does not set the spread on its own."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def verdict(a, b, better, bound):
    """Returns (relative change, verdict); change > 0 means B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, q1_a, q3_a = summary(a)
    med_b, q1_b, q3_b = summary(b)
    if med_a == 0:
        change = 0.0 if med_b == 0 else sign * float("inf")
    else:
        change = sign * (med_b - med_a) / abs(med_a)
    spread = max((q3 - q1) / abs(med) if med else 0.0
                 for med, q1, q3 in ((med_a, q1_a, q3_a), (med_b, q1_b, q3_b)))
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if change > bound:
        return change, "worse"
    if change < 0 and pairs and wins >= 0.9 * len(pairs) and \
            abs(med_b - med_a) > q3_a - q1_a:
        return change, "better"
    if spread > bound and not all_better:
        return change, "unresolved"
    return change, "same"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    manifest = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"]) for m in manifest["end_to_end"]]
    runs_a, runs_b = load_runs(argv[1]), load_runs(argv[2])
    status = 0
    header = (f"{'workload':15} {'metric':14} {'nA':>3} {'median A':>12} "
              f"{'[q1, q3] A':>25} {'nB':>3} {'median B':>12} "
              f"{'[q1, q3] B':>25} {'change':>8}  verdict")
    print(header)
    for workload in sorted(set(runs_a) | set(runs_b)):
        a_runs, b_runs = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:15} missing on one side")
            status = 1
            continue
        for name, better, bound in metrics + [("failed_ratio", "lower", 0.0)]:
            a = [r[name] for r in a_runs]
            b = [r[name] for r in b_runs]
            change, result = verdict(a, b, better, bound)
            if name == "failed_ratio":
                result = "worse" if summary(b)[0] > summary(a)[0] else "same"
            if result == "worse":
                status = 1
            med_a, q1_a, q3_a = summary(a)
            med_b, q1_b, q3_b = summary(b)
            print(f"{workload:15} {name:14} {len(a):3} {med_a:12.6g} "
                  f"{f'[{q1_a:.6g}, {q3_a:.6g}]':>25} {len(b):3} {med_b:12.6g} "
                  f"{f'[{q1_b:.6g}, {q3_b:.6g}]':>25} {change:+8.2%}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
