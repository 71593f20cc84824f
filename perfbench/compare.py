#!/usr/bin/env python3
"""Summarises and compares results that perfbench/run.py appended to
.bench_build/perfbench/results.jsonl.

    python3 perfbench/compare.py RESULTS.jsonl           # spread of each metric
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl    # NEW against BASE

Run from the root of the repository (it reads the bounds from
BENCHMARK.json).  Results are grouped by workload.  The spread of a metric
is the distance between its first and third quartiles as a share of its
median; a spread above a third of the metric's bound is flagged.  Count
metrics must repeat exactly across runs; one that does not is reported as
a timing.  Results whose host fingerprints differ are never compared
(exit 2).  Exit 1 when a median of NEW is worse than BASE's by more than
the metric's bound.
"""

import json
import statistics
import sys

COUNTS = ["code_kb", "sim_geomean_speedup", "scheduler.ilp_solves",
          "scheduler.fastpath_hits", "simplex.pivots", "service.cache_hit_ratio",
          "codegen_cpu.omp_loops"]


def load(path):
    by_workload = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                by_workload.setdefault(r["workload"], []).append(r)
    return by_workload


def values(runs, name):
    return [r["metrics"].get(name, 0.0) for r in runs]


def spread(vals):
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / abs(med)


def fingerprints(results):
    return {json.dumps(r["fingerprint"], sort_keys=True)
            for runs in results.values() for r in runs}


def report_counts(label, runs):
    for name in COUNTS:
        vals = set(values(runs, name))
        if len(vals) > 1:
            print("  %-18s %-26s not repeatable %s: reported as a timing"
                  % (label, name, sorted(vals)))


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open("BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    base = load(sys.argv[1])
    new = load(sys.argv[2]) if len(sys.argv) == 3 else None
    if new is not None and fingerprints(base) != fingerprints(new):
        print("refusing to compare: host fingerprints differ")
        for fp in sorted(fingerprints(base) ^ fingerprints(new)):
            print("  " + fp)
        sys.exit(2)
    regressed = False
    for workload in sorted(base):
        runs = base[workload]
        print("%s (%d runs)" % (workload, len(runs)))
        report_counts("base", runs)
        if new is None:
            for m in metrics:
                vals = values(runs, m["name"])
                s = spread(vals)
                flag = "  WIDE" if s > m["bound"] / 3 else ""
                print("  %-18s median %-14.6g spread %.4f  bound %.2f%s"
                      % (m["name"], statistics.median(vals), s, m["bound"], flag))
            continue
        if workload not in new:
            print("  missing from " + sys.argv[2])
            continue
        report_counts("new", new[workload])
        for m in metrics:
            b = statistics.median(values(runs, m["name"]))
            n = statistics.median(values(new[workload], m["name"]))
            worse = (n - b if m["better"] == "lower" else b - n) / abs(b) if b else 0.0
            verdict = "REGRESSED" if worse > m["bound"] else "ok"
            regressed |= worse > m["bound"]
            print("  %-18s base %-14.6g new %-14.6g worse by %+.4f (bound %.2f) %s"
                  % (m["name"], b, n, worse, m["bound"], verdict))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
