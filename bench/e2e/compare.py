#!/usr/bin/env python3
"""Compare two sets of benchmark runs (bench/e2e/README.md, "Comparing").

usage: bench/e2e/compare.py A/ B/ [--benchmark BENCHMARK.json]

A and B hold result lines saved by `bench/e2e/run.sh --out DIR`, one file
per run named <workload>.<seed>.json; A is the parent, B the change. For
each (workload, metric) it prints both sets' median and quartiles, by how
much B's median is worse than A's (negative: better), the metric's bound,
and a verdict:

  regressed   B's median is worse than A's by more than the bound
  improved    B's median is better than A's by more than the bound, or the
              spreads are wider than the bound but every B run beats every
              A run
  within      the medians differ by no more than the bound
  unresolved  either set's spread (quartile distance over median) is wider
              than the bound, so the comparison cannot be trusted

Metrics without a bound (per-layer) get no verdict. The last column applies
the paired-run rule of the choosing-metrics guide: with at least 10 pairs
(runs of A and B with the same seed, run alternately), B claims a gain only
if it wins at least 9/10 of them, ties counting for neither, and the
medians differ by more than A's quartile distance.

Exits 1 if any metric regressed or any run failed a request, else 0.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict


def load(directory):
    """{workload: {seed: result}} from <workload>.<seed>.json files."""
    runs = defaultdict(dict)
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload, _, seed = name[: -len(".json")].rpartition(".")
        with open(os.path.join(directory, name)) as f:
            runs[workload][seed] = json.loads(f.read().strip().splitlines()[-1])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(a, b, better, bound):
    """(verdict, change) where change > 0 means B is worse."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (med_b - med_a) / med_a if med_a else 0.0
    if bound is None:
        return "-", change
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound:
        return ("improved" if b_beats_all else "unresolved"), change
    if change > bound:
        return "regressed", change
    if -change > bound:
        return "improved", change
    return "within", change


def paired(runs_a, runs_b, metric, better):
    seeds = sorted(set(runs_a) & set(runs_b))
    if len(seeds) < 10:
        return f"{len(seeds)} pairs"
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(
        1
        for s in seeds
        if sign * (runs_b[s]["metrics"][metric]["value"] - runs_a[s]["metrics"][metric]["value"]) < 0
    )
    a = [runs_a[s]["metrics"][metric]["value"] for s in seeds]
    b = [runs_b[s]["metrics"][metric]["value"] for s in seeds]
    q1, med_a, q3 = quartiles(a)
    gap = sign * (statistics.median(b) - med_a)
    gain = wins * 10 >= 9 * len(seeds) and gap < 0 and -gap > q3 - q1
    return f"{'gain' if gain else 'no gain'} {wins}/{len(seeds)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="parent runs")
    ap.add_argument("b", help="change runs")
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--benchmark", default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    runs_a, runs_b = load(args.a), load(args.b)

    bad = False
    print(f"{'workload':14s} {'metric':28s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s}"
          f" {'B worse':>8s} {'bound':>6s} {'verdict':>10s}  paired")
    for workload in sorted(set(runs_a) & set(runs_b)):
        ra, rb = runs_a[workload], runs_b[workload]
        for label, runs in (("A", ra), ("B", rb)):
            failed = sum(r["failed"] for r in runs.values())
            wrong = sum(not r["correct"] for r in runs.values())
            if failed or wrong:
                bad = True
                print(f"{workload}: set {label} has {failed} failed requests, {wrong} runs with wrong outputs")
        metrics = [m for m in next(iter(ra.values()))["metrics"] if m in defs]
        for metric in metrics:
            a = [r["metrics"][metric]["value"] for r in ra.values()]
            b = [r["metrics"][metric]["value"] for r in rb.values()]
            d = defs[metric]
            v, change = verdict(a, b, d["better"], d.get("bound"))
            bad |= v == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            bound = f"{100 * d['bound']:.0f}%" if "bound" in d else "-"
            print(f"{workload:14s} {metric:28s} {qa[1]:12.5g} [{qa[0]:9.4g}, {qa[2]:9.4g}]"
                  f" {qb[1]:12.5g} [{qb[0]:9.4g}, {qb[2]:9.4g}] {100 * change:+7.1f}% {bound:>6s}"
                  f" {v:>10s}  {paired(ra, rb, metric, d['better'])}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
