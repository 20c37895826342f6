#!/usr/bin/env python3
"""Compares benchmark results, or reports the spread of one set of them.

    python3 benchmark/compare.py BASE_DIR [NEW_DIR] [--bench BENCHMARK.json]

A directory holds result files named <workload>.<anything>.json, each the
last stdout line of one run (benchmark/run.sh writes them). For every
workload and metric this prints median [Q1, Q3] of each side, with the
quartiles of statistics.quantiles(values, n=4).

With one directory, each end-to-end metric's spread, (Q3 - Q1) / median, is
checked against its bound from BENCHMARK.json:
  steady      spread <= bound / 3
  noisy       bound / 3 < spread <= bound
  unresolved  spread > bound

With two, the change of the medians is judged against the bound:
  ok          NEW is not worse than BASE by more than the bound
  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  a side's spread exceeds the bound, unless every NEW run is
              better than every BASE run

setup_s is judged on its median alone: the build workloads set up in
10-70 ms, so its spread is mostly scheduling jitter. Per-layer metrics have no bound and get
no verdict. Exits 1 if any end-to-end metric is worse or unresolved.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """{workload: {metric: [values]}} of every result file in `directory`."""
    results = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        workload = os.path.basename(path).split(".")[0]
        with open(path) as f:
            result = json.load(f)
        if not result["correct"]:
            sys.exit(f"{path}: run reported a wrong answer")
        for name, metric in result["metrics"].items():
            results.setdefault(workload, {}).setdefault(name, []).append(
                metric["value"])
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


MEDIAN_ONLY = {"setup_s"}


def verdict_one(values, bound, check_spread):
    s = spread(values)
    if s > bound:
        return ("unresolved" if check_spread else "median-only"), s
    return ("steady" if s <= bound / 3 else "noisy"), s


def all_better(base, new, better):
    return min(new) > max(base) if better == "higher" else max(new) < min(base)


def verdict_two(base, new, bound, better, check_spread):
    base_median = statistics.median(base)
    change = ((statistics.median(new) - base_median) / abs(base_median)
              if base_median else 0.0)
    worsening = -change if better == "higher" else change
    if check_spread and (spread(base) > bound or spread(new) > bound):
        return ("ok" if all_better(base, new, better) else "unresolved"), change
    return ("worse" if worsening > bound else "ok"), change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    base = load(args.base)
    new = load(args.new) if args.new else None

    failed = False
    for workload in sorted(base):
        print(workload)
        for name in sorted(base[workload]):
            values = base[workload][name]
            spec = bounds.get(name)
            line = f"  {name:36s} {fmt(values):44s}"
            if new is not None:
                other = new.get(workload, {}).get(name)
                if other is None:
                    print(line + " (missing in NEW)")
                    failed |= spec is not None
                    continue
                line += f" -> {fmt(other):44s}"
            if spec:
                bound = spec["bound"]
                check_spread = name not in MEDIAN_ONLY
                if new is None:
                    verdict, s = verdict_one(values, bound, check_spread)
                    line += f" spread {s:7.2%}"
                    failed |= verdict == "unresolved"
                else:
                    verdict, change = verdict_two(values, other, bound,
                                                  spec["better"], check_spread)
                    line += f" change {change:+7.2%}"
                    failed |= verdict != "ok"
                line += f" bound {bound:.0%} {verdict}"
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
