#!/usr/bin/env python3
"""Compare apbench result files (written by run.sh). Standard library only.

    python3 bench/apbench/compare.py BASE.json OTHER.json [MORE.json ...]

The first argument is the parent (baseline); every other argument is
compared with it. An argument may name several result files joined by
commas, whose runs are pooled: runs of the two sides taken in turn go
in one list per side. For each workload and end-to-end metric it prints
both sides'
median and quartiles, the share of (base run, other run) pairs the other
side wins (ties count for neither side) and one verdict:

  improved    the other side wins at least 9/10 of the pairs and its
              median is better by more than the parent's interquartile
              range
  regressed   the other side's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  unresolved  neither, and the parent's own spread (IQR / median) is
              wider than the bound, unless every other run beats every
              parent run
  no change   otherwise

Each workload also gets a "failed" row: the share of attempted operations
that failed on each side (the result line's failed / attempted, summed
over runs). Any increase is "regressed", and while the other side fails
more often, none of that workload's metrics counts as "improved".

Exits 1 when any verdict is "regressed".
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")


def load_runs(paths):
    """@return {workload: [run]} of the untraced runs in the
    comma-separated result files @p paths."""
    runs = {}
    for path in paths.split(","):
        with open(path) as f:
            data = json.load(f)
        for r in data["runs"]:
            if not r.get("trace"):
                runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def failed_frac(runs):
    return (sum(r["failed"] for r in runs)
            / max(1, sum(r["attempted"] for r in runs)))


def verdict(base, other, better, bound):
    """@return (verdict, wins / pairs, relative change of the median)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(a, b) for a in base for b in other]
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    b1, bm, b3 = quartiles(base)
    _, om, _ = quartiles(other)
    gain = sign * (om - bm)
    rel = (om - bm) / bm if bm else 0.0
    if wins >= 0.9 * len(pairs) and gain > b3 - b1:
        v = "improved"
    elif -gain > bound * abs(bm):
        v = "regressed"
    elif (b3 - b1) > bound * abs(bm) and wins < len(pairs):
        v = "unresolved"
    else:
        v = "no change"
    return v, wins / len(pairs), rel


def side(values):
    q1, q2, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g] (%d)" % (q2, q1, q3, len(values))


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    base_path = argv[1]
    base = load_runs(base_path)
    any_regressed = False
    for path in argv[2:]:
        other = load_runs(path)
        print("%s  vs  %s" % (base_path, path))
        print("%-16s %-12s %28s %28s %8s %6s  %s"
              % ("workload", "metric", "base median [q1, q3] (n)",
                 "other median [q1, q3] (n)", "change", "wins",
                 "verdict"))
        for workload in base:
            if workload not in other:
                continue
            fa = failed_frac(base[workload])
            fb = failed_frac(other[workload])
            more_failures = fb > fa
            any_regressed |= more_failures
            print("%-16s %-12s %28.4g %28.4g %8s %6s  %s"
                  % (workload, "failed", fa, fb, "", "",
                     "regressed" if more_failures else "no change"))
            for m in metrics:
                name = m["name"]
                a = [r["metrics"][name] for r in base[workload]]
                b = [r["metrics"][name] for r in other[workload]]
                v, wins, rel = verdict(a, b, m["better"], m["bound"])
                if v == "improved" and more_failures:
                    v = "no change"
                any_regressed |= v == "regressed"
                print("%-16s %-12s %28s %28s %+7.1f%% %5.0f%%  %s"
                      % (workload, name, side(a), side(b), 100.0 * rel,
                         100.0 * wins, v))
        print()
    return 1 if any_regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
