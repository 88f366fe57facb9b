#!/usr/bin/env python3
"""Compare the benchmark's results for two commits.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are directories (or single files) of run records written
by perfbench/run.py (perfbench/results/*.json by default), one set of
runs per commit.  Run it from the repository root: the bounds and
better-directions come from BENCHMARK.json.  Runs are paired in the order
they were made, so alternate the commits when making them.

For each workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict:
  better      the change won at least 9 in 10 pairs and its median is
              better than the base's by more than the base's
              interquartile range;
  worse       the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  anything else.
A change whose share of failed operations on a workload exceeds the
base's gets no "better" verdict there: a gain bought with wrong or lost
results is no gain.  Any run whose checks failed (correct false) or that
had failed operations is flagged.
Modeled metrics (unit model_s, and the jtag.* counts of traced runs)
must be identical between the two sides for the same workload and seed;
any that are not are flagged.  Exits 1 when a verdict is "worse", a run
is flagged or a modeled metric differs.
"""
import glob
import json
import os
import statistics
import sys


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = []
    for f in files:
        if f.endswith(".trace.json"):
            continue
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("benchmark") == "perfbench":
            runs.append(rec)
    runs.sort(key=lambda r: r["time"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def modeled(name, unit):
    return unit == "model_s" or name.startswith("jtag.")


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    for side, runs in (("base", base), ("change", change)):
        for r in runs:
            if not r["correct"] or r["failed"] > 0:
                print("FAILED RUN: %s %s seed %d trace %s: correct %s, %d of %d operations failed"
                      % (side, r["workload"], r["seed"], r["trace"], r["correct"], r["failed"], r["attempted"]))
                status = 1
    for w in [w["name"] for w in bench["workloads"]]:
        b_runs = [r for r in base if r["workload"] == w and not r["trace"]]
        c_runs = [r for r in change if r["workload"] == w and not r["trace"]]
        if not b_runs or not c_runs:
            continue
        lost = failed_share(c_runs) > failed_share(b_runs)
        print("%s: %d base runs, %d change runs; failed operations %.4g%% base, %.4g%% change"
              % (w, len(b_runs), len(c_runs), 100 * failed_share(b_runs), 100 * failed_share(c_runs)))
        print("  %-18s %-34s %-34s %6s  %s" % ("metric", "base q1/median/q3", "change q1/median/q3", "won", "verdict"))
        for m in bench["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            bv = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not bv or not cv:
                continue
            bq, cq = quartiles(bv), quartiles(cv)
            pairs = list(zip(bv, cv))
            won = sum(1 for b, c in pairs if (c < b if lower else c > b))
            share = won / len(pairs)
            gap = cq[1] - bq[1]
            worse_by = (gap if lower else -gap) / bq[1] if bq[1] else 0.0
            if worse_by > m["bound"]:
                verdict = "worse"
                status = 1
            elif share >= 0.9 and worse_by < 0 and abs(gap) > bq[2] - bq[0] and not lost:
                verdict = "better"
            else:
                verdict = "unresolved"
            fmt = lambda q: "%.5g/%.5g/%.5g" % q
            print("  %-18s %-34s %-34s %5.0f%%  %s" % (name, fmt(bq), fmt(cq), 100 * share, verdict))
    # Modeled figures are exact: the same workload and seed must give the
    # same value on both sides, traced runs included.
    by_key = {}
    for side, runs in (("base", base), ("change", change)):
        for r in runs:
            for name, v in r["metrics"].items():
                if modeled(name, v["unit"]):
                    by_key.setdefault((r["workload"], r["seed"], name), {}).setdefault(side, set()).add(v["value"])
    for (w, seed, name), sides in sorted(by_key.items()):
        if len(sides) == 2 and sides["base"] != sides["change"]:
            print("MODELED METRIC DIFFERS: %s seed %d %s: base %s, change %s"
                  % (w, seed, name, sorted(sides["base"]), sorted(sides["change"])))
            status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
