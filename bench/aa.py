"""A/A steadiness check: the same code measured as two interleaved sets.

    python3 bench/aa.py --runs 5                  # every workload, 2 x 5 runs
    python3 bench/aa.py --runs 5 --workload split_sweep

Each run is `bench/run.py --trace 0` with its own seed, counting up from 1;
the runs of set A and set B alternate, and which set goes first alternates
too, so drift of a shared machine falls on both sets alike.  For every
workload and end-to-end metric, setup_s included, it prints each set's
median, quartiles and spread (interquartile range over median), the spread
of all runs pooled, and the shift of set B's median from set A's in the
metric's worse direction, each against the bound in BENCHMARK.json.  The
last line is the whole table as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, results: dict) -> dict:
    table = {}
    for workload, sets in results.items():
        rows = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            pooled = [v for values in per_set for v in values]
            row = {"bound": bound, "pooled_spread": spread(pooled),
                   "sets": [dict(zip(("q1", "median", "q3"), quartiles(v)),
                                 spread=spread(v)) for v in per_set]}
            a, b = (statistics.median(v) for v in per_set)
            row["median_shift_worse"] = (a - b) / a if m["better"] == "higher" else (b - a) / a
            checked = [row["pooled_spread"]] + [s["spread"] for s in row["sets"]]
            row["ok"] = (all(s <= bound for s in checked)
                         and row["median_shift_worse"] <= bound)
            rows[name] = row
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        table[workload] = {"metrics": rows, "failed_shares": sorted(shares),
                           "correct": all(r["correct"] for runs in sets for r in runs)}
    return table


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    args = ap.parse_args(argv)
    workloads = args.workload or names

    results = {w: [[], []] for w in workloads}
    seed = 1
    for i in range(args.runs):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for w in workloads:
                result = run_once(w, seed, spec["run_seconds"])
                results[w][s].append(result)
                print(f"run {i} set {'AB'[s]} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)
                seed += 1

    table = summarize(spec, results)
    for w, entry in table.items():
        print(f"{w}: correct={entry['correct']} failed shares={entry['failed_shares']}")
        for name, row in entry["metrics"].items():
            sets = "  ".join(f"{'AB'[i]} med {s['median']:.5g} [{s['q1']:.5g}, "
                             f"{s['q3']:.5g}] spread {s['spread']:.3%}"
                             for i, s in enumerate(row["sets"]))
            print(f"  {name:18s} {sets}  pooled {row['pooled_spread']:.3%}"
                  f"  shift {row['median_shift_worse']:+.3%}"
                  f"  bound {row['bound']:.0%}  {'ok' if row['ok'] else 'OVER'}")
    print(json.dumps(table))
    return 0 if all(row["ok"] for e in table.values() for row in e["metrics"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
