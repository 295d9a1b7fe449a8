#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady across seeds.

    python3 perfbench/stability.py [--workload W ...] [--seeds 1-10]
                                   [--save runs.json] [--compare runs.json]

Runs perfbench/run.py once per seed and workload (untraced) and prints,
for every end-to-end metric, the median of the runs and their spread: the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median. A spread above a third of the metric's
bound in BENCHMARK.json is flagged, except for setup_s. --compare reads
the runs saved by an earlier --save and flags every metric whose median
got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(old_median, new_median, better):
    """How much worse new is than old, as a share of old (<= 0: not worse)."""
    change = (new_median - old_median) / old_median
    return change if better == "lower" else -change


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in parse_seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (w, seed, out.returncode,
                                                   out.stderr[-2000:]))
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs[w].append({k: v["value"] for k, v in result["metrics"].items()})
            print("%s seed %d: %s" % (w, seed, json.dumps(runs[w][-1])),
                  flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    before = None
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)

    ok = True
    for w in workloads:
        print("\n%s" % w)
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs[w]]
            s = spread(values)
            flag = ""
            if m["name"] != "setup_s" and s > m["bound"] / 3:
                flag = "  SPREAD > bound/3"
                ok = False
            if before and w in before:
                old = statistics.median(r[m["name"]] for r in before[w])
                d = worse_by(old, statistics.median(values), m["better"])
                flag += "  vs saved: %+.1f%% worse" % (100 * d)
                if d > m["bound"]:
                    flag += " > bound"
                    ok = False
            print("  %-12s median %12.4f %-4s spread %6.3f (bound %.2f)%s" % (
                m["name"], statistics.median(values), m["unit"], s,
                m["bound"], flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
