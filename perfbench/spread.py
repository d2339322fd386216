#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workload short_mix --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (untraced) and prints, per metric, the
median of the runs and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json.  A benchmark is steady when every spread but setup_s's is
well inside its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds",
                                  str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit("run with seed %d failed" % seed)
        result = json.loads(lines[-1])
        row = []
        for name in bounds:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append("%s=%.6g" % (name, v))
        print("seed %d: %s" % (seed, " ".join(row)), flush=True)
    print("%-14s %14s %8s %8s" % ("metric", "median", "iqr/med", "bound"))
    for name, vs in values.items():
        q = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        print("%-14s %14.6g %8.4f %8.3f" % (name, med, (q[2] - q[0]) / med,
                                            bounds[name]))


if __name__ == "__main__":
    main()
