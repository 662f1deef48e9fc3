#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 --seconds 30
    python3 perfbench/spread.py --workloads hcrs-full-radius --seeds 5 --seconds 30

Runs ``run.py --trace 0`` once per (workload, seed), one process at a time,
and prints, for each end-to-end metric of BENCHMARK.json, the median of the
runs and the quartile spread (Q3 - Q1) / median next to the metric's bound.
A spread should stay under a third of its bound (``setup_s`` is exempt).
``--json`` also writes every run's values to a file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import command

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    proc = subprocess.run(command(workload, seed, seconds, 0), cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10, help="runs seeds 0 .. SEEDS-1")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--json", help="write every run's metric values to this file")
    args = ap.parse_args()

    # Seeds outside, workloads inside, so that slow spells of a shared
    # machine fall on every workload alike.
    raw = {w: [] for w in args.workloads}
    for seed in range(args.seeds):
        for workload in args.workloads:
            raw[workload].append(run(workload, seed, args.seconds))
    worst = 0.0
    for workload, runs in raw.items():
        print(workload)
        for m in bench["end_to_end"]:
            med, sp = spread([r[m["name"]] for r in runs])
            if m["name"] != "setup_s":
                worst = max(worst, sp / m["bound"])
            print("  %-16s median %12.6g %-4s spread %.4f  bound %.2f  spread/bound %.2f"
                  % (m["name"], med, m["unit"], sp, m["bound"], sp / m["bound"]))
    print("largest spread/bound, setup_s aside: %.2f" % worst)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
