#!/usr/bin/env python3
"""Determinism and coverage self-check of the traced run.

    python3 perfbench/selfcheck.py [--seconds 4]

For every workload: two traced runs with seed 0 must draw identical inputs
and give identical ``*.calls`` and ``*.field_ops``; a run with seed 1 must
draw other inputs; and the wrappers must have caught every expected call
(the ``smoke`` lines of run.py).  Exits 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOAD_NAMES, command

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced(workload, seed, seconds):
    proc = subprocess.run(command(workload, seed, seconds, 1), cwd=ROOT,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    digest = next(ln.split()[-1] for ln in lines if ln.startswith("inputs sha256 "))
    smoke = [ln.strip() for ln in lines if ln.strip().startswith("smoke ")]
    metrics = json.loads(lines[-1])["metrics"]
    counts = {k: v["value"] for k, v in metrics.items()
              if k.endswith(".calls") or k.endswith(".field_ops")}
    return digest, counts, smoke


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=4)
    args = ap.parse_args()
    problems = []
    for workload in WORKLOAD_NAMES:
        d0, c0, smoke = traced(workload, 0, args.seconds)
        d0b, c0b, _ = traced(workload, 0, args.seconds)
        d1, _, _ = traced(workload, 1, args.seconds)
        if d0 != d0b:
            problems.append("%s: same seed drew different inputs" % workload)
        diff = sorted(k for k in c0 if c0[k] != c0b.get(k))
        if diff:
            problems.append("%s: counts differ between same-seed runs: %s"
                            % (workload, ", ".join(diff)))
        if d0 == d1:
            problems.append("%s: seeds 0 and 1 drew the same inputs" % workload)
        problems.extend("%s: %s" % (workload, s) for s in smoke if not s.endswith(": ok"))
        print("%-18s inputs %s  %d counts repeat  %s"
              % (workload, d0[:12], len(c0) - len(diff), "; ".join(smoke)))
    for p in problems:
        print("FAIL " + p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
