#!/usr/bin/env python3
"""Steadiness report: runs one workload N times, one seed per run, and
prints each metric's median, quartiles, quartile spread and largest
deviation from the median. Each run lasts run_seconds from BENCHMARK.json.
Every end-to-end metric, setup_s included, counts as steady only if its
spread is at most a third of its bound there; the exit code is 1 if any
is wider.

Run from the repository root:

    python3 perfbench/steady.py --workload blocky-kernels --runs 10
    python3 perfbench/steady.py --workload evolving-road --runs 5 --trace 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run with seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for i in range(opts.runs):
        seed = opts.first_seed + i
        result = run_once(bench["command"], opts.workload, seed, seconds, opts.trace)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} checks failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'maxdev':>8}  bound/3")
    unsteady = 0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        maxdev = max(abs(v - med) for v in vals) / med if med else 0.0
        verdict = ""
        if name in bounds:
            limit = bounds[name] / 3
            ok = spread <= limit
            unsteady += not ok
            verdict = f"{limit:.3f} {'ok' if ok else 'WIDE'}"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {maxdev:8.4f}  {verdict}")
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
