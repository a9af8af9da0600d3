#!/usr/bin/env python3
"""Smoke test of the benchmark, run from the repository root:

    python3 perfbench/smoke.py

1. Runs every workload at reduced size, untraced and traced, and asserts
   that each run emits exactly the metrics BENCHMARK.json declares for
   that mode, each with its declared unit and a finite value, and that
   no output check failed (error rate 0).
2. Generates every workload at full size with the default seed (1) and a
   second seed (2) and asserts their shapes stay close: non-zeros, block
   fill, maximum degree and SpGEMM flops. A fresh-seed run therefore
   measures the same workload.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Largest relative difference allowed between the two seeds' shapes.
SHAPE_TOLERANCE = {"nnz": 0.02, "block_fill": 0.05, "max_degree": 0.20, "flops": 0.05}


def run(command, *args):
    proc = subprocess.run(command + list(args), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            before = len(failures)
            result = run(command, "--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--scale", "smoke")
            want = {m["name"]: m["unit"] for m in declared}
            got = result["metrics"]
            where = f"{workload} --trace {trace}"
            if set(got) != set(want):
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            for name, metric in got.items():
                if name in want and metric["unit"] != want[name]:
                    failures.append(f"{where}: {name} has unit {metric['unit']}, "
                                    f"declared {want[name]}")
                if not math.isfinite(metric["value"]):
                    failures.append(f"{where}: {name} is not finite")
            if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
                failures.append(f"{where}: {result['failed']} of {result['attempted']} "
                                "output checks failed")
            if len(failures) == before:
                print(f"ok   {where}: {len(got)} metrics, {result['attempted']} checks, 0 failed")

        shapes = [run(command, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                      "--trace", "0", "--shape") for seed in (1, 2)]
        before = len(failures)
        for key, tol in SHAPE_TOLERANCE.items():
            a, b = shapes[0][key], shapes[1][key]
            if abs(a - b) > tol * max(abs(a), abs(b)):
                failures.append(f"{workload}: {key} moves from {a} to {b} between seeds 1 and 2")
        if len(failures) == before:
            print(f"ok   {workload}: seed 2 shape within tolerance of seed 1")

    for failure in failures:
        print("FAIL", failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
