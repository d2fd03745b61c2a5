#!/usr/bin/env python3
"""Reruns chosen workloads, alternating between them, and prints each
metric's median, quartiles and relative spread.

Usage (from the repository root):

    python3 fabricbench/spread.py --workloads campus_week,edge_engine \
        [--runs 10] [--seconds 10] [--trace 0] [--seed 1]

Run i of every workload uses seed `--seed` + i, so each workload sees the
same seeds. The spread is (Q3 - Q1) / median with the quartiles of
Python's statistics.quantiles(values, n=4). The failed share of every
run is printed too; it must be identical across runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    results = {w: [] for w in workloads}
    for i in range(a.runs):
        for w in workloads:
            r = run_once(w, a.seed + i, a.seconds, a.trace)
            results[w].append(r)
            share = r["failed"] / r["attempted"]
            print(f"# {w} seed {a.seed + i}: correct={r['correct']} failed {r['failed']}/{r['attempted']} ({share:.6f})",
                  file=sys.stderr)
    for w in workloads:
        runs = results[w]
        print(f"{w}: {len(runs)} runs, failed shares {sorted({r['failed'] / r['attempted'] for r in runs})}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:36s} {unit:8s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:8.4f}")
            print(f"  {'':36s} runs: {' '.join(f'{v:.6g}' for v in vals)}")


if __name__ == "__main__":
    main()
