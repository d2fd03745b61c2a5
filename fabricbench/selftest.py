#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

Usage (from the repository root):

    python3 fabricbench/selftest.py [--seed 1]

1. Runs every workload with `--perturb`, which corrupts one entry of its
   model (campus_week: a tracked delivery expected dropped;
   warehouse_roam: one endpoint expected on the wrong edge; edge_engine:
   a wrong expected RLOC and a flipped verdict; metro_ctrl: a missing
   publish), and confirms the run reports failed operations, prints
   `"correct": false` and exits with code 1.
2. Runs each fabric workload twice with one seed and confirms that every
   simulated metric and count of the traced output is identical, and
   that neither run failed an operation.

Exits 0 when every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["campus_week", "warehouse_roam", "edge_engine", "metro_ctrl"]
FABRIC = ["campus_week", "warehouse_roam"]
# Units of values the simulation fixes (host timings excluded).
SIMULATED_UNITS = {"count", "ratio", "entries", "sim_ms"}


def run(workload, seed, trace, perturb=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if perturb:
        cmd.append("--perturb")
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if p.returncode not in (0, 1):
        raise RuntimeError(f"{workload}: exit code {p.returncode}")
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    ok = True
    for w in WORKLOADS:
        code, r = run(w, seed, 0, perturb=True)
        good = r["failed"] > 0 and r["correct"] is False and code == 1
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} perturbed {w}: {r['failed']} of {r['attempted']} failed,"
              f" correct {r['correct']}, exit code {code}")
    for w in FABRIC:
        (ca, a), (cb, b) = run(w, seed, 1), run(w, seed, 1)
        sim = lambda r: {n: m["value"] for n, m in r["metrics"].items()
                         if m["unit"] in SIMULATED_UNITS and not n.startswith("trace.")}
        same = sim(a) == sim(b) and a["failed"] == b["failed"] == 0 and ca == cb == 0
        ok &= same
        diff = {n: (v, sim(b).get(n)) for n, v in sim(a).items() if sim(b).get(n) != v}
        print(f"{'ok  ' if same else 'FAIL'} repeat {w}: {len(sim(a))} simulated values"
              f"{' identical' if not diff else f' differ: {diff}'}, failed {a['failed']}/{b['failed']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
