#!/usr/bin/env python3
"""Builds the fabric benchmark from this checkout and runs one workload.

Usage (from the repository root):

    python3 fabricbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: campus_week, warehouse_roam, edge_engine, metro_ctrl. The
build goes to $CARGO_TARGET_DIR (default .bench_build at the root); the
last line of standard output is the run's JSON result. Traced runs also
write their spans to .bench_out/. Exits non-zero, without a result, when
the repository's crates are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("fabricbench: the repository's crates/ are missing", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        cwd=ROOT,
    )
    if build.returncode != 0:
        print("fabricbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "fabricbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
