#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload core_compute --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The simulator library and the driver are built (Release) into
.bench_build/perfbench; later runs rebuild only what changed. Build output
goes to stderr, so the last line of stdout is the driver's result object
(with --workload all, one result line per workload). --selftest builds
and runs the driver's own tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("core_compute", "numa_intsort", "phased_memory")


def build(target):
    """Configures (once) and builds @p target; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the driver's tests")
    args = ap.parse_args()

    if args.selftest:
        if not build("perfbench_tests"):
            return 1
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_tests")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if not build("perfbench"):
        return 1
    sys.stdout.flush()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        status |= subprocess.run([
            os.path.join(BUILD, "perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
