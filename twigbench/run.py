#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 twigbench/run.py --workload direct --seed 1 --seconds 10 --trace 0

The first call configures and compiles the library (../src) and the
twig_bench program into .bench_build/twigbench; later calls only check
that the build is up to date. Build output goes to stderr. twig_bench's
report goes to stdout; its last line is the JSON result. The exit code
is twig_bench's: nonzero when an answer differs from its reference, an
operation fails, or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "twigbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "twig_bench")
WORKLOADS = ("direct", "paged")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds twig_bench; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "twig_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test seams: a smaller corpus, and a deliberately wrong reference
    # estimate that the correctness gate must catch.
    parser.add_argument("--corpus-bytes", type=int)
    parser.add_argument("--plant-wrong-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("twigbench: the library sources (src/) are missing",
              file=sys.stderr)
        return 2
    if not build():
        print("twigbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--scratch-dir={RUN_DIR}"]
    if args.corpus_bytes is not None:
        cmd.append(f"--corpus-bytes={args.corpus_bytes}")
    if args.plant_wrong_reference:
        cmd.append("--plant-wrong-reference")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"twigbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
