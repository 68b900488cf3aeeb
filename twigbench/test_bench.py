#!/usr/bin/env python3
"""Tests of the benchmark itself, on a small corpus.

Run from the repository root:

    python3 twigbench/test_bench.py

Checks that a short run of every workload completes, prints every
metric BENCHMARK.json names with its unit, and passes the correctness
gate; that a planted wrong reference estimate makes the gate fail with
a nonzero exit code; and that the benchmark exits nonzero without a
result when the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SMALL_CORPUS = "262144"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace),
         "--corpus-bytes", SMALL_CORPUS, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


class BenchmarkTest(unittest.TestCase):

    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], (int, float), m["name"])

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            for trace, specs in ((0, SPEC["end_to_end"]),
                                 (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.assertIsNotNone(result, proc.stdout[-2000:])
                    self.check_metrics(result, specs)
                    if trace == 0:
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0,
                                m["name"])

    def test_planted_wrong_reference_fails_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, 0, "--plant-wrong-reference")
                self.assertNotEqual(proc.returncode, 0)
                self.assertIsNotNone(result, proc.stdout[-2000:])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn("mismatch", proc.stderr)

    def test_missing_sources_exit_nonzero_without_result(self):
        # A directory with only BENCHMARK.json and the benchmark's files.
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(bare, "twigbench", "run.py"),
                 "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
