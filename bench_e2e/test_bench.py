#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the root of the source tree (builds the driver on first use):

    python3 bench_e2e/test_bench.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def run(*args):
    """Runs the benchmark; returns (exit code, parsed last line or None)."""
    done = subprocess.run(
        [sys.executable, os.path.join("bench_e2e", "run.py")] + list(args),
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def names(section):
    with open(SPEC) as f:
        return sorted(m["name"] for m in json.load(f)[section])


class BenchmarkTest(unittest.TestCase):

    def test_clean_run_is_correct_and_prints_every_end_to_end_metric(self):
        code, result = run("--workload", "fig3_flat", "--seed", "1",
                           "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(sorted(result["metrics"]), names("end_to_end"))
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_corrupted_output_is_counted(self):
        code, result = run("--workload", "fig3_flat", "--seed", "1",
                           "--seconds", "1", "--trace", "0",
                           "--inject-corruption", "word_count")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["correct_ratio"]["value"], 1)

    def test_corrupted_compile_output_is_counted(self):
        code, result = run("--workload", "compile_table1", "--seed", "1",
                           "--seconds", "1", "--trace", "0",
                           "--inject-corruption", "pagerank")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_traced_run_prints_every_per_layer_metric(self):
        code, result = run("--workload", "compile_table1", "--seed", "2",
                           "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]), names("per_layer"))
        metrics = result["metrics"]
        self.assertEqual(metrics["analysis.verdict_errors"]["value"] > 0, True)
        self.assertEqual(metrics["plan.stages"]["value"], 0)
        self.assertGreater(metrics["bench.accounted_share"]["value"], 0.8)

    def test_bad_arguments_fail_without_a_result(self):
        code, result = run("--workload", "no_such_workload", "--seed", "1",
                           "--seconds", "1", "--trace", "0")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
