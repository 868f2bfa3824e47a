#!/usr/bin/env python3
"""Tests of the benchmark's own logic. Run from the checkout root:

    python3 e2ebench/test_e2ebench.py

They build the harness, run its self-test (percentile rule, Poisson schedule
determinism, Zipf sampler) and check that every metric it can print matches
BENCHMARK.json by name, unit and direction.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class BenchmarkLogicTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("e2ebench build failed")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_selftest_passes(self):
        proc = subprocess.run([self.binary, "--selftest"], capture_output=True,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("checks passed", proc.stdout)

    def test_catalog_matches_benchmark_json(self):
        out = subprocess.run([self.binary, "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout
        catalog = json.loads(out)
        for key in ("end_to_end", "per_layer"):
            listed = [(m["name"], m["unit"], m["better"]) for m in self.spec[key]]
            printed = [(m["name"], m["unit"], m["better"]) for m in catalog[key]]
            self.assertEqual(listed, printed, key)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         catalog["workloads"])

    def test_setup_metric_is_present(self):
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"] for m in
                                               self.spec["end_to_end"])}])

    def test_mismatch_is_reported(self):
        expected = [("a", "s"), ("b", "us")]
        ok = {"metrics": {"a": {"value": 1.0, "unit": "s"},
                          "b": {"value": 2.0, "unit": "us"}}}
        self.assertEqual(run.metrics_mismatch(ok, expected), "")
        wrong_unit = {"metrics": {"a": {"value": 1.0, "unit": "ms"},
                                  "b": {"value": 2.0, "unit": "us"}}}
        self.assertNotEqual(run.metrics_mismatch(wrong_unit, expected), "")
        missing = {"metrics": {"a": {"value": 1.0, "unit": "s"}}}
        self.assertNotEqual(run.metrics_mismatch(missing, expected), "")


if __name__ == "__main__":
    unittest.main()
