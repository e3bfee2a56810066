#!/usr/bin/env python3
"""Smoke test of the wall-clock benchmark.

Runs every workload of BENCHMARK.json at tiny sizes (--smoke), untraced and
traced, and checks that each run passes its output checks, reports every
named metric with its unit, and has an error rate of 0. Also checks that
the benchmark refuses to run without the library sources. Takes about a
minute once the benchmark is built (the first run builds it).

Run from anywhere:  python3 wallbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("wallbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        out = run_bench(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertIn("checker self-test: caught 2 of 2", out.stdout)
        self.assertIn("failed 0, error_rate 0.000000", out.stdout)

        key = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        if trace:
            self.assertEqual(result["metrics"]["error_rate"]["value"], 0)
            self.assertIn("unattributed", out.stdout)
            self.assertIn("tracing overhead", out.stdout)
        return result

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0)

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_run(w["name"], 1)
                if w["name"] == "serve-burst":
                    self.assertIn("core.governor_spills", result["metrics"])

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench("inmem-f64", 0, cwd=tmp)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
