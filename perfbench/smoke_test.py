#!/usr/bin/env python3
"""Smoke test for the monitoring benchmark at tiny scale.

Runs every workload in both modes for one second on a small data set and
checks that each run exits 0, passes its output checks and full-fidelity
guard, and emits every metric BENCHMARK.json names for that mode. Run from
the root of a source checkout:

    python3 perfbench/smoke_test.py
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["point_rules", "mixed_topk", "hot_updates"]
GUARDS = ["events_sampled_out", "queue_dropped", "queue_shed",
          "breaker_skips", "errors_total", "last_error"]


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return out


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_workloads_match_spec(self):
        self.assertEqual(sorted(self.workloads), sorted(WORKLOADS))

    def check_run(self, workload, trace):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stdout[-2000:] + out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), set(self.expected[trace]))
        for name, unit in self.expected[trace].items():
            self.assertEqual(metrics[name]["unit"], unit, name)
            self.assertIsInstance(metrics[name]["value"], (int, float), name)
        checks = [l for l in lines if l.startswith("check ")]
        self.assertTrue(checks)
        self.assertFalse([l for l in checks if not l.startswith("check pass")])
        for guard in GUARDS:
            self.assertTrue(any(l.startswith("guard " + guard) for l in lines),
                            guard)
        self.assertIn("seed 7 ", lines[0])

    def test_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0)

    def test_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 1)


if __name__ == "__main__":
    unittest.main()
