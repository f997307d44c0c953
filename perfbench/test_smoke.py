"""Smoke test of the benchmark on its one-command corpus, `verify a I2(5)`.

Run from the root of a checkout: python3 -m pytest perfbench/test_smoke.py
(or python3 -m unittest discover -s perfbench -p "test_*.py").
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=120)


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def check_metrics(self, trace: int, section: str):
        proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for metric in self.spec[section]:
            self.assertIn(metric["name"], result["metrics"])
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))
        self.assertEqual(set(result["metrics"]), {m["name"] for m in self.spec[section]})

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics_printed_with_units(self):
        self.check_metrics(1, "per_layer")

    def test_traced_call_counts_repeat(self):
        calls = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "trace_child.py"),
                                   "verify", "a", "I2(5)"], capture_output=True, text=True,
                                  cwd=ROOT, env=run.child_env(), timeout=120)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            spans = json.loads(proc.stderr.strip().splitlines()[-1])["spans"]
            calls.append({name: s["calls"] for name, s in spans.items()})
        self.assertEqual(calls[0], calls[1])
        self.assertGreater(calls[0]["cli.main"], 0)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class OutputCheckTest(unittest.TestCase):
    """The checks must reject outputs the paper does not allow."""

    def test_closed_forms(self):
        self.assertEqual(run.group_facts("I2(7)"), (14, 5))
        self.assertEqual(run.group_facts("I2(4)"), (8, 5))
        self.assertEqual(run.group_facts("A1xA1xI2(5)"), (40, 16))
        self.assertEqual(run.group_facts("A1xB3"), (96, 20))

    def test_wrong_verdict_and_residual_are_caught(self):
        zero = {"conductor": 5, "coeffs": [["0", "1"]] * 4}
        one = {"conductor": 5, "coeffs": [["1", "1"]] + [["0", "1"]] * 3}
        report = {"status": "failed", "checks": [{"label": "x", "ok": True, "detail": ""}],
                  "residuals": {"regular-sum": {"classes": ["e", "s1", "s1*s2", "s1*s2*s1*s2"],
                                                "values": [zero, zero, one, zero]}}}
        problems = run.check_output(("verify", "a", "I2(5)"), json.dumps(report), {})
        self.assertIn("status failed, expected verified", problems)
        self.assertIn("residual regular-sum is not zero", problems)
        self.assertIn("no recorded digest", problems)
        self.assertFalse(any("classes" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
