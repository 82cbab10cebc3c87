"""Tests of the benchmark itself: seeded job generation and the result format.

Run from the root of the repository:

    python3 -m unittest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args):
    return subprocess.run(["python3", "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True)


def jobs(workload, seed):
    p = run("--workload", workload, "--seed", str(seed), "--seconds",
            str(SPEC["run_seconds"]), "--trace", "0", "--list-jobs")
    assert p.returncode == 0, p.stderr
    return p.stdout


class Generation(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for w in WORKLOADS:
            self.assertEqual(jobs(w, 7), jobs(w, 7), w)

    def test_other_seed_other_jobs(self):
        for w in WORKLOADS:
            self.assertNotEqual(jobs(w, 7), jobs(w, 8), w)

    def test_job_count_follows_seconds(self):
        for w in WORKLOADS:
            a = jobs(w, 7).count("kind=")
            self.assertGreaterEqual(a, 100, w)


class Smoke(unittest.TestCase):
    def check(self, workload, trace, expected):
        p = run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke")
        self.assertEqual(p.returncode, 0, p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_has_a_name_and_unit(self):
        for w in WORKLOADS:
            self.check(w, 0, SPEC["end_to_end"])
            self.check(w, 1, SPEC["per_layer"])

    def test_rejects_unknown_workload(self):
        p = run("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
