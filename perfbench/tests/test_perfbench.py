#!/usr/bin/env python3
"""Self-checks of the two-clock benchmark.

    python3 perfbench/tests/test_perfbench.py

Runs perfbench/run.py on shrunken shapes (--small, one pass) and checks
that a wrong answer makes it exit nonzero, that a failed solve is counted
rather than hidden, that the seed changes the inputs but no metric name,
that every workload carries its one-line reason, and that a directory
holding only the benchmark refuses to run.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py: WORKLOADS, build_dir)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, *extra, seed=1, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--small", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def digest(proc):
    return re.search(r"digest ([0-9a-f]+)", proc.stdout).group(1)


class SelfChecks(unittest.TestCase):
    def test_negated_objective_is_a_wrong_answer(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                proc = bench(w, "--doctor", "negate-objective")
                self.assertNotEqual(proc.returncode, 0, proc.stdout)
                self.assertIn("WRONG:", proc.stdout)
                self.assertFalse(result(proc)["correct"])

    def test_iteration_limit_counts_as_a_failure(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                base = bench(w)
                doctored = bench(w, "--doctor", "iteration-limit")
                self.assertEqual(base.returncode, 0, base.stdout)
                self.assertEqual(doctored.returncode, 0, doctored.stdout)
                b, d = result(base), result(doctored)
                self.assertGreater(d["failed"], b["failed"])
                self.assertLess(d["metrics"]["success_rate"]["value"],
                                b["metrics"]["success_rate"]["value"])

    def test_seed_changes_inputs_but_no_metric_name(self):
        expected = {0: [m["name"] for m in SPEC["end_to_end"]],
                    1: [m["name"] for m in SPEC["per_layer"]]}
        for w in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    a = bench(w, seed=1, trace=trace)
                    b = bench(w, seed=2, trace=trace)
                    self.assertEqual(a.returncode, 0, a.stdout)
                    self.assertEqual(b.returncode, 0, b.stdout)
                    self.assertNotEqual(digest(a), digest(b))
                    self.assertEqual(list(result(a)["metrics"]),
                                     expected[trace])
                    self.assertEqual(list(result(b)["metrics"]),
                                     expected[trace])

    def test_each_workload_carries_its_reason(self):
        listed = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"),
             "--list-workloads"],
            capture_output=True, text=True, check=True).stdout
        reasons = dict(line.split("\t") for line in listed.splitlines())
        self.assertEqual(list(reasons), list(run.WORKLOADS))
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertTrue(w["why"].strip())
            self.assertNotIn("\n", w["why"])
            self.assertEqual(reasons[w["name"]], w["why"])

    def test_bare_directory_refuses_to_run(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", "dense_paper", "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
