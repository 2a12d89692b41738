#!/usr/bin/env python3
"""The benchmark's own tests, on smoke-size inputs.

Run from the root of a checkout (builds .bench_build/ first if needed):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "mix", "serve")
DEFAULT_SEED = 42

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, *extra, seed=DEFAULT_SEED, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def digest_line(lines, workload):
    for line in lines:
        match = re.match(rf"digest {workload} smoke \d+ ([0-9a-f]{{16}}) \((.*)\)",
                         line)
        if match:
            return match.group(1), match.group(2)
    raise AssertionError(f"no digest line for {workload}")


class EndToEnd(unittest.TestCase):
    def test_every_metric_prints_with_its_unit_and_digest_matches(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                metrics = result["metrics"]
                self.assertEqual(set(metrics),
                                 {m["name"] for m in SPEC["end_to_end"]})
                for spec in SPEC["end_to_end"]:
                    self.assertEqual(metrics[spec["name"]]["unit"], spec["unit"])
                    self.assertGreater(metrics[spec["name"]]["value"], 0)
                _, verdict = digest_line(lines, workload)
                self.assertEqual(verdict, "matches recorded")

    def test_perturbed_statistic_trips_the_digest_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, "--perturb")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertTrue(any("CHECK FAILED" in line for line in lines))

    def test_second_seed_runs_clean_with_determinism_only(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, seed=7)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                _, verdict = digest_line(lines, workload)
                self.assertEqual(verdict, "no recorded value; determinism only")

    def test_one_and_four_workers_give_the_same_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                digests = set()
                for jobs in ("1", "4"):
                    code, lines, _ = run(workload, "--jobs", jobs, seed=7)
                    self.assertEqual(code, 0)
                    digests.add(digest_line(lines, workload)[0])
                self.assertEqual(len(digests), 1)


class Ledger(unittest.TestCase):
    # Span names each workload's traced run must write.
    SPANS = {
        "suite": ("analysis.unit", "analysis.plan", "sim.run_single",
                  "engine.stage.sample"),
        "mix": ("sim.run_mix",),
        "serve": ("serve.solve", "engine.stage.sample"),
    }

    def test_traced_run_reproduces_untraced_digest_and_prints_every_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, trace=1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                metrics = result["metrics"]
                self.assertEqual(set(metrics),
                                 {m["name"] for m in SPEC["per_layer"]})
                for spec in SPEC["per_layer"]:
                    self.assertEqual(metrics[spec["name"]]["unit"],
                                     spec["unit"])
                # "<w>: untraced <s> s (...), traced <s> s (...)"; the
                # benchmark fails the run if a traced digest differs.
                self.assertTrue(any(line.startswith(f"{workload}: untraced")
                                    for line in lines))
                # Layers the workload does not exercise read 0 and say so.
                unmeasured = [line.split()[0] for line in lines
                              if f"(not measured on {workload})" in line]
                self.assertTrue(unmeasured)
                for name in unmeasured:
                    self.assertEqual(metrics[name]["value"], 0)
                trace = os.path.join(ROOT, ".bench_build", "traces",
                                     f"{workload}-{DEFAULT_SEED}.json")
                with open(trace) as f:
                    events = json.load(f)["traceEvents"]
                names = {event["name"] for event in events}
                for name in self.SPANS[workload]:
                    self.assertIn(name, names)


if __name__ == "__main__":
    unittest.main()
