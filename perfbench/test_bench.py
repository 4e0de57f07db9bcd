#!/usr/bin/env python3
"""Tests of the benchmark, run at a tiny size.

    python3 perfbench/test_bench.py

Builds the benchmark through run.py, runs every workload untraced and
traced with two seeds, and checks the output against BENCHMARK.json.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SEEDS = (1, 2)


def run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)


def parse(stdout):
    """The result line, the context line and the metric table of a run."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = next(json.loads(l[len("context "):]) for l in lines if l.startswith("context "))
    table = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, better = line.split()
            table[name] = (float(value), unit, better)
    return result, context, table


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.bench = json.load(f)
        cls.runs = {}
        for workload in (w["name"] for w in cls.bench["workloads"]):
            for trace in (0, 1):
                for seed in SEEDS:
                    done = run("--workload", workload, "--seed", str(seed), "--seconds", "0",
                               "--trace", str(trace), "--size", "tiny")
                    if done.returncode != 0:
                        raise AssertionError(f"{workload} trace={trace} seed={seed} failed:\n"
                                             f"{done.stdout}\n{done.stderr}")
                    cls.runs[workload, trace, seed] = parse(done.stdout)

    def declared(self, trace):
        return self.bench["per_layer" if trace else "end_to_end"]

    def test_benchmark_json_names_units_and_directions_are_valid(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in self.bench[key]]
        names += [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for key in ("end_to_end", "per_layer"):
            for m in self.bench[key]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], r"[A-Za-z0-9_/%.-]{1,16}\Z")
                self.assertIn(m["better"], ("higher", "lower"))

    def test_every_declared_metric_is_emitted_with_its_unit_and_direction(self):
        for (workload, trace, seed), (result, context, table) in self.runs.items():
            with self.subTest(workload=workload, trace=trace, seed=seed):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(context["mode"], "traced" if trace else "untraced")
                declared = self.declared(trace)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
                for m in declared:
                    emitted = result["metrics"][m["name"]]
                    self.assertEqual(emitted["unit"], m["unit"])
                    self.assertEqual(table[m["name"]], (emitted["value"], m["unit"], m["better"]))

    def test_traced_spans_cover_the_traced_wall_time(self):
        for (workload, trace, seed), (result, _, _) in self.runs.items():
            if trace:
                with self.subTest(workload=workload, seed=seed):
                    coverage = result["metrics"]["trace.coverage_frac"]["value"]
                    self.assertGreaterEqual(coverage, 0.9)

    def test_seed_changes_the_inputs_but_not_the_metric_set(self):
        for workload in (w["name"] for w in self.bench["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    (r1, c1, _), (r2, c2, _) = (self.runs[workload, trace, s] for s in SEEDS)
                    self.assertNotEqual(c1["inputs_digest"], c2["inputs_digest"])
                    self.assertEqual(set(r1["metrics"]), set(r2["metrics"]))

    def test_simulated_metrics_repeat_exactly_across_runs(self):
        for workload in (w["name"] for w in self.bench["workloads"]):
            with self.subTest(workload=workload):
                done = run("--workload", workload, "--seed", str(SEEDS[0]), "--seconds", "0",
                           "--trace", "0", "--size", "tiny")
                self.assertEqual(done.returncode, 0, done.stderr)
                _, _, again = parse(done.stdout)
                _, _, first = self.runs[workload, 0, SEEDS[0]]
                for name in ("gic_ms", "sim_latency_ms", "sim_p99_latency_ms", "group_hit_rate",
                             "degraded_frac"):
                    self.assertEqual(again[name], first[name])


class BadArguments(unittest.TestCase):
    def test_unknown_workload_fails_without_a_result(self):
        done = run("--workload", "no-such-workload", "--seed", "1", "--seconds", "0",
                   "--trace", "0", "--size", "tiny")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
