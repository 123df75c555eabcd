#!/usr/bin/env python3
"""Self-tests of the benchmark, at a tiny size (about half a minute).

    python3 perfbench/test_perfbench.py

- every metric a run prints is listed in BENCHMARK.json with the same unit
  and section, and every listed metric is printed;
- a perturbed recorded digest is reported as a failed cell, both when the
  run's own seed has recorded digests and when the default seed is checked.
"""
import json
import shutil
import subprocess
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.OUT / "selftest"


def perfbench(*args):
    """Runs the binary; returns (result JSON, full stdout)."""
    out = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1]), out


def tiny(workload, seed, trace, *extra):
    return perfbench("--workload", workload, "--seed", str(seed),
                     "--seconds", "0.3", "--trace", str(trace),
                     "--size", "tiny", *extra)[0]


class MetricNames(unittest.TestCase):
    def test_list_matches_benchmark_json(self):
        listed = subprocess.run([str(BINARY), "--list-metrics"], check=True,
                                capture_output=True, text=True).stdout.split("\n")
        got = {tuple(line.split()) for line in listed if line}
        want = {(section, m["name"], m["unit"], m["better"])
                for section in ("end_to_end", "per_layer")
                for m in SPEC[section]}
        self.assertEqual(got, want)

    def test_every_workload_prints_exactly_the_listed_metrics(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = tiny(workload, 3, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    listed = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual(printed, listed)
                    for m in SPEC[section]:
                        self.assertIn(m["better"], ("higher", "lower"))


class DigestCheck(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def perturb(self, workload):
        path = SCRATCH / f"{workload}.seed1.txt"
        lines = path.read_text().split()
        lines[0] = f"{int(lines[0], 16) ^ 1:08x}"
        path.write_text("\n".join(lines) + "\n")

    def test_perturbed_digest_is_reported_as_failure(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                tiny(workload, 1, 0, "--record-digests", str(SCRATCH))
                ok = tiny(workload, 1, 0, "--digest-dir", str(SCRATCH))
                self.assertTrue(ok["correct"])
                self.assertEqual(ok["failed"], 0)
                self.perturb(workload)
                own = tiny(workload, 1, 0, "--digest-dir", str(SCRATCH))
                self.assertFalse(own["correct"])
                self.assertEqual(own["failed"], 1)
                default = tiny(workload, 5, 0, "--digest-dir", str(SCRATCH))
                self.assertFalse(default["correct"])
                self.assertEqual(default["failed"], 1)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
