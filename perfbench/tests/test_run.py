#!/usr/bin/env python3
"""Smoke and interface tests of perfbench/run.py.

    python3 perfbench/tests/test_run.py

Runs every workload briefly, untraced and traced, with all output checks on,
and asserts a correct result line carrying exactly the metrics BENCHMARK.json
lists; then checks that the command fails cleanly, without a result line,
in a directory holding only BENCHMARK.json and perfbench/. Everything it
writes stays under .bench_out/ of the checkout.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ["python3", "perfbench/run.py"]
WORKLOADS = ("paper-sweep", "fleet-10x", "daemon-mixed", "shard-sweep")


def run(args, cwd=ROOT, timeout=300):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=timeout)


class SmokeTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_result(self, proc, trace):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:] + proc.stdout[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        self.assertIn("fingerprint: ", proc.stdout)
        self.assertIn("fail_share = 0 ", proc.stdout)
        return result

    def test_every_workload_untraced_and_traced(self):
        reported = set()
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(["--workload", workload, "--seed", "7", "--seconds", "2",
                                "--trace", str(trace)])
                    result = self.check_result(proc, trace)
                    if trace:
                        share = result["metrics"]["trace.accounted_share"]["value"]
                        self.assertAlmostEqual(share, 1.0, places=6)
                        report = ROOT / ".bench_out" / f"result-{workload}-7-trace1.json"
                        reported |= set(json.loads(report.read_text())["layer"])
        # run.py reads a layer a workload never calls as 0, so a metric the
        # workloads stopped reporting would pass unnoticed: every per-layer
        # metric must come from at least one workload's own report.
        missing = {m["name"] for m in self.spec["per_layer"]} - reported
        self.assertEqual(missing, set(), "per-layer metrics no workload reports")

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "paper-sweep", "--seed", "1", "--seconds", "1"], cwd=bare,
                   timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(0 if unittest.main(exit=False).result.wasSuccessful() else 1)
