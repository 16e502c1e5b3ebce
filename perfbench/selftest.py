"""Self-test of the benchmark in smoke mode (about a minute).

    python3 perfbench/selftest.py

Runs every workload in smoke mode with tracing off and on, and checks that
the last line is the result object with exactly the metrics BENCHMARK.json
names, each printed with its unit, and that the run was correct.  Then
checks that a directory holding only BENCHMARK.json and the benchmark
exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class SmokeTest(unittest.TestCase):
    def test_declared_metrics_match_the_benchmark(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in SPEC[key]}, table)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.NAMES))

    def test_every_metric_prints_with_its_unit(self):
        for name in workloads.NAMES:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = bench(run.ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for metric, unit in declared.items():
                        self.assertEqual(result["metrics"][metric]["unit"], unit)
                        self.assertTrue(math.isfinite(result["metrics"][metric]["value"]))
                        printed = [ln.split() for ln in lines if ln.startswith(metric + " ")]
                        self.assertEqual(len(printed), 1, metric)
                        self.assertEqual(printed[0][-1], unit, metric)

    def test_bare_directory_fails_without_a_result(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "graetz_refine", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
