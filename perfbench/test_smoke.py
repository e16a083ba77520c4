#!/usr/bin/env python3
"""The benchmark's own tests. Run from anywhere:

    python3 perfbench/test_smoke.py

Each workload runs at minimal size (--smoke) with tracing off and on; the
result line must have exactly the contract's keys and exactly the metric
names and units BENCHMARK.json declares. A deliberately wrong reference
value must make the run exit non-zero without printing a result.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, *extra):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)


class Smoke(unittest.TestCase):
    def check_result(self, workload, trace):
        p = bench(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_result(w["name"], 0)

    def test_workloads_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_result(w["name"], 1)

    def test_wrong_reference_fails(self):
        with open(os.path.join(HERE, "reference.json")) as f:
            ref = json.load(f)
        ref["smoke"]["edit_sync"]["b_down"] += 1
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False,
                                         dir=scratch) as f:
            json.dump(ref, f)
        try:
            p = bench("edit_sync", 0, "--reference", f.name)
        finally:
            os.unlink(f.name)
        self.assertNotEqual(p.returncode, 0)
        self.assertIn("differ from the reference", p.stderr)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
