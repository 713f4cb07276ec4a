"""Self-test of the benchmark at tiny sizes; makes no timing assertion.

    python3 bench/selftest.py
"""

import dataclasses
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the package sources on the path)
import harness  # noqa: E402
from convdecomp import BinaryPoint, GapVerifier, KnapsackProblem, load_instance  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "knapsack-deep": dict(n=8, epsilon=Fraction(1, 10), instances=3),
    "knapsack-wide": dict(n=12, instances=2),
    "explicit-oracle": dict(n=5, instances=2, per_instance=2),
}


def tiny(name):
    return dataclasses.replace(harness.WORKLOADS[name], **TINY[name])


class OriginVerifier(GapVerifier):
    """Claims a gap of 2 but always answers the origin."""

    def query(self, mu):
        return BinaryPoint.origin(self.n)


class DishonestKnapsack(KnapsackProblem):
    @property
    def verifier(self):
        return OriginVerifier(self.n, 2)


def dishonest_load(path):
    return DishonestKnapsack(load_instance(path).instance)


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_its_unit(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in harness.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    _, result = run.run_workload(tiny(name), 3, 0, trace)
                    self.assertTrue(result["correct"])
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, expected)

    def test_counts_and_digest_repeat_exactly(self):
        first = run.run_workload(tiny("knapsack-deep"), 5, 0, True)
        second = run.run_workload(tiny("knapsack-deep"), 5, 0, True)
        self.assertEqual(first[0], second[0])  # the digest line
        for name, metric in first[1]["metrics"].items():
            if metric["unit"] in ("count", "bits", "bytes"):
                self.assertEqual(metric, second[1]["metrics"][name], name)

    def test_dishonest_verifier_is_a_failed_request(self):
        for trace in (False, True):
            with self.subTest(trace=trace):
                lines, result = run.run_workload(
                    tiny("knapsack-deep"), 1, 0, trace, load=dishonest_load
                )
                self.assertEqual(result["failed"], result["attempted"])
                self.assertIn("verifier_violation=3", lines[0])


if __name__ == "__main__":
    unittest.main()
