"""Self-tests of the benchmark harness (not of e8jac).

    python3 perfbench/selftest.py

They need no workload pass: the span arithmetic runs on a fake clock, the
output checks on hand-made results, and the rebinding test only imports
e8jac.
"""
from __future__ import annotations

import itertools
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    def test_self_plus_children_is_inclusive(self):
        ticks = itertools.count()
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))

        leaf = tracer.wrap("t.leaf", lambda: None)

        def mid():
            leaf()
            leaf()

        mid = tracer.wrap("t.mid", mid)

        def root():
            mid()
            leaf()

        tracer.wrap("t.root", root)()

        selfs = tracer.self_times()
        durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        children = [0.0] * len(durations)
        for i, p in enumerate(tracer.parents):
            if p >= 0:
                children[p] += durations[i]
        for i in range(len(durations)):
            self.assertEqual(selfs[i] + children[i], durations[i])
        self.assertEqual(tracer.names, ["t.root", "t.mid", "t.leaf", "t.leaf", "t.leaf"])
        self.assertEqual(tracer.parents, [-1, 0, 1, 1, 0])
        self.assertEqual(sum(selfs), durations[0])
        self.assertTrue(all(s > 0 for s in selfs))

    def test_span_closes_when_the_call_raises(self):
        tracer = spans.Tracer()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tracer.wrap("t.boom", boom)()
        self.assertGreaterEqual(tracer.ends[0], tracer.starts[0])
        self.assertEqual(tracer._stack, [])


class OutputChecks(unittest.TestCase):
    expected = {
        "verify": {"lattice": ["lattice: shell 2", "lattice: shell 4"]},
        "coset_minima": {"6": 36},
        "expand": {"x2": workloads.sha256("right\n")},
    }

    def test_matching_outputs_pass(self):
        verify_out = json.dumps({"checks": [
            {"name": "lattice: shell 2", "ok": True, "detail": ""},
            {"name": "lattice: shell 4", "ok": True, "detail": ""},
        ]})
        results = [
            ("verify:lattice", (0, verify_out), None),
            ("coset-minima:6", (0, '{"max_min_norm": 36, "t": 6}\n'), None),
            ("expand:x2", (0, "right\n"), None),
            ("qp:b2", workloads.QP_SAMPLES, None),
        ]
        self.assertEqual(workloads.check(results, self.expected), (5, []))

    def test_wrong_digest_is_a_failed_operation(self):
        attempted, failures = workloads.check(
            [("expand:x2", (0, "wrong\n"), None)], self.expected)
        self.assertEqual(attempted, 1)
        self.assertEqual(len(failures), 1)
        self.assertIn("expand:x2", failures[0])

    def test_failed_check_raise_and_short_count_are_failures(self):
        verify_out = json.dumps({"checks": [
            {"name": "lattice: shell 2", "ok": False, "detail": "bad"},
        ]})
        results = [
            ("verify:lattice", (1, verify_out), None),
            ("coset-minima:6", None, "Traceback\nBudgetError: too big\n"),
            ("qp:b2", workloads.QP_SAMPLES - 1, None),
        ]
        attempted, failures = workloads.check(results, self.expected)
        self.assertEqual(attempted, 4)
        self.assertEqual(len(failures), 4)


class Rebinding(unittest.TestCase):
    def test_import_time_bindings_are_rebound(self):
        import e8jac
        from e8jac import catalog, e8, invring, jacobi

        originals = {
            "orbit_array": e8.orbit_array,
            "build_phi16_4": catalog.build_phi16_4,
        }
        tracer = spans.Tracer()
        rebound = spans.install(tracer)
        self.assertTrue(all(rebound[s] > 0 for s in spans.SPANS), rebound)
        for mod in (e8, invring, jacobi, e8jac):
            self.assertIsNot(mod.orbit_array, originals["orbit_array"])
            self.assertEqual(mod.orbit_array.__wrapped_span__, "e8.orbit_array")
        builder = catalog.REGISTRY["phi_-16_4"].builder
        self.assertEqual(builder.__wrapped_span__, "catalog.build_phi16_4")
        self.assertIsNot(builder, originals["build_phi16_4"])


if __name__ == "__main__":
    unittest.main()
