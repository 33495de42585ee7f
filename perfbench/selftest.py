"""Self-tests of the benchmark harness (not part of the package's test suite).

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import sys
import threading
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

import layers
from tracing import MissingCallError, Span, Tracer, covered_length, require_calls, self_times


def _span(i, name, parent, start, end):
    return Span(i, name, parent, float(start), float(end))


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            _span(0, "cli.main", None, 0, 10),
            _span(1, "pipeline.run_phase1", 0, 1, 4),
            _span(2, "simulate.simulate_case", 0, 3, 6),   # overlaps span 1
            _span(3, "analysis.evaluate_vds", 0, 8, 9),
            _span(4, "fitting.fit", 1, 2, 3),
            _span(5, "channel.erfc", 4, 2.25, 2.5),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 10 - (5 + 1))      # union [1,6] and [8,9]
        self.assertAlmostEqual(own[1], 3 - 1)
        self.assertAlmostEqual(own[2], 3)
        self.assertAlmostEqual(own[4], 1 - 0.25)
        self.assertAlmostEqual(own[5], 0.25)
        by_layer = layers.layer_self_seconds(spans)
        self.assertAlmostEqual(sum(by_layer.values()), 4 + 2 + 3 + 1 + 0.75 + 0.25)
        self.assertAlmostEqual(by_layer["cli"], 4)

    def test_children_are_clipped_to_parent(self):
        self.assertAlmostEqual(covered_length([(-1, 2), (1.5, 3), (9, 12)], 0, 10), 4)
        self.assertEqual(covered_length([], 0, 1), 0.0)

    def test_worker_thread_span_takes_main_thread_parent(self):
        tracer = Tracer()
        inner = tracer.wrap("simulate.simulate_case", lambda: None)

        def outer():
            t = threading.Thread(target=inner)
            t.start()
            t.join(timeout=10)
            self.assertFalse(t.is_alive())

        tracer.wrap("pipeline.run_phase1", outer)()
        parent, child = tracer.spans
        self.assertEqual(child.parent, parent.id)
        self.assertGreaterEqual(self_times(tracer.spans)[parent.id], 0.0)


class MoleculeStepsTest(unittest.TestCase):
    def test_hand_made_signal(self):
        # 10 molecules; in flight before each step: 10, 9, 7, 7
        f = [0.1, 0.3, 0.3, 1.0]
        self.assertEqual(layers.molecule_steps(f, 10, 1), 33)
        self.assertEqual(layers.molecule_steps(f, 10, 3), 99)

    def test_exact_against_the_simulator_draws(self):
        from mcvd.simulate import SimConfig, simulate_case
        from mcvd.types import SystemParams, TimeGrid

        drawn = []
        real = np.random.Generator

        class Counting:
            def __init__(self, bitgen):
                self._rng = real(bitgen)

            def standard_normal(self, size):
                drawn.append(size[0])
                return self._rng.standard_normal(size)

        np.random.Generator = Counting
        try:
            cfg = SimConfig(n_molecules=200, n_replications=2,
                            grid=TimeGrid(1e-3, 0.2), seed=5)
            sig = simulate_case(SystemParams(d=1.0, r_tx=0.0, r_rx=5.0, diff_coeff=100.0), cfg)
        finally:
            np.random.Generator = real
        self.assertEqual(layers.molecule_steps(sig.cumulative_fraction, cfg.n_emitted, 1),
                         sum(drawn))


class MissingCallGuardTest(unittest.TestCase):
    def test_guard_fires_on_zero_calls(self):
        with self.assertRaises(MissingCallError) as ctx:
            require_calls([_span(0, "fitting.fit", None, 0, 1)],
                          ["fitting.fit", "channel.erfc"])
        self.assertIn("channel.erfc", str(ctx.exception))

    def test_guard_fires_when_a_call_site_moves(self):
        mod = types.ModuleType("fake_layer")
        mod.work = lambda: 1
        mod.caller = lambda: mod.work()
        moved = mod.work    # a caller that bound the name before tracing
        sys.modules["fake_layer"] = mod
        try:
            with Tracer() as tracer:
                tracer.patch("fake_layer", "work", "fake.work")
                moved()
            with self.assertRaises(MissingCallError):
                require_calls(tracer.spans, ["fake.work"])
            with Tracer() as tracer:
                tracer.patch("fake_layer", "work", "fake.work")
                mod.caller()
            require_calls(tracer.spans, ["fake.work"])
            self.assertIs(mod.work, moved)   # restored on exit
        finally:
            del sys.modules["fake_layer"]

    def test_trace_points_restore_the_package(self):
        import mcvd.channel
        import mcvd.pipeline
        before = (mcvd.pipeline.fit, mcvd.channel.erfc)
        with layers.install(Tracer()):
            self.assertIsNot(mcvd.pipeline.fit, before[0])
        self.assertEqual((mcvd.pipeline.fit, mcvd.channel.erfc), before)


if __name__ == "__main__":
    unittest.main()
