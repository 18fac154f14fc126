"""Self-test of the benchmark's oracles and tracer, at tiny sizes.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  It is
not named ``test_*.py``, so the repository's pytest run does not collect it.
"""

from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402


class OracleTest(unittest.TestCase):
    def test_inverse_tail_is_exact(self):
        t = np.linspace(0.0, 2.0, 11)
        for lam, mu in ((1.0, 0.5), (0.5, 1.0), (1.0, 1.0)):
            back = gen.inv_F_const(lam, mu, gen.F_const(lam, mu, t))
            np.testing.assert_allclose(back, t, rtol=1e-12, atol=1e-14)

    def test_loglik_matches_cppgen_closed_form(self):
        from cppgen.kernel import ClosedFormTail
        from cppgen.ksample import bernoulli_loglikelihood, full_loglikelihood
        from cppgen.model import newick_to_tree

        rng = np.random.default_rng(0)
        F = ClosedFormTail(1.0, 0.2, 3.0)
        for y in (1.0, 0.3):
            trees = gen.sample_cpp_trees(1.0, 0.2, 3.0, 20, rng, y)
            parsed = [newick_to_tree(gen.tree_newick(d, 3.0)) for d in trees]
            for d, p in zip(trees, parsed):
                self.assertAlmostEqual(p.height, 3.0, places=12)
                np.testing.assert_allclose(p.depths, d, rtol=1e-12, atol=1e-12)
            ref = sum(bernoulli_loglikelihood(p, F, y) if y < 1 else full_loglikelihood(p, F)
                      for p in parsed)
            self.assertAlmostEqual(gen.loglik_const(trees, 1.0, 0.2, 3.0, y) / ref, 1.0, places=12)

    def test_tip_counts_are_geometric(self):
        FT = float(gen.F_const(1.0, 0.5, 2.0))
        tips = [len(d) + 1 for d in gen.sample_cpp_trees(1.0, 0.5, 2.0, 4000, np.random.default_rng(2))]
        self.assertAlmostEqual(np.mean(tips) / FT, 1.0, delta=0.01)
        self.assertAlmostEqual(np.mean(np.equal(tips, 1)), 1.0 / FT, delta=0.01)
        self.assertAlmostEqual(np.var(tips) / (FT * (FT - 1.0)), 1.0, delta=0.1)

    def test_k_trees_have_k_tips_below_T(self):
        trees = gen.sample_k_trees(1.0, 0.5, 2.0, 4, 50, np.random.default_rng(1))
        self.assertEqual(len(trees), 50)
        depths = np.array(trees)
        self.assertEqual(depths.shape, (50, 3))
        self.assertTrue(np.all((depths > 0) & (depths < 2.0)))

    def test_time_varying_F_reduces_to_constant(self):
        for t in (0.3, 1.0, 2.0):
            self.assertAlmostEqual(
                gen.F_time_varying([0.0, 0.7], [1.2, 1.2], 0.5, 2.0, t),
                float(gen.F_const(1.2, 0.5, t)), places=12)

    def test_time_varying_loglik_reduces_to_constant(self):
        trees = gen.sample_cpp_trees(1.2, 0.5, 2.0, 30, np.random.default_rng(3))
        self.assertAlmostEqual(
            gen.loglik_time_varying(trees, [0.0, 0.7], [1.2, 1.2], 0.5, 2.0)
            / gen.loglik_const(trees, 1.2, 0.5, 2.0), 1.0, places=12)

    def test_time_varying_dF_is_the_derivative(self):
        t = np.array([0.3, 0.69, 0.71, 1.5])  # either side of the break at T - 1.3
        h = 1e-6
        fd = (gen.F_time_varying([0.0, 1.3], [1.0, 1.5], 0.5, 2.0, t + h)
              - gen.F_time_varying([0.0, 1.3], [1.0, 1.5], 0.5, 2.0, t - h)) / (2 * h)
        np.testing.assert_allclose(gen.dF_time_varying([0.0, 1.3], [1.0, 1.5], 0.5, 2.0, t),
                                   fd, rtol=1e-8)

    def test_time_varying_F_matches_quadrature(self):
        from scipy.integrate import quad

        def lam(s):
            return 1.0 if s < 1.3 else 1.5

        def G(s):  # int_s^2 (lam - mu)
            return quad(lambda u: lam(u) - 0.5, s, 2.0, points=[1.3])[0]

        exact = 1.0 + quad(lambda s: lam(s) * math.exp(G(s)), 0.0, 2.0, points=[1.3])[0]
        self.assertAlmostEqual(gen.F_time_varying([0.0, 1.3], [1.0, 1.5], 0.5, 2.0, 2.0) / exact,
                               1.0, places=9)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_union_of_direct_children(self):
        spans = [
            ["root", 0.0, 10.0, -1, None],
            ["a", 1.0, 3.0, 0, None],
            ["b", 2.0, 4.0, 0, None],  # overlaps a: counted once
            ["c", 8.0, 12.0, 0, None],  # clipped to the parent's end
            ["grandchild", 1.5, 2.5, 1, None],  # not a direct child of root
        ]
        self.assertEqual(tracer.self_times(spans), [5.0, 1.0, 2.0, 4.0, 1.0])

    def test_wrapped_calls_nest(self):
        class Mod:
            @staticmethod
            def outer(n):
                return [Mod.inner(i) for i in range(n)]

            @staticmethod
            def inner(i):
                return i

        tr = tracer.Tracer()
        tr.wrap(Mod, "outer", "outer")
        tr.wrap(Mod, "inner", "inner", lambda a, k, o: o + 1)
        Mod.outer(3)
        tr.restore()
        Mod.outer(1)  # restored: no new spans
        self.assertEqual([s[0] for s in tr.spans], ["outer", "inner", "inner", "inner"])
        self.assertEqual([s[3] for s in tr.spans], [-1, 0, 0, 0])
        self.assertEqual([s[4] for s in tr.spans[1:]], [1, 2, 3])
        selfs = tracer.self_times(tr.spans)
        inner = sum(s[2] - s[1] for s in tr.spans[1:])
        self.assertAlmostEqual(selfs[0], tr.spans[0][2] - tr.spans[0][1] - inner, places=12)

    def test_quadrature_useful_ratio(self):
        spans = [
            ["ksample.loglik.k", 0.0, 1.0, -1, None],
            ["ksample.leggauss", 0.1, 0.2, 0, 64],
            ["ksample.leggauss", 0.3, 0.4, 0, 128],
            ["inference.nll", 1.0, 2.0, -1, None],
            ["ksample.leggauss", 1.1, 1.2, 3, 64],
            ["ksample.leggauss", 1.3, 1.4, 3, 128],
            ["ksample.leggauss", 1.5, 1.6, 3, 256],
        ]
        m = tracer.layer_metrics(spans)
        self.assertEqual(m["ksample.quad_nodes"], 640)
        self.assertAlmostEqual(m["ksample.quad_useful_ratio"], (128 + 256) / 640)
        self.assertEqual(m["ksample.leggauss.calls"], 5)
        self.assertAlmostEqual(m["inference.nll.self_s"], 0.7)

    def test_tail_keeps_ten_samples_beyond(self):
        vals = [float(v) for v in range(1, 101)]
        self.assertEqual(tracer.tail_ms(vals, 900), 90.0)
        self.assertEqual(tracer.tail_ms(vals, 990), 0.0)  # 1 sample beyond
        self.assertEqual(tracer.tail_ms(vals * 10, 990), 99.0)
        self.assertEqual(tracer.tail_ms([], 900), 0.0)


class HostSpeedTest(unittest.TestCase):
    def test_scale_divides_by_mean_of_bracketing_slices(self):
        ref = hostspeed.REFERENCE_S
        self.assertAlmostEqual(hostspeed.scale(3.0, ref, ref), 3.0)
        self.assertAlmostEqual(hostspeed.scale(3.0, ref, 3 * ref), 1.5)  # host at half speed

    def test_command_times_use_the_slices_on_either_side(self):
        import run

        ref = hostspeed.REFERENCE_S
        rep = {"times": [1.0, 2.0], "refs": [ref, 3 * ref, ref]}
        self.assertEqual([round(t, 12) for t in run.scaled_times(rep)], [0.5, 1.0])
        reps = [rep, {"times": [4.0, 4.0], "refs": [ref, ref, ref]},
                {"times": [3.0, 9.0], "refs": [ref, ref, ref]}]
        self.assertEqual([round(t, 12) for t in run.command_medians(reps)], [3.0, 4.0])
        self.assertEqual(run.command_medians(reps, scaled=False), [3.0, 4.0])


if __name__ == "__main__":
    unittest.main()
