"""Likelihoods and the mixture representation of uniform k-samples."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import quad

from cppgen.cpp import RandomStream
from cppgen.errors import (
    DegenerateMixtureError,
    DomainError,
    QuadratureError,
    SizeGuardError,
    TieError,
)
from cppgen.kernel import ClosedFormTail, node_depth_density_f, survival_a
from cppgen.ksample import (
    MixtureParams,
    _log_series_coef,
    definetti_sample,
    definetti_sample_many,
    bernoulli_loglikelihood,
    full_likelihood,
    full_loglikelihood,
    joint_df,
    joint_df_bruteforce,
    ksample_likelihood,
    ksample_loglikelihood,
    ksample_loglikelihoods,
    likelihood_with_missing,
    loglik,
    mixing_cdf,
    mixing_density,
    power_sum_identity,
    sample_mixing,
)
from cppgen.model import OrientedUltrametricTree, SamplingScheme, TreeBatch

F_STD = ClosedFormTail(1.0, 0.5, 2.0)
A_STD = survival_a(F_STD)


def _F(t):
    # independent closed-form expression for lam=1, mu=0.5
    return 1.0 + 2.0 * (np.exp(0.5 * np.asarray(t)) - 1.0)


def _f(t):
    return np.exp(0.5 * np.asarray(t)) / _F(t) ** 2


class TestFullLikelihood:
    def test_single_tip(self):
        tree = OrientedUltrametricTree(2.0)
        # P(N = 1) = 1 - a = 1/F(T)
        assert_allclose(full_likelihood(tree, F_STD), 1.0 / _F(2.0), rtol=1e-12)

    def test_hand_computed(self):
        tree = OrientedUltrametricTree(2.0, (0.3, 0.6))
        expect = math.log(_f(0.3)) + math.log(_f(0.6)) - math.log(_F(2.0))
        assert_allclose(full_loglikelihood(tree, F_STD), expect, rtol=1e-12)

    def test_conditional_on_survival(self):
        tree = OrientedUltrametricTree(2.0, (0.3, 0.6))
        diff = full_loglikelihood(tree, F_STD, conditional=True) - full_loglikelihood(
            tree, F_STD
        )
        assert_allclose(diff, -2.0 * math.log(A_STD), rtol=1e-12)

    def test_unoriented_factor(self):
        tree = OrientedUltrametricTree(2.0, (0.3, 0.6, 0.2))  # two cherries
        diff = full_loglikelihood(tree, F_STD, oriented=False) - full_loglikelihood(
            tree, F_STD
        )
        assert_allclose(diff, math.log(2.0), rtol=1e-12)

    def test_depth_must_be_below_height(self):
        tree = OrientedUltrametricTree(3.0, (2.5,))
        with pytest.raises(DomainError):
            full_loglikelihood(tree, F_STD)

    def test_bernoulli_equals_full_under_thinned_tail(self):
        tree = OrientedUltrametricTree(2.0, (0.3, 0.6))
        assert_allclose(
            bernoulli_loglikelihood(tree, F_STD, 0.3),
            full_loglikelihood(tree, F_STD.thinned(0.3)),
            rtol=1e-12,
        )


class TestMixing:
    @pytest.mark.parametrize("k,a", [(1, 0.3), (2, 0.77), (5, 0.9), (8, 0.99)])
    def test_density_normalized(self, k, a):
        params = MixtureParams(k, a)
        val, _ = quad(lambda y: mixing_density(params, y), 0.0, 1.0, limit=200)
        assert_allclose(val, 1.0, rtol=1e-9)

    def test_density_formula(self):
        params = MixtureParams(3, 0.6)
        y = np.linspace(0.05, 0.95, 19)
        expect = 3 * 0.4 * y**2 / (1.0 - 0.6 * (1.0 - y)) ** 4
        assert_allclose(mixing_density(params, y), expect, rtol=1e-12)

    def test_cdf_closed_form(self):
        params = MixtureParams(4, 0.8)
        y = np.linspace(0.05, 0.95, 19)
        expect = (y / (1.0 - 0.8 * (1.0 - y))) ** 4
        assert_allclose(mixing_cdf(params, y), expect, rtol=1e-12)
        assert mixing_cdf(params, 1.0) == 1.0

    def test_sampler_matches_cdf(self):
        params = MixtureParams(5, A_STD)
        rng = RandomStream(17)
        ys = np.array([sample_mixing(params, rng) for _ in range(5000)])
        ks = stats.kstest(ys, lambda y: mixing_cdf(params, y))
        assert ks.pvalue > 0.001

    def test_degenerate_no_extinct_lineages(self):
        # a = 0 means every tip is sampled: the mixture collapses at y = 1
        params = MixtureParams(3, 0.0)
        assert_allclose(mixing_cdf(params, np.array([0.5, 1.0])), [0.125, 1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "F, message",
        [(ClosedFormTail(50.0, 0.0, 20.0), "F\\(T\\) is not finite"),
         (ClosedFormTail(1.0, 0.5, 800.0), "F\\(T\\) = 1.044e\\+174 is too large"),
         (ClosedFormTail(0.0, 0.5, 2.0), "F\\(T\\) = 1: every tree has one tip")],
    )
    def test_from_tail_rejects_degenerate_F(self, F, message):
        # F(T) = inf overflows in expm1, F(T) = 1e174 rounds a to 1, and at
        # lambda = 0 no tree has 3 tips: typed errors naming F(T), without a
        # numpy warning
        with pytest.raises(DegenerateMixtureError, match=message):
            MixtureParams.from_tail(F, 3)
        with pytest.raises(DegenerateMixtureError, match=message):
            definetti_sample_many(F, 3, 2, RandomStream(1))
        with pytest.raises(DegenerateMixtureError, match=message):
            ksample_loglikelihoods([(0.3, 0.6)], F, 3)
        # a one-tip tree is certain whatever F(T): its likelihood needs no a
        assert_allclose(ksample_loglikelihoods(np.empty((2, 0)), F, 1), [0.0, 0.0])

    def test_single_tip_sample_without_coalescence(self):
        # lambda = 0: a = 0, and a 1-sample is still certain
        F = ClosedFormTail(0.0, 0.5, 2.0)
        assert MixtureParams.from_tail(F, 1).a == 0.0
        assert_allclose(ksample_loglikelihoods(np.empty((2, 0)), F, 1), [0.0, 0.0])


class TestDeFinettiSampler:
    def test_tip_count_is_k(self):
        rng = RandomStream(23)
        for k in (1, 2, 5):
            y, tree = definetti_sample(F_STD, k, rng)
            assert 0.0 < y <= 1.0
            assert tree.n_tips == k
            assert tree.height == 2.0

    def test_mixing_marginal(self):
        ys, _ = definetti_sample_many(F_STD, 5, 5000, RandomStream(29))
        params = MixtureParams(5, A_STD)
        ks = stats.kstest(ys, lambda y: mixing_cdf(params, y))
        assert ks.pvalue > 0.001

    def test_many_reproducible(self):
        ys1, trees1 = definetti_sample_many(F_STD, 3, 50, RandomStream(31))
        ys2, trees2 = definetti_sample_many(F_STD, 3, 50, RandomStream(31))
        assert_allclose(ys1, ys2, rtol=0)
        assert trees1 == trees2
        assert all(t.n_tips == 3 for t in trees1)

    def test_many_is_a_tree_batch(self):
        ys, batch = definetti_sample_many(F_STD, 4, 6, RandomStream(3))
        assert isinstance(batch, TreeBatch)
        assert ys.shape == (6,)
        assert list(batch.n_tips) == [4] * 6
        assert np.all(batch.heights == 2.0)
        _, single = definetti_sample_many(F_STD, 1, 3, RandomStream(3))
        assert list(single.n_tips) == [1, 1, 1]

    def test_replicate_count(self):
        with pytest.raises(DomainError, match="reps must be >= 0"):
            definetti_sample_many(F_STD, 3, -2, RandomStream(3))
        ys, batch = definetti_sample_many(F_STD, 3, 0, RandomStream(3))
        assert ys.shape == (0,) and len(batch) == 0

    def test_scalar_is_batch_of_one(self):
        y, tree = definetti_sample(F_STD, 4, RandomStream(41))
        ys, batch = definetti_sample_many(F_STD, 4, 1, RandomStream(41))
        assert y == ys[0]
        assert [tree] == list(batch)

    def test_many_distribution_matches_scalar(self):
        _, trees = definetti_sample_many(F_STD, 4, 3000, RandomStream(31))
        rng = RandomStream(33)
        scalar = [definetti_sample(F_STD, 4, rng)[1] for _ in range(3000)]
        ks = stats.ks_2samp(
            np.concatenate([t.depths for t in trees]),
            np.concatenate([t.depths for t in scalar]),
        )
        assert ks.pvalue > 0.001


class TestKSampleLikelihood:
    def test_single_tip_is_certain(self):
        tree = OrientedUltrametricTree(2.0)
        assert ksample_loglikelihood(tree, F_STD, 1) == pytest.approx(0.0, abs=1e-14)

    def test_matches_direct_quadrature(self):
        # mixture integral computed independently with adaptive quadrature
        tree = OrientedUltrametricTree(2.0, (0.3, 0.6))
        k, a = 3, A_STD

        def fy(y, t):
            Fy = 1.0 - y + y * _F(t)
            return y * np.exp(0.5 * t) / Fy**2

        def integrand(y):
            return (1.0 - a * (1.0 - y)) ** -2 * fy(y, 0.3) * fy(y, 0.6)

        val, _ = quad(integrand, 0.0, 1.0, limit=200)
        expect = k * (1.0 - a) / a ** (k - 1) * val
        assert_allclose(ksample_likelihood(tree, F_STD, k), expect, rtol=1e-8)

    def test_tip_count_must_match_k(self):
        tree = OrientedUltrametricTree(2.0, (0.3,))
        with pytest.raises(DomainError):
            ksample_loglikelihood(tree, F_STD, 3)

    def test_k2_density_integrates_to_one(self):
        def dens(x):
            return ksample_likelihood(OrientedUltrametricTree(2.0, (x,)), F_STD, 2)

        val, _ = quad(dens, 0.0, 2.0, limit=200)
        assert_allclose(val, 1.0, rtol=1e-8)

    def test_monte_carlo_consistency(self):
        # average simulated log-density is the negative entropy; cross-check
        # the evaluator against simulation via importance-free MC on depths
        _, trees = definetti_sample_many(F_STD, 2, 4000, RandomStream(37))
        xs = np.array([t.depths[0] for t in trees])
        grid = np.linspace(0.05, 1.95, 20)
        dens = np.array(
            [
                ksample_likelihood(OrientedUltrametricTree(2.0, (x,)), F_STD, 2)
                for x in grid
            ]
        )
        cdf_grid = np.cumsum(np.concatenate([[0.0], np.diff(grid) * 0.5 * (dens[1:] + dens[:-1])]))
        emp = np.searchsorted(np.sort(xs), grid).astype(float) / len(xs)
        # coarse agreement between empirical CDF increments and quadrature
        assert np.abs((emp - emp[0]) - cdf_grid).max() < 0.03


    def test_batch_matches_per_tree(self):
        _, trees = definetti_sample_many(F_STD, 4, 25, RandomStream(5))
        batch = ksample_loglikelihoods([t.depths for t in trees], F_STD, 4)
        one = [ksample_loglikelihood(t, F_STD, 4) for t in trees]
        assert_allclose(batch, one, rtol=1e-13)

    def test_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp

        from cppgen.ksample import _logsumexp0

        rng = np.random.default_rng(8)
        for scale in (1.0, 30.0, 300.0):
            x = rng.normal(-40.0, scale, size=(128, 64))
            x[:, 3] = -np.inf  # an all -inf column
            x[:64, 5] = -np.inf
            x[:, 7] = x[:, 7].max()  # a column of ties at its maximum
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _logsumexp0(x)
            expect = logsumexp(x, axis=0)
            assert got[3] == -np.inf
            finite = np.isfinite(expect)
            assert np.array_equal(np.isfinite(got), finite)
            assert_allclose(got[finite], expect[finite], rtol=1e-15, atol=0)

    def test_batch_raises_past_node_cap(self):
        depths = [(0.3, 0.6), (1.9999, 1e-4)]
        with pytest.raises(QuadratureError):
            ksample_loglikelihoods(depths, F_STD, 3, max_nodes=128, rtol=1e-300)

    def test_nodes_computed_once_per_size(self, monkeypatch):
        import numpy.polynomial.legendre as legendre

        from cppgen import ksample

        calls = []
        leggauss = legendre.leggauss

        def counting(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(legendre, "leggauss", counting)
        ksample._gauss_legendre.cache_clear()
        tree = OrientedUltrametricTree(2.0, (0.3, 0.6))
        for _ in range(3):
            ksample_loglikelihood(tree, F_STD, 3)
        assert calls and sorted(calls) == sorted(set(calls))
        ksample._gauss_legendre.cache_clear()


def _ragged_trees(draw, tips):
    """Draw a list of trees on T=2 with tip counts from ``tips`` (a strategy)."""
    n_trees = draw(st.integers(0, 6))
    trees = []
    for _ in range(n_trees):
        n = draw(tips) - 1
        depths = draw(st.lists(st.floats(1e-3, 1.999), min_size=n, max_size=n))
        trees.append(OrientedUltrametricTree(2.0, tuple(depths)))
    return trees


class TestBatchLikelihood:
    """``loglik`` over a ragged batch against the per-tree wrappers."""

    @given(st.data(), st.floats(0.05, 1.0), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_full_and_bernoulli(self, data, y, oriented):
        trees = _ragged_trees(data.draw, st.integers(1, 7))
        batch = TreeBatch.from_trees(trees)
        got = loglik(batch, F_STD, SamplingScheme.full(), oriented)
        expect = [full_loglikelihood(t, F_STD, oriented) for t in trees]
        assert_allclose(got, expect, rtol=1e-12)
        got = loglik(batch, F_STD, SamplingScheme.bernoulli(y), oriented)
        expect = [bernoulli_loglikelihood(t, F_STD, y, oriented) for t in trees]
        assert_allclose(got, expect, rtol=1e-12)

    @given(st.data(), st.integers(1, 5), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_ksample(self, data, k, oriented):
        trees = _ragged_trees(data.draw, st.just(k))
        got = loglik(TreeBatch.from_trees(trees), F_STD, SamplingScheme.uniform_k(k), oriented)
        expect = [ksample_loglikelihood(t, F_STD, k, oriented) for t in trees]
        assert_allclose(got, expect, rtol=1e-12)

    def test_matches_density_formula(self):
        # the pre-batch per-tree formula: log C(tau) - log F(T) + sum log f
        trees = [
            OrientedUltrametricTree(2.0, (0.3, 0.6, 0.2)),
            OrientedUltrametricTree(2.0),
            OrientedUltrametricTree(2.0, (1.5,)),
        ]
        got = loglik(TreeBatch.from_trees(trees), F_STD, SamplingScheme.full(), False)
        expect = [
            (t.n_tips - 1 - (2, 0, 1)[i]) * math.log(2.0)
            - math.log(_F(2.0))
            + float(np.sum(np.log(_f(np.asarray(t.depths)))))
            for i, t in enumerate(trees)
        ]
        assert_allclose(got, expect, rtol=1e-12)

    def test_mixed_heights_rejected(self):
        batch = TreeBatch([2.0, 1.5], [0, 1, 2], [0.5, 0.5])
        with pytest.raises(DomainError):
            loglik(batch, F_STD, SamplingScheme.full())

    def test_tip_count_must_match_k(self):
        batch = TreeBatch([2.0, 2.0], [0, 2, 3], [0.5, 0.7, 0.2])
        with pytest.raises(DomainError, match="tree has 2 tips, expected k=3"):
            loglik(batch, F_STD, SamplingScheme.uniform_k(3))


class TestJointDistribution:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(0, 7))
            x = np.sort(rng.uniform(0.05, 1.95, k - 1))
            while k > 2 and np.diff(x).min() < 1e-3:
                x = np.sort(rng.uniform(0.05, 1.95, k - 1))
            got = joint_df(k, m, x, F_STD)
            ref = joint_df_bruteforce(k, m, x, F_STD)
            worst = max(worst, abs(got - ref) / ref)
        assert worst < 1e-10

    def test_k1_geometric(self):
        # P(N = 1 + m) for the 1-sample is the population size law itself
        for m in range(5):
            assert_allclose(
                joint_df(1, m, [], F_STD), (1.0 - A_STD) * A_STD**m, rtol=1e-14
            )

    def test_ties_match_enumeration(self):
        # equal p_i, p_i 1e-12 apart and p_i -> p_0 (a bound near T)
        for x in ([0.5, 0.5], [0.5, 0.5 + 1e-12], [1.0, 2.0 - 1e-12]):
            assert_allclose(
                joint_df(3, 4, x, F_STD), joint_df_bruteforce(3, 4, x, F_STD), rtol=1e-13
            )

    def test_series_coefficient_at_large_m(self):
        # K equal factors: [z^m] (1 - p z)^{-K} = C(m+K-1, K-1) p^m
        m = 10**4
        for K, p in ((100, 0.3), (2, 0.999)):
            expect = math.log(math.comb(m + K - 1, K - 1)) + m * math.log(p)
            assert abs(_log_series_coef(np.full(K, p), m) - expect) < 1e-10

    def test_enumeration_guard(self):
        with pytest.raises(SizeGuardError):
            joint_df_bruteforce(3, 40, [0.4, 0.9], F_STD)

    def test_near_boundary_depths(self):
        # p_i approaches p_0 as the bound approaches T
        x = np.array([1.0, 2.0 - 1e-4])
        got = joint_df(3, 4, x, F_STD)
        ref = joint_df_bruteforce(3, 4, x, F_STD)
        assert_allclose(got, ref, rtol=1e-9)

    def test_monotone_in_bounds(self):
        lo = joint_df(2, 3, [0.4], F_STD)
        hi = joint_df(2, 3, [1.2], F_STD)
        assert 0.0 < lo < hi


class TestMissingTips:
    def test_no_missing_reduces_to_full(self):
        tree = OrientedUltrametricTree(2.0, (0.3, 0.6))
        assert_allclose(
            likelihood_with_missing(tree, F_STD, 3, 0),
            full_likelihood(tree, F_STD),
            rtol=1e-12,
        )

    def test_single_tip_hand_cases(self):
        tree = OrientedUltrametricTree(2.0)
        assert_allclose(
            likelihood_with_missing(tree, F_STD, 1, 0), 1.0 / _F(2.0), rtol=1e-12
        )
        assert_allclose(
            likelihood_with_missing(tree, F_STD, 1, 1), A_STD / _F(2.0), rtol=1e-12
        )

    def test_sums_to_ksample_likelihood(self):
        # summing the joint law over the number of unsampled tips recovers
        # P(N >= k) times the k-sample density (geometric tail bounded above)
        tree = OrientedUltrametricTree(2.0, (0.3,))
        partial = sum(likelihood_with_missing(tree, F_STD, 2, m) for m in range(13))
        target = A_STD * ksample_likelihood(tree, F_STD, 2)
        tail_bound = 3 * likelihood_with_missing(tree, F_STD, 2, 12) / (1 - A_STD)
        assert partial < target < partial + tail_bound
        # the mixture theorem to rounding, beyond the oracles' enumeration
        # guard (m <= 12, k <= 8); the terms decay like a^m, so those past
        # m = 400 are negligible
        for depths in ((0.3,), (0.3, 1.2, 0.01, 1.9, 0.8, 0.5, 1.1, 0.2, 1.5)):
            tree = OrientedUltrametricTree(2.0, depths)
            k = tree.n_tips
            terms = [likelihood_with_missing(tree, F_STD, k, m) for m in range(400)]
            total = math.fsum(terms)
            target = A_STD ** (k - 1) * ksample_likelihood(tree, F_STD, k)
            assert_allclose(total, target, rtol=1e-9)


class TestPowerSumIdentity:
    def test_hand_case(self):
        # n=2, m=2: p1^2 + p1 p2 + p2^2
        lhs, rhs = power_sum_identity([0.2, 0.7], 2)
        assert_allclose(lhs, 0.04 + 0.14 + 0.49, rtol=1e-14)
        assert_allclose(rhs, lhs, rtol=1e-12)

    def test_random_cases(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(0, 13))
            p = rng.uniform(0.05, 0.95, n)
            while n > 1 and np.abs(np.subtract.outer(p, p))[~np.eye(n, dtype=bool)].min() < 1e-3:
                p = rng.uniform(0.05, 0.95, n)
            lhs, rhs = power_sum_identity(p, m)
            assert_allclose(rhs, lhs, rtol=1e-10)

    def test_ties_rejected(self):
        with pytest.raises(TieError):
            power_sum_identity([0.5, 0.5], 3)
