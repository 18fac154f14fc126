"""Likelihoods and the mixture representation of uniform k-samples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import quad

from cppgen import cpp
from cppgen.cpp import RandomStream
from cppgen.errors import (
    DegenerateMixtureError,
    DomainError,
    SizeGuardError,
    TailOverflowError,
    TieError,
)
from cppgen.kernel import ClosedFormTail, invert_tail, node_depth_density_f, survival_a
from cppgen.ksample import (
    MixtureParams,
    _log_series_coef,
    definetti_sample,
    definetti_sample_many,
    bernoulli_loglikelihood,
    full_loglikelihood,
    joint_df,
    joint_df_bruteforce,
    ksample_loglikelihood,
    likelihood_with_missing,
    loglik,
    mixing_cdf,
    mixing_density,
    power_sum_identity,
    sample_mixing,
    trapezoid_nodes,
)
from cppgen.model import OrientedUltrametricTree, SamplingScheme, TreeBatch

F_STD = ClosedFormTail(1.0, 0.5, 2.0)
# kernel.tail_at_T's one message for F(T) past the float range
TAIL_OVERFLOW = "^F\\(T\\) is not finite \\(inf\\): F leaves the float range$"
A_STD = survival_a(F_STD)

# 40-digit k-sample log-likelihoods at lambda = 1, mu = 0.5 (rT = 1, 15 and
# 100), written by tests/data/make_ksample_refs.py.
KSAMPLE_REFS = [  # (k, T, depths, log-likelihood)
    (3, 2.0, (0.04, 0.1), -0.50265548597674407),  # shallow
    (3, 2.0, (0.5, 1.4), -1.4427295206221039),  # spread
    (3, 2.0, (1.92, 1.98), -2.0632334987311002),  # deep
    (5, 2.0, (0.02, 0.06, 0.1, 0.16), -0.47602987125866427),  # shallow
    (5, 2.0, (0.2, 0.7, 1.2, 1.8), -2.9725927134286621),  # spread
    (5, 2.0, (1.91, 1.94, 1.96, 1.99), -4.4744033442388354),  # deep
    (3, 30.0, (0.6, 1.5), -15.053589161910004),  # shallow
    (3, 30.0, (7.5, 21.0), -11.622658749213806),  # spread
    (3, 30.0, (28.8, 29.7), -3.7305191304265123),  # deep
    (5, 30.0, (0.3, 0.9, 1.5, 2.4), -18.039854723022998),  # shallow
    (5, 30.0, (3.0, 10.5, 18.0, 27.0), -23.133468540106181),  # spread
    (5, 30.0, (28.65, 29.1, 29.4, 29.85), -7.677641954137218),  # deep
    (3, 200.0, (4.0, 10.0), -98.468131718200977),  # shallow
    (3, 200.0, (50.0, 140.0), -75.287682072457115),  # spread
    (3, 200.0, (192.0, 198.0), -5.3140208290267564),  # deep
    (5, 200.0, (2.0, 6.0, 10.0, 16.0), -105.84593094273944),  # shallow
    (5, 200.0, (20.0, 70.0, 120.0, 180.0), -146.16315081046375),  # spread
    (5, 200.0, (191.0, 194.0, 196.0, 199.0), -10.27856051273484),  # deep
]


def _k_batch(depths, T):
    """A TreeBatch of height T, one tree per row of ``depths``."""
    d = np.asarray(depths, dtype=float)
    return TreeBatch(np.full(len(d), T), np.arange(len(d) + 1) * d.shape[1], d.ravel())


def _F(t):
    # independent closed-form expression for lam=1, mu=0.5
    return 1.0 + 2.0 * (np.exp(0.5 * np.asarray(t)) - 1.0)


def _f(t):
    return np.exp(0.5 * np.asarray(t)) / _F(t) ** 2


class TestFullLikelihood:
    def test_single_tip(self):
        tree = OrientedUltrametricTree(2.0)
        # P(N = 1) = 1 - a = 1/F(T)
        assert_allclose(math.exp(full_loglikelihood(tree, F_STD)), 1.0 / _F(2.0), rtol=1e-12)

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
        # F(T) = inf overflows in expm1 (the one TailOverflowError of every
        # sampler and likelihood), F(T) = 1e174 rounds a to 1, and at
        # lambda = 0 no tree has 3 tips: the sampler raises typed errors
        # naming F(T), without a numpy warning
        FT = F.value(F.T)
        error = DegenerateMixtureError
        if not np.isfinite(FT):
            error, message = TailOverflowError, TAIL_OVERFLOW
        with pytest.raises(error, match=message):
            MixtureParams.from_tail(F, 3)
        with pytest.raises(error, match=message):
            definetti_sample_many(F, 3, 2, RandomStream(1))
        # the likelihood needs only log a = -log1p(1/G_0): it fails where
        # F(T) is not finite, as the full scheme does, and where F(T) = 1
        k3 = SamplingScheme.uniform_k(3)
        if not np.isfinite(FT):
            with pytest.raises(TailOverflowError, match=TAIL_OVERFLOW):
                loglik(_k_batch([(0.3, 0.6)], F.T), F, k3)
        elif FT == 1.0:
            with pytest.raises(DegenerateMixtureError, match="F\\(T\\) = 1: every tree"):
                loglik(_k_batch([(0.3, 0.6)], F.T), F, k3)
        else:
            assert np.isfinite(loglik(_k_batch([(0.3, 0.6), (790.0, 799.0)], F.T), F, k3)).all()
        # a one-tip tree is certain whatever F(T): its likelihood needs no a
        k1 = SamplingScheme.uniform_k(1)
        assert_allclose(loglik(_k_batch(np.empty((2, 0)), F.T), F, k1), [0.0, 0.0])

    def test_single_tip_sample_without_coalescence(self):
        # lambda = 0: a = 0, and a 1-sample is still certain
        F = ClosedFormTail(0.0, 0.5, 2.0)
        assert MixtureParams.from_tail(F, 1).a == 0.0
        batch = _k_batch(np.empty((2, 0)), F.T)
        assert_allclose(loglik(batch, F, SamplingScheme.uniform_k(1)), [0.0, 0.0])


class TestDeFinettiSampler:
    def test_tip_budget_is_checked_before_drawing(self, monkeypatch):
        # the reps k tips of the draws against the CPP sampler's cap
        monkeypatch.setattr(cpp, "MAX_EXPECTED_TIPS", 20)
        rng = RandomStream(1)
        message = "^expected 21 tips in 7 tree\\(s\\) \\(k = 3 per tree\\); more than 2e\\+01"
        with pytest.raises(DomainError, match=message):
            definetti_sample_many(F_STD, 3, 7, rng)
        assert rng.rng.random() == RandomStream(1).rng.random()  # nothing drawn
        _, batch = definetti_sample_many(F_STD, 4, 5, rng)
        assert batch.n_tips.sum() == 20

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
        assert_allclose(math.exp(ksample_loglikelihood(tree, F_STD, k)), expect, rtol=1e-8)

    def test_tip_count_must_match_k(self):
        tree = OrientedUltrametricTree(2.0, (0.3,))
        with pytest.raises(DomainError):
            ksample_loglikelihood(tree, F_STD, 3)

    def test_k2_density_integrates_to_one(self):
        def dens(x):
            return math.exp(ksample_loglikelihood(OrientedUltrametricTree(2.0, (x,)), F_STD, 2))

        val, _ = quad(dens, 0.0, 2.0, limit=200)
        assert_allclose(val, 1.0, rtol=1e-8)

    def test_monte_carlo_consistency(self):
        # average simulated log-density is the negative entropy; cross-check
        # the evaluator against simulation via importance-free MC on depths
        _, trees = definetti_sample_many(F_STD, 2, 4000, RandomStream(37))
        xs = np.array([t.depths[0] for t in trees])
        grid = np.linspace(0.05, 1.95, 20)
        trees = TreeBatch(np.full(len(grid), 2.0), np.arange(len(grid) + 1), grid)
        dens = np.exp(loglik(trees, F_STD, SamplingScheme.uniform_k(2)))
        cdf_grid = np.cumsum(np.concatenate([[0.0], np.diff(grid) * 0.5 * (dens[1:] + dens[:-1])]))
        emp = np.searchsorted(np.sort(xs), grid).astype(float) / len(xs)
        # coarse agreement between empirical CDF increments and quadrature
        assert np.abs((emp - emp[0]) - cdf_grid).max() < 0.03


    def test_batch_matches_per_tree(self):
        _, trees = definetti_sample_many(F_STD, 4, 25, RandomStream(5))
        batch = loglik(trees, F_STD, SamplingScheme.uniform_k(4))
        one = [ksample_loglikelihood(t, F_STD, 4) for t in trees]
        assert_allclose(batch, one, rtol=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k, T, depths, expect", KSAMPLE_REFS)
    def test_matches_40_digit_references(self, k, T, depths, expect):
        # rT = 1, 15 and 100 on shallow, spread and deep trees; at rT = 100,
        # F(T) = 5e43 and a = 1 - 1/F(T) rounds to 1
        batch = TreeBatch([T], [0, k - 1], depths)
        got = loglik(batch, ClosedFormTail(1.0, 0.5, T), SamplingScheme.uniform_k(k))
        assert_allclose(got, [expect], rtol=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k, rT", [(2, 1.0), (3, 4.0), (5, 15.0), (5, 100.0)])
    def test_fixed_trapezoid_is_converged(self, monkeypatch, k, rT):
        # the fixed step and windows against a 4x finer step over windows
        # 32 units deeper, on depths drawn uniformly in F
        from cppgen import ksample

        T = rT / 0.5
        F = ClosedFormTail(1.0, 0.5, T)
        u = np.random.default_rng(3).random((300, k - 1))
        depths = invert_tail(F, 1.0 + (F.value(T) - 1.0) * u)
        batch, scheme = _k_batch(depths, T), SamplingScheme.uniform_k(k)
        got = loglik(batch, F, scheme)
        monkeypatch.setattr(ksample, "TRAPEZOID_STEP", ksample.TRAPEZOID_STEP / 4)
        monkeypatch.setattr(ksample, "_TRAPEZOID_DEPTH", ksample._TRAPEZOID_DEPTH + 32)
        assert_allclose(got, loglik(batch, F, scheme), rtol=0, atol=1e-13)

    def test_node_count_is_per_tree(self):
        # each tree's window depends on that tree alone, so counts add up
        F = ClosedFormTail(1.0, 0.5, 30.0)
        _, trees = definetti_sample_many(F, 4, 700, RandomStream(6))
        nodes = trapezoid_nodes(trees, F, 4)
        assert 50 * len(trees) < nodes < 300 * len(trees)
        assert nodes == sum(trapezoid_nodes(TreeBatch.from_trees([t]), F, 4) for t in trees)
        assert trapezoid_nodes(TreeBatch([30.0, 30.0], [0, 0, 0], []), F, 1) == 0
        with pytest.raises(DomainError, match="tree has 4 tips, expected k=1"):
            trapezoid_nodes(trees, F, 1)

    @pytest.mark.parametrize(
        "offsets, depths",
        [
            ([0, 2, 6], [0.5, 0.7, 0.2, 0.9, 1.1, 1.3]),  # 3 and 5 tips: 6 depths, 2 rows of 3
            ([0, 2, 5], [0.5, 0.7, 0.2, 0.9, 1.1]),  # 3 and 4 tips: 5 depths, no rows of 3
        ],
        ids=["divisible", "not-divisible"],
    )
    def test_node_count_checks_tip_counts(self, offsets, depths):
        batch = TreeBatch([2.0, 2.0], offsets, depths)
        with pytest.raises(DomainError, match="tree has 3 tips, expected k=4"):
            trapezoid_nodes(batch, F_STD, 4)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scheme", [SamplingScheme.full(), SamplingScheme.bernoulli(0.3)])
    def test_infinite_F_is_a_typed_error(self, scheme):
        # lam = 400, T = 2: F(T) = e^800 overflows, and so would inf - inf;
        # a typed error instead of NaN, without a numpy warning
        batch = TreeBatch([2.0, 2.0], [0, 1, 2], [0.5, 1.5])
        F = ClosedFormTail(400.0, 0.2, 2.0)
        with pytest.raises(TailOverflowError, match="F\\(T\\) is not finite"):
            loglik(batch, F, scheme)
        # data errors stay plain DomainErrors
        with pytest.raises(DomainError) as err:
            loglik(TreeBatch([1.5], [0, 1], [0.5]), F, scheme)
        assert type(err.value) is DomainError

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scheme",
        [SamplingScheme.full(), SamplingScheme.bernoulli(0.4), SamplingScheme.uniform_k(3)],
        ids=["full", "bernoulli", "k3"],
    )
    def test_depth_where_F_is_flat_has_likelihood_zero(self, scheme):
        # lambda = 0 on model times [0, 1), so F' = 0 at depths past 1: a
        # tree with such a depth gets -inf, without a numpy warning, and the
        # other trees keep their values.
        F = ClosedFormTail((0.0, 1.0), (0.5, 0.5), 2.0, breaks=(0.0, 1.0))
        good = TreeBatch([2.0, 2.0], [0, 2, 4], [0.3, 0.7, 0.9, 0.2])
        mixed = TreeBatch([2.0, 2.0, 2.0], [0, 2, 4, 6], [0.3, 0.7, 0.4, 1.5, 0.9, 0.2])
        got = loglik(mixed, F, scheme)
        assert got[1] == -math.inf
        assert np.array_equal(got[[0, 2]], loglik(good, F, scheme))
        assert np.all(np.isfinite(got[[0, 2]]))

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
            math.exp(full_loglikelihood(tree, F_STD)),
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
        target = A_STD * math.exp(ksample_loglikelihood(tree, F_STD, 2))
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
            target = A_STD ** (k - 1) * math.exp(ksample_loglikelihood(tree, F_STD, k))
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
