"""Simulation layer: node-depth draws, batch simulation, thinning, forward model."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from cppgen.cpp import (
    MAX_EXPECTED_TIPS,
    POPULATION_CAP,
    RandomStream,
    bernoulli_thin,
    check_expected_tips,
    simulate_cpp,
    simulate_cpp_many,
    simulate_forward,
    simulate_forward_detailed,
    subsample_depths,
    thinned_inverse_tail,
    uniform_k_sample,
)
from cppgen.errors import DomainError, InsufficientTipsError, PopulationCapError
from cppgen.kernel import ClosedFormTail, survival_a
from cppgen.model import (
    AgeDependentRate,
    OrientedUltrametricTree,
    PiecewiseConstant,
    RateModel,
    TreeBatch,
)

F_STD = ClosedFormTail(1.0, 0.5, 2.0)


class TestRandomStream:
    def test_split_reproducible(self):
        a = [s.uniform() for s in RandomStream(42).split(4)]
        b = [s.uniform() for s in RandomStream(42).split(4)]
        assert a == b
        assert len(set(a)) == 4  # streams are distinct

    def test_uniform_open_interval(self):
        rng = RandomStream(0)
        u = np.array([rng.uniform() for _ in range(10_000)])
        assert u.min() > 0.0 and u.max() < 1.0


class TestCppSimulation:
    def test_reproducible(self):
        t1 = simulate_cpp(F_STD, RandomStream(3))
        t2 = simulate_cpp(F_STD, RandomStream(3))
        assert t1 == t2

    def test_tree_shape(self):
        batch = simulate_cpp_many(F_STD, 200, RandomStream(11))
        assert isinstance(batch, TreeBatch)
        for tree in batch:
            assert tree.height == 2.0
            assert all(0.0 < d < 2.0 for d in tree.depths)

    def test_replicate_count(self):
        with pytest.raises(DomainError, match="reps must be >= 0"):
            simulate_cpp_many(F_STD, -1, RandomStream(9))
        batch = simulate_cpp_many(F_STD, 0, RandomStream(9))
        assert len(batch) == 0 and batch.depths.size == 0

    def test_scalar_is_batch_of_one(self):
        tree = simulate_cpp(F_STD, RandomStream(17))
        assert [tree] == list(simulate_cpp_many(F_STD, 1, RandomStream(17)))

    def test_one_large_tree_draws_little_more_than_it_keeps(self):
        # F(T) = e^12: the uniforms drawn for one tree are about F(T) plus
        # four standard deviations, not 14 F(T)
        F = ClosedFormTail(1.0, 0.0, 12.0)
        tracemalloc.start()
        try:
            simulate_cpp(F, RandomStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 8 * F.value(12.0)

    def test_mean_tip_count(self):
        # E[N] = 1/(1-a) = F(T)
        tips = simulate_cpp_many(F_STD, 40_000, RandomStream(13)).n_tips
        se = tips.std() / math.sqrt(len(tips))
        assert abs(tips.mean() - F_STD.value(2.0)) < 4 * se


class TestSubsampling:
    def test_subsample_running_max(self):
        assert subsample_depths((0.3, 0.6, 0.2), [0, 2, 3]) == (0.6, 0.2)
        assert subsample_depths((0.3, 0.6, 0.2), [0, 3]) == (0.6,)
        assert subsample_depths((0.3, 0.6, 0.2), [1]) == ()

    def test_bernoulli_keep_all(self):
        tree = OrientedUltrametricTree(2.0, (0.3, 0.6))
        assert bernoulli_thin(tree, 1.0, RandomStream(0)) == tree

    def test_bernoulli_can_be_empty(self):
        tree = OrientedUltrametricTree(2.0, (0.3,))
        results = [bernoulli_thin(tree, 0.05, RandomStream(i)) for i in range(200)]
        assert any(r is None for r in results)
        kept = [r for r in results if r is not None]
        assert all(r.n_tips in (1, 2) for r in kept)

    def test_bernoulli_keep_count_binomial(self):
        tree = OrientedUltrametricTree(2.0, tuple([0.5] * 19))  # 20 tips
        rng = RandomStream(21)
        counts = np.array(
            [getattr(bernoulli_thin(tree, 0.3, rng), "n_tips", 0) for _ in range(5000)]
        )
        expect = stats.binom.pmf(np.arange(21), 20, 0.3) * 5000
        obs = np.bincount(counts, minlength=21)
        mask = expect > 5
        chi = stats.chisquare(
            np.append(obs[mask], obs[~mask].sum()),
            np.append(expect[mask], expect[~mask].sum()),
        )
        assert chi.pvalue > 0.001

    def test_uniform_k_needs_enough_tips(self):
        tree = OrientedUltrametricTree(2.0, (0.3,))
        with pytest.raises(InsufficientTipsError):
            uniform_k_sample(tree, 3, RandomStream(0))

    def test_uniform_k_all_tips_is_identity(self):
        tree = OrientedUltrametricTree(2.0, (0.3, 0.6, 0.2))
        assert uniform_k_sample(tree, 4, RandomStream(0)) == tree

    def test_thinned_tail_dispatch(self):
        assert thinned_inverse_tail(F_STD, 1.0) is F_STD
        assert_allclose(
            thinned_inverse_tail(F_STD, 0.3).value(1.0),
            0.7 + 0.3 * F_STD.value(1.0),
            rtol=1e-12,
        )


def _forward_recursive(model, rng):
    """The forward simulator as it was, recursing once per generation."""

    def sample_death(birth):
        mu_max = model.death_rate_max
        if mu_max == 0.0:
            return math.inf
        u = birth
        while True:
            u += rng.exponential(mu_max)
            if u >= model.T:
                return math.inf
            if rng.uniform() * mu_max <= model.death_rate(u, u - birth):
                return u

    def birth_times(birth, until):
        lam_max = model.birth_rate_max
        out = []
        if lam_max == 0.0:
            return out
        u = birth
        while True:
            u += rng.exponential(lam_max)
            if u >= until:
                return out
            if rng.uniform() * lam_max <= model.birth_rate(u):
                out.append(u)

    def recurse(birth):
        death = sample_death(birth)
        births = birth_times(birth, min(death, model.T))
        depths, tips = [], 1 if math.isinf(death) else 0
        for u in reversed(births):
            sub_depths, sub_tips = recurse(u)
            if sub_tips == 0:
                continue
            if tips > 0:
                depths.append(model.T - u)
            depths.extend(sub_depths)
            tips += sub_tips
        return depths, tips

    attempts = 0
    while True:
        attempts += 1
        depths, tips = recurse(0.0)
        if tips >= 1:
            return OrientedUltrametricTree(model.T, tuple(depths)), attempts


class TestExpectedTips:
    @pytest.mark.parametrize("F", [ClosedFormTail(1.0, 0.5, 800.0), ClosedFormTail(50.0, 0.0, 20.0)])
    def test_huge_F_rejected(self, F):
        # F(T) = 1e174 and F(T) = inf: typed errors, not a hang or a numpy error
        with pytest.raises(DomainError, match="expected"):
            simulate_cpp(F, RandomStream(1))
        with pytest.raises(DomainError, match="expected"):
            simulate_cpp_many(F, 1, RandomStream(1))

    def test_cap_counts_replicates(self):
        reps = int(MAX_EXPECTED_TIPS / F_STD.value(2.0))
        assert check_expected_tips(F_STD, reps) == F_STD.value(2.0)
        with pytest.raises(DomainError, match="expected"):
            check_expected_tips(F_STD, reps + 1)


class TestForwardSimulation:
    @pytest.mark.parametrize(
        "model",
        [
            RateModel.constant(1.2, 0.5, 2.0),
            RateModel.age_dependent(
                lam=PiecewiseConstant((0.0, 0.9), (1.0, 1.6)),
                mu=AgeDependentRate((0.0, 1.1), (0.0, 0.4), ((0.2, 0.9), (0.6, 0.3))),
                T=2.0,
            ),
        ],
    )
    def test_same_trees_as_recursive_version(self, model):
        for seed in range(200):
            res = simulate_forward_detailed(model, RandomStream(seed))
            tree, attempts = _forward_recursive(model, RandomStream(seed))
            assert res.tree.depths == tree.depths
            assert (res.tree.n_tips, res.attempts) == (tree.n_tips, attempts)

    def test_deep_genealogy_has_no_recursion_limit(self):
        # critical with lam = 400: lines of descent run thousands of
        # generations deep, past the interpreter's recursion limit
        try:
            tree = simulate_forward(RateModel.constant(400.0, 400.0, 3.0), RandomStream(3))
        except PopulationCapError:
            return
        assert tree.n_tips >= 1 and all(0.0 < d < 3.0 for d in tree.depths)

    def test_tree_shape(self):
        model = RateModel.constant(1.0, 0.5, 1.0)
        rng = RandomStream(5)
        for _ in range(100):
            tree = simulate_forward(model, rng)
            assert tree.height == 1.0
            assert tree.n_tips >= 1
            assert all(0.0 < d < 1.0 for d in tree.depths)

    def test_detailed_reports_rejections(self):
        # strongly subcritical: most attempts die out before T
        model = RateModel.constant(0.2, 2.0, 2.0)
        res = simulate_forward_detailed(model, RandomStream(6))
        assert res.attempts >= 1
        assert 0.0 < res.acceptance_rate <= 1.0
        assert res.tree.n_tips >= 1

    def test_population_cap(self):
        model = RateModel.constant(200.0, 0.0, 1.0)
        with pytest.raises(PopulationCapError):
            simulate_forward(model, RandomStream(7))
        assert POPULATION_CAP == 10**6

    def test_mean_tip_count_matches_cpp(self):
        model = RateModel.constant(1.0, 0.5, 1.0)
        rng = RandomStream(8)
        tips = np.array([simulate_forward(model, rng).n_tips for _ in range(4000)])
        F = ClosedFormTail(1.0, 0.5, 1.0)
        se = tips.std() / math.sqrt(len(tips))
        assert abs(tips.mean() - F.value(1.0)) < 4 * se
