"""Simulation layer: node-depth draws, batch simulation, thinning, forward model."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from cppgen import cpp
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
    subsample,
    uniform_k_sample,
)
from cppgen.errors import DomainError, InsufficientTipsError, PopulationCapError, TailOverflowError
from cppgen.kernel import ClosedFormTail, GridTail, survival_a
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


def _subsample_oracle(batch, keep):
    """``subsample`` tree by tree: the depth between consecutive kept tips
    i < j of a tree is max(depths[i:j])."""
    trees, first = [], 0
    for tree in batch:
        kept = np.flatnonzero(keep[first : first + tree.n_tips])
        first += tree.n_tips
        if kept.size:
            depths = tuple(max(tree.depths[i:j]) for i, j in zip(kept, kept[1:]))
            trees.append(OrientedUltrametricTree(tree.height, depths))
    return TreeBatch.from_trees(trees)


def _random_batch(rng, n_trees):
    """Random trees of 1 to 9 tips, caterpillars (depths rising or falling)
    among them."""
    trees = []
    for _ in range(n_trees):
        depths = rng.uniform(0.01, 1.99, int(rng.integers(0, 9)))
        shape = rng.integers(3)
        if shape:
            depths = np.sort(depths)[:: 1 if shape == 1 else -1]
        trees.append(OrientedUltrametricTree(2.0, tuple(depths)))
    return TreeBatch.from_trees(trees)


class TestSubsampling:
    def test_subsample_running_max(self):
        batch = TreeBatch([2.0, 2.0, 2.0], [0, 3, 3, 4], [0.3, 0.6, 0.2, 1.0])
        keep = np.array([1, 0, 1, 1, 0, 1, 1], dtype=bool)
        assert subsample(batch, keep) == TreeBatch([2.0, 2.0], [0, 2, 3], [0.6, 0.2, 1.0])
        keep = np.array([1, 0, 0, 1, 1, 0, 1], dtype=bool)
        assert list(subsample(batch, keep)) == [
            OrientedUltrametricTree(2.0, (0.6,)),
            OrientedUltrametricTree(2.0),
            OrientedUltrametricTree(2.0),
        ]

    def test_subsample_matches_per_tree_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            batch = _random_batch(rng, int(rng.integers(0, 8)))
            keep = rng.random(int(batch.n_tips.sum())) < rng.uniform(0.0, 1.0)
            assert subsample(batch, keep) == _subsample_oracle(batch, keep)

    def test_subsample_edge_cases(self):
        batch = _random_batch(np.random.default_rng(6), 30)
        total = int(batch.n_tips.sum())
        # all tips kept: the identity
        assert subsample(batch, np.ones(total, dtype=bool)) == batch
        # no tip kept: an empty batch
        empty = subsample(batch, np.zeros(total, dtype=bool))
        assert len(empty) == 0 and empty.depths.size == 0
        # whole trees kept: row selection
        rows = np.arange(len(batch)) % 3 == 1
        kept = subsample(batch, np.repeat(rows, batch.n_tips))
        assert list(kept) == [t for t, r in zip(batch, rows) if r]
        # single tips and a caterpillar kept at its ends
        batch = TreeBatch([2.0, 2.0, 2.0], [0, 0, 4, 4], [0.1, 0.2, 0.3, 0.4])
        keep = np.array([1, 1, 0, 0, 0, 1, 1], dtype=bool)
        assert subsample(batch, keep) == TreeBatch([2.0] * 3, [0, 0, 1, 1], [0.4])

    def test_subsample_needs_one_bool_per_tip(self):
        batch = TreeBatch([2.0], [0, 2], [0.3, 0.6])
        for keep in (np.ones(2, dtype=bool), np.ones(3, dtype=int)):
            with pytest.raises(DomainError, match="one bool per tip"):
                subsample(batch, keep)

    def test_bernoulli_keep_all(self):
        batch = simulate_cpp_many(F_STD, 50, RandomStream(1))
        assert bernoulli_thin(batch, 1.0, RandomStream(0)) == batch
        with pytest.raises(DomainError):
            bernoulli_thin(batch, 0.0, RandomStream(0))

    def test_bernoulli_can_be_empty(self):
        batch = TreeBatch.from_trees([OrientedUltrametricTree(2.0, (0.3,))] * 200)
        thinned = bernoulli_thin(batch, 0.05, RandomStream(0))
        assert len(thinned) < 200
        assert set(thinned.n_tips.tolist()) <= {1, 2}

    def test_bernoulli_keep_count_binomial(self):
        tree = OrientedUltrametricTree(2.0, tuple([0.5] * 19))  # 20 tips
        thinned = bernoulli_thin(TreeBatch.from_trees([tree] * 5000), 0.3, RandomStream(21))
        counts = np.append(thinned.n_tips, np.zeros(5000 - len(thinned), dtype=int))
        expect = stats.binom.pmf(np.arange(21), 20, 0.3) * 5000
        obs = np.bincount(counts, minlength=21)
        mask = expect > 5
        chi = stats.chisquare(
            np.append(obs[mask], obs[~mask].sum()),
            np.append(expect[mask], expect[~mask].sum()),
        )
        assert chi.pvalue > 0.001

    def test_bernoulli_consumes_one_uniform_per_tip(self):
        batch = simulate_cpp_many(F_STD, 300, RandomStream(2))
        rng = RandomStream(3)
        thinned = bernoulli_thin(batch, 0.4, rng)
        reference = RandomStream(3)
        keep = reference.rng.random(int(batch.n_tips.sum())) < 0.4
        assert thinned == _subsample_oracle(batch, keep)
        assert rng.uniform() == reference.uniform()

    def test_uniform_k_needs_enough_tips(self):
        batch = TreeBatch([2.0, 2.0, 2.0], [0, 3, 4, 5], [0.3, 0.6, 0.2, 1.0, 0.5])
        with pytest.raises(InsufficientTipsError, match="tree 1 has 2 tips, need at least 3"):
            uniform_k_sample(batch, 3, RandomStream(0))
        with pytest.raises(DomainError, match="k must be >= 1"):
            uniform_k_sample(batch, 0, RandomStream(0))

    def test_uniform_k_all_tips_is_identity(self):
        tree = OrientedUltrametricTree(2.0, (0.3, 0.6, 0.2))
        assert list(uniform_k_sample(TreeBatch.from_trees([tree]), 4, RandomStream(0))) == [tree]

    def test_uniform_k_keeps_k_tips_of_each_tree(self):
        batch = simulate_cpp_many(F_STD, 2000, RandomStream(4))
        big = subsample(batch, np.repeat(batch.n_tips >= 3, batch.n_tips))
        sampled = uniform_k_sample(big, 3, RandomStream(5))
        assert len(sampled) == len(big) and np.all(sampled.n_tips == 3)
        # each sampled depth is the running max over some stretch of its tree
        for tree, sub in zip(big, sampled):
            assert set(sub.depths) <= set(tree.depths)

    def test_uniform_k_subsets_are_uniform(self, monkeypatch):
        # The running max does not tell which tips were kept, so the keep
        # masks are taken where uniform_k_sample hands them to subsample.
        masks = []

        def recording(batch, keep):
            masks.append(keep.copy())
            return subsample(batch, keep)

        monkeypatch.setattr(cpp, "subsample", recording)
        n = 10_000
        tree = OrientedUltrametricTree(2.0, (0.4, 0.2, 0.8, 0.6))
        sampled = uniform_k_sample(TreeBatch.from_trees([tree] * n), 3, RandomStream(6))
        assert len(sampled) == n and len(masks) == 1
        rows = masks[0].reshape(n, 5)
        assert np.all(rows.sum(axis=1) == 3)
        subsets = {s: i for i, s in enumerate(itertools.combinations(range(5), 3))}
        counts = np.bincount([subsets[tuple(np.flatnonzero(r))] for r in rows], minlength=10)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_thinned_tail_dispatch(self):
        ts = np.linspace(0.0, 2.0, 9)
        grid = GridTail(tuple(F_STD.value(ts)), 2.0)
        for F in (F_STD, grid):
            assert F.thinned(1.0) is F
            assert_allclose(F.thinned(0.3).value(1.0), 0.7 + 0.3 * F_STD.value(1.0), rtol=1e-12)
            for y in (0.0, -0.5, 1.5, math.nan):
                with pytest.raises(DomainError, match="y must lie"):
                    F.thinned(y)


def _forward_recursive(model, rng):
    """The forward simulator as it was, recursing once per generation."""

    def sample_death(birth):
        mu_max = model.mu.max
        if mu_max == 0.0:
            return math.inf
        u = birth
        while True:
            u += rng.exponential(mu_max)
            if u >= model.T:
                return math.inf
            if rng.uniform() * mu_max <= model.mu(u, u - birth):
                return u

    def birth_times(birth, until):
        lam_max = model.lam.max
        out = []
        if lam_max == 0.0:
            return out
        u = birth
        while True:
            u += rng.exponential(lam_max)
            if u >= until:
                return out
            if rng.uniform() * lam_max <= model.lam(u):
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
        error, message = DomainError, "^expected 1.044e\\+174 tips in 1 tree\\(s\\)"
        if F.value(F.T) == math.inf:
            error, message = TailOverflowError, "^F\\(T\\) is not finite \\(inf\\)"
        with pytest.raises(error, match=message):
            simulate_cpp(F, RandomStream(1))
        with pytest.raises(error, match=message):
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
