"""Simulation: CPPs, forward splitting trees, thinning, and k-subsampling.

The CPP route draws node depths directly from the inverse tail F; the
forward route runs the branching process event by event and extracts the
reduced tree of the survivors.  Agreement of the two is the end-to-end
distributional check exercised by the validation suite.  Thinning and
k-subsampling act on a whole :class:`TreeBatch`: each draws a mask of kept
tips for one ``np.maximum.reduceat`` (:func:`subsample`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DomainError, InsufficientTipsError, PopulationCapError
from .kernel import InverseTail, invert_tail, tail_at_T
from .model import OrientedUltrametricTree, PiecewiseConstant, RateModel, TreeBatch

__all__ = [
    "RandomStream",
    "check_expected_tips",
    "check_tip_budget",
    "simulate_cpp",
    "simulate_cpp_many",
    "simulate_forward",
    "subsample",
    "bernoulli_thin",
    "uniform_k_sample",
]

# Forward simulation aborts once this many particles have been created in a
# single attempt; supercritical blowups should fail loudly, not hang.
POPULATION_CAP = 10**6

# CPP simulation refuses to start when its trees would hold more than this
# many tips on average (tens of bytes each while they are drawn).
MAX_EXPECTED_TIPS = 10**7


class RandomStream:
    """Deterministic, splittable random stream.

    Same seed => bit-identical draw sequence.  ``split(n)`` derives n child
    streams that are independent by construction (SeedSequence spawning), so
    parallel replication keyed by replicate index is reproducible regardless
    of scheduling.
    """

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
        self.rng = np.random.Generator(np.random.PCG64(self._seq))

    def split(self, n: int) -> List["RandomStream"]:
        return [RandomStream(child) for child in self._seq.spawn(n)]

    # thin convenience wrappers -------------------------------------------

    def uniform(self) -> float:
        """A single uniform draw in the open interval (0, 1)."""
        u = self.rng.random()
        while u == 0.0:
            u = self.rng.random()
        return u

    def exponential(self, rate: float) -> float:
        return self.rng.exponential(1.0 / rate)


def check_tip_budget(tips: float, reps: int, per_tree: str):
    """Raise ``DomainError`` where ``reps`` trees, ``per_tree`` tips each and
    ``tips`` in all, would hold more than ``MAX_EXPECTED_TIPS`` tips."""
    if tips > MAX_EXPECTED_TIPS:
        raise DomainError(
            f"expected {tips:.4g} tips in {reps} tree(s) ({per_tree} per tree); "
            f"more than {MAX_EXPECTED_TIPS:.0e} do not fit in memory"
        )


def check_expected_tips(F: InverseTail, reps: int) -> float:
    """F(T) (:func:`~cppgen.kernel.tail_at_T`), after checking that ``reps``
    CPP trees from F, F(T) tips each on average, fit in memory."""
    FT = tail_at_T(F)
    check_tip_budget(reps * FT, reps, f"F(T) = {FT:.4g}")
    return FT


def simulate_cpp(F: InverseTail, rng: RandomStream) -> OrientedUltrametricTree:
    """One CPP tree from F: the batch of one of :func:`simulate_cpp_many`."""
    return next(iter(simulate_cpp_many(F, 1, rng)))


def simulate_cpp_many(F: InverseTail, reps: int, rng: RandomStream) -> TreeBatch:
    """``reps`` CPP trees from F as a :class:`TreeBatch` of height F.T.

    Draw iid copies of H, with P(H > t) = 1/F(t), keep those < T, and end a
    tree at each H >= T: uniforms are consumed in sequence and each u with
    1/u > F(T) ends a replicate.
    """
    if reps < 0:
        raise DomainError(f"reps must be >= 0, not {reps}")
    FT = check_expected_tips(F, reps)
    if reps == 0:
        return TreeBatch(np.empty(0), np.zeros(1, dtype=np.int64), np.empty(0))
    thresh = 1.0 / FT
    blocks = []
    n_stops = 0
    need = reps
    # A replicate takes F(T) draws on average, with standard deviation below
    # F(T): draw the mean plus four deviations and top up.  The draws are
    # consumed in sequence, so the trees do not depend on this estimate.
    while n_stops < reps:
        est = int(FT * (need + 4.0 * math.sqrt(need))) + 64
        u = rng.rng.random(est)
        u = u[u > 0.0]
        blocks.append(u)
        n_stops += int(np.count_nonzero(u < thresh))
        need = reps - n_stops
    us = np.concatenate(blocks)
    stop_idx = np.flatnonzero(us < thresh)[:reps]
    us = us[: stop_idx[-1] + 1]
    keep = np.ones(len(us), dtype=bool)
    keep[stop_idx] = False
    # replicate r ends at the uniform stop_idx[r], so its depths end at
    # stop_idx[r] - r among the kept ones
    offsets = np.zeros(reps + 1, dtype=np.int64)
    offsets[1:] = stop_idx - np.arange(reps)
    return TreeBatch(np.full(reps, float(F.T)), offsets, invert_tail(F, 1.0 / us[keep]))


# ---------------------------------------------------------------------------
# Forward splitting-tree simulation
# ---------------------------------------------------------------------------


@dataclass
class ForwardResult:
    tree: OrientedUltrametricTree
    attempts: int

    @property
    def acceptance_rate(self) -> float:
        return 1.0 / self.attempts


def _rate_at(rate: PiecewiseConstant):
    """Scalar t -> rate(t) for t >= 0: the piece lookup of ``rate(t)``
    without the array round trip."""
    breaks, values = rate.breaks, rate.values
    return lambda t: values[bisect_right(breaks, t) - 1]


def _death_rate_at(model: RateModel):
    """Scalar (t, x) -> model.mu(t, x) for t, x >= 0."""
    mu = model.mu
    t_breaks, x_breaks, values = mu.t_breaks, mu.x_breaks, mu.values
    return lambda t, x: values[bisect_right(t_breaks, t) - 1][bisect_right(x_breaks, x) - 1]


def _sample_death(death_at, mu_max: float, T: float, birth: float, rng: RandomStream) -> float:
    """Death time of a particle born at ``birth``, by hazard thinning.

    Returns +inf when the particle outlives the horizon T; proposals beyond
    T are never needed.
    """
    if mu_max == 0.0:
        return math.inf
    u = birth
    while True:
        u += rng.exponential(mu_max)
        if u >= T:
            return math.inf
        if rng.uniform() * mu_max <= death_at(u, u - birth):
            return u


def _birth_times(birth_at, lam_max: float, birth: float, until: float, rng: RandomStream):
    """Birth events of one particle on (birth, until), by Poisson thinning."""
    out = []
    if lam_max == 0.0:
        return out
    u = birth
    while True:
        u += rng.exponential(lam_max)
        if u >= until:
            return out
        if rng.uniform() * lam_max <= birth_at(u):
            out.append(u)


def _simulate_attempt(model: RateModel, rng: RandomStream) -> Tuple[list, int]:
    """One forward run; returns (depths, tip count) of the reduced tree.

    Planar convention: a particle's own tip comes first (leftmost), then its
    daughters' subtrees in order of decreasing birth time; the separation
    depth in front of a daughter's block is T minus her birth time.  The
    particles are visited depth first on an explicit stack, a daughter's
    whole subtree before her next older sister, so the random stream is
    consumed in that order.
    """
    T = model.T
    death_at, mu_max = _death_rate_at(model), model.mu.max
    birth_at, lam_max = _rate_at(model.lam), model.lam.max
    created = 0

    def born(birth: float) -> list:
        # [birth, daughters' births not yet visited (oldest first), depths, tips]
        nonlocal created
        created += 1
        if created > POPULATION_CAP:
            raise PopulationCapError(
                f"more than {POPULATION_CAP} particles in one forward attempt"
            )
        death = _sample_death(death_at, mu_max, T, birth, rng)
        births = _birth_times(birth_at, lam_max, birth, min(death, T), rng)
        return [birth, births, [], 1 if math.isinf(death) else 0]

    stack = [born(0.0)]
    while True:
        top = stack[-1]
        if top[1]:
            stack.append(born(top[1].pop()))  # the youngest daughter first
            continue
        stack.pop()
        birth, _, depths, tips = top
        if not stack:
            return depths, tips
        mother = stack[-1]
        if tips == 0:
            continue
        if mother[3] > 0:
            mother[2].append(T - birth)
        mother[2].extend(depths)
        mother[3] += tips


def simulate_forward(model: RateModel, rng: RandomStream) -> OrientedUltrametricTree:
    """Forward event-by-event simulation, conditioned on N >= 1 by rejection."""
    return simulate_forward_detailed(model, rng).tree


def simulate_forward_detailed(model: RateModel, rng: RandomStream) -> ForwardResult:
    attempts = 0
    while True:
        attempts += 1
        depths, tips = _simulate_attempt(model, rng)
        if tips >= 1:
            tree = OrientedUltrametricTree(height=model.T, depths=tuple(depths))
            return ForwardResult(tree=tree, attempts=attempts)


# ---------------------------------------------------------------------------
# Thinning and subsampling
# ---------------------------------------------------------------------------


def subsample(batch: TreeBatch, keep) -> TreeBatch:
    """The subtrees of ``batch`` on the tips that ``keep`` (one bool per
    tip, in batch order) marks, by the running-max rule: the depth between
    consecutive kept tips i < j of a tree is max(depths[i:j]).

    A tree with no kept tip is dropped, as a :class:`TreeBatch` holds no
    empty tree; keeping whole trees selects rows.
    """
    n_tips = batch.n_tips
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.shape != (int(n_tips.sum()),):
        raise DomainError(f"keep must hold one bool per tip, {int(n_tips.sum())} in all")
    kept = np.flatnonzero(keep)
    tree = np.repeat(np.arange(len(batch)), n_tips)[kept]
    # left[g] is the depth on the left of tip g, -inf at the first tip of a
    # tree; between kept tips g < h of one tree, max(left[g + 1 : h + 1])
    left = np.append(np.insert(batch.depths, batch.offsets[:-1], -np.inf), -np.inf)
    depths = np.maximum.reduceat(left, kept + 1)[:-1][tree[1:] == tree[:-1]]
    counts = np.bincount(tree, minlength=len(batch))
    alive = counts > 0
    return TreeBatch(batch.heights[alive], np.append(0, np.cumsum(counts[alive] - 1)), depths)


def bernoulli_thin(batch: TreeBatch, y: float, rng: RandomStream) -> TreeBatch:
    """Keep each tip independently with probability y, by one uniform per
    tip in batch order.  Trees left with no tip are dropped, so
    ``len(batch) - len(result)`` samples were empty."""
    if not (0.0 < y <= 1.0):
        raise DomainError("y must lie in (0, 1]")
    return subsample(batch, rng.rng.random(int(batch.n_tips.sum())) < y)


def uniform_k_sample(batch: TreeBatch, k: int, rng: RandomStream) -> TreeBatch:
    """The subtree of each tree on a uniform k-subset of its tips, order
    preserved: one uniform key per tip, and the k smallest keys of each tree
    kept, found by one ``lexsort`` by (tree, key)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    n_tips = batch.n_tips
    short = np.flatnonzero(n_tips < k)
    if short.size:
        raise InsufficientTipsError(
            f"tree {short[0]} has {n_tips[short[0]]} tips, need at least {k}"
        )
    # order lists the tips tree by tree, so a tip's rank in its tree is its
    # position less that of the tree's first tip
    order = np.lexsort((rng.rng.random(n_tips.sum()), np.repeat(np.arange(len(batch)), n_tips)))
    keep = np.empty(order.size, dtype=bool)
    keep[order] = np.arange(order.size) - np.repeat(np.cumsum(n_tips) - n_tips, n_tips) < k
    return subsample(batch, keep)
