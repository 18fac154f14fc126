"""Simulation: CPPs, forward splitting trees, thinning, and k-subsampling.

The CPP route draws node depths directly from the inverse tail F; the
forward route runs the branching process event by event and extracts the
reduced tree of the survivors.  Agreement of the two is the end-to-end
distributional check exercised by the validation suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, InsufficientTipsError, PopulationCapError
from .kernel import InverseTail, invert_tail, survival_a
from .model import OrientedUltrametricTree, RateModel

__all__ = [
    "RandomStream",
    "sample_H",
    "simulate_cpp",
    "simulate_cpp_batch",
    "simulate_cpp_many",
    "simulate_forward",
    "thinned_inverse_tail",
    "bernoulli_thin",
    "uniform_k_sample",
    "subsample_depths",
]

# Forward simulation aborts once this many particles have been created in a
# single attempt; supercritical blowups should fail loudly, not hang.
POPULATION_CAP = 10**6


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


def sample_H(F: InverseTail, rng: RandomStream) -> float:
    """Draw H with P(H > t) = 1/F(t); returns +inf when H > T."""
    u = rng.uniform()
    target = 1.0 / u
    if target > float(F.value(F.T)):
        return math.inf
    return float(invert_tail(F, target)[0])


def simulate_cpp(F: InverseTail, rng: RandomStream) -> OrientedUltrametricTree:
    """Draw iid copies of H, keep those < T, stop at the first >= T."""
    FT = float(F.value(F.T))
    u_kept = []
    while True:
        u = rng.uniform()
        if 1.0 / u > FT:  # H >= T: stop
            break
        u_kept.append(u)
    if not u_kept:
        return OrientedUltrametricTree(height=F.T)
    depths = invert_tail(F, 1.0 / np.asarray(u_kept))
    return OrientedUltrametricTree(height=F.T, depths=tuple(depths))


def simulate_cpp_batch(
    F: InverseTail, reps: int, rng: RandomStream
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized replication of :func:`simulate_cpp`.

    Returns ``(tip_counts, depths)`` where ``depths`` is the concatenation of
    the per-replicate depth sequences (lengths ``tip_counts - 1``).  Same
    stopping semantics as the scalar path: uniforms are consumed in sequence
    and each u with 1/u > F(T) terminates a replicate.
    """
    FT = float(F.value(F.T))
    thresh = 1.0 / FT
    blocks = []
    n_stops = 0
    need = reps
    # Expected draws per replicate is F(T); over-draw mildly and top up.
    while n_stops < reps:
        est = int((need + 10) * FT * 1.3) + 64
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
    depths = invert_tail(F, 1.0 / us[keep])
    tip_counts = np.diff(np.concatenate([[0], stop_idx - np.arange(reps)])) + 1
    return tip_counts.astype(int), depths


def simulate_cpp_many(
    F: InverseTail, reps: int, rng: RandomStream
) -> List[OrientedUltrametricTree]:
    tip_counts, depths = simulate_cpp_batch(F, reps, rng)
    trees = []
    offset = 0
    for n in tip_counts:
        trees.append(
            OrientedUltrametricTree(height=F.T, depths=tuple(depths[offset : offset + n - 1]))
        )
        offset += n - 1
    return trees


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


def _sample_death(model: RateModel, birth: float, rng: RandomStream) -> float:
    """Death time of a particle born at ``birth``, by hazard thinning.

    Returns +inf when the particle outlives the horizon T; proposals beyond
    T are never needed.
    """
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


def _birth_times(model: RateModel, birth: float, until: float, rng: RandomStream):
    """Birth events of one particle on (birth, until), by Poisson thinning."""
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


def _simulate_attempt(model: RateModel, rng: RandomStream) -> Tuple[list, int]:
    """One forward run; returns (depths, tip count) of the reduced tree.

    Planar convention: a particle's own tip comes first (leftmost), then its
    daughters' subtrees in order of decreasing birth time; the separation
    depth in front of a daughter's block is T minus her birth time.
    """
    T = model.T
    created = 0

    def recurse(birth: float) -> Tuple[list, int]:
        nonlocal created
        created += 1
        if created > POPULATION_CAP:
            raise PopulationCapError(
                f"more than {POPULATION_CAP} particles in one forward attempt"
            )
        death = _sample_death(model, birth, rng)
        alive = math.isinf(death)
        births = _birth_times(model, birth, min(death, T), rng)
        depths: list = []
        tips = 1 if alive else 0
        for u in reversed(births):  # descending birth time
            sub_depths, sub_tips = recurse(u)
            if sub_tips == 0:
                continue
            if tips > 0:
                depths.append(T - u)
            depths.extend(sub_depths)
            tips += sub_tips
        return depths, tips

    return recurse(0.0)


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


def thinned_inverse_tail(F: InverseTail, y: float) -> InverseTail:
    """Inverse tail of the Bernoulli-sampled CPP: F_y = 1 - y + y F."""
    if not (0.0 < y <= 1.0):
        raise DomainError("y must lie in (0, 1]")
    if y == 1.0:
        return F
    thinned = getattr(F, "thinned", None)
    if thinned is None:
        raise DomainError(f"cannot thin inverse tail of type {type(F).__name__}")
    return thinned(y)


def subsample_depths(depths: Sequence[float], kept: Sequence[int]) -> tuple:
    """Depths of the subtree on sorted tip indices ``kept``.

    Running-max rule: the new depth between consecutive kept tips i < j is
    max(depths[i:j]).
    """
    d = np.asarray(depths, dtype=float)
    out = []
    for a, b in zip(kept, kept[1:]):
        out.append(float(d[a:b].max()))
    return tuple(out)


def bernoulli_thin(
    tree: OrientedUltrametricTree, y: float, rng: RandomStream
) -> Optional[OrientedUltrametricTree]:
    """Keep each tip independently with probability y.

    Returns None for the (positive-probability) empty sample; conditioning
    on a nonempty outcome is the caller's choice.
    """
    if not (0.0 < y <= 1.0):
        raise DomainError("y must lie in (0, 1]")
    n = tree.n_tips
    kept = np.flatnonzero(rng.rng.random(n) < y)
    if kept.size == 0:
        return None
    return OrientedUltrametricTree(
        height=tree.height, depths=subsample_depths(tree.depths, kept)
    )


def uniform_k_sample(
    tree: OrientedUltrametricTree, k: int, rng: RandomStream
) -> OrientedUltrametricTree:
    """Subtree on a uniform k-subset of tips, order preserved."""
    n = tree.n_tips
    if k < 1:
        raise DomainError("k must be >= 1")
    if n < k:
        raise InsufficientTipsError(f"tree has {n} tips, need at least {k}")
    kept = np.sort(rng.rng.choice(n, size=k, replace=False))
    return OrientedUltrametricTree(
        height=tree.height, depths=subsample_depths(tree.depths, kept)
    )
