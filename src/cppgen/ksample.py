"""Uniform k-sample genealogies: mixture representation and likelihoods.

The k-sample tree is a mixture of Bernoulli-sampled CPPs over an explicit
mixing density for the sampling probability y.  This module provides that
density and its exact sampler, the two-stage (de Finetti) tree sampler, the
joint law of node depths and the number m of unsampled tips (one coefficient
of a power series with positive terms; the enumerations
:func:`joint_df_bruteforce` and :func:`power_sum_identity` stay as its test
references), and all likelihood variants.

All likelihoods are computed in log space.  :func:`loglik` evaluates a
whole :class:`~cppgen.model.TreeBatch` under any scheme; the per-tree
``*_loglikelihood`` functions are its batch-of-one wrappers.  There is no
linear-space likelihood: ``exp`` of a large tree's log-likelihood
underflows.  The k-sample likelihood is one fixed trapezoid sum over the
mixing variable (``_log_k_mixture``), which the fitter shares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .cpp import RandomStream, check_tip_budget
from .errors import DegenerateMixtureError, DomainError, SizeGuardError, TieError
from .kernel import InverseTail, invert_tail, survival_a, tail_at_T
from .model import OrientedUltrametricTree, SamplingScheme, TreeBatch

__all__ = [
    "MixtureParams",
    "mixing_density",
    "mixing_cdf",
    "sample_mixing",
    "definetti_sample",
    "definetti_sample_many",
    "check_k_sample",
    "loglik",
    "full_loglikelihood",
    "bernoulli_loglikelihood",
    "ksample_loglikelihood",
    "trapezoid_nodes",
    "joint_df",
    "joint_df_bruteforce",
    "likelihood_with_missing",
    "power_sum_identity",
]

# Hard limits for the combinatorial enumerations.
MAX_BRUTE_M = 12
MAX_BRUTE_K = 8
# Divided differences below this separation are numerically explosive.
TIE_TOL = 1e-8
# The k-sample integral is a trapezoid sum in s = logit w at this step.  Its
# integrand is analytic in the strip |Im s| < pi, so the error falls
# geometrically in 1/h whatever F(T) is; at 0.25 it is at rounding level.
TRAPEZOID_STEP = 0.25
# A tree's nodes cover the s where its log-integrand may lie within this
# much of its peak.
_TRAPEZOID_DEPTH = 38.0
# Trees integrated together, so that memory does not grow with their number.
_BLOCK_ROWS = 512


def _k_tail_at_T(F: InverseTail, k: int) -> float:
    """F(T) for a k-sample (:func:`~cppgen.kernel.tail_at_T`); for k > 1,
    ``DegenerateMixtureError`` where F(T) = 1, as no tree then has k tips."""
    FT = tail_at_T(F)
    if k > 1 and FT <= 1.0:
        raise DegenerateMixtureError(f"F(T) = {FT:.4g}: every tree has one tip, none has k = {k}")
    return FT


@dataclass(frozen=True)
class MixtureParams:
    """Sample size k and depth-below-horizon probability a = P(H < T)."""

    k: int
    a: float

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be >= 1")
        # a rounds to 1 where F(T) is huge; then Y = 0, which a one-tip
        # tree (k = 1) allows, as it has no depth to draw
        if not (0.0 <= self.a < 1.0 or (self.k == 1 and self.a == 1.0)):
            raise DomainError("a must lie in [0, 1)")

    @classmethod
    def from_tail(cls, F: InverseTail, k: int) -> "MixtureParams":
        """The mixture of the k-sample tree from F; a = 1 - 1/F(T).

        Raises the errors of :func:`_k_tail_at_T`, and for k > 1
        ``DegenerateMixtureError`` when F(T) is so large that a rounds to 1.
        """
        FT = _k_tail_at_T(F, k)
        a = 1.0 - 1.0 / FT
        if k > 1 and a >= 1.0:
            raise DegenerateMixtureError(
                f"F(T) = {FT:.4g} is too large: the k-sample mixture's a rounds to 1"
            )
        return cls(k=k, a=a)

    def c(self, y: float) -> float:
        """Normalizing constant of the conditional depth density: a y / (1 - a(1-y))."""
        return self.a * y / (1.0 - self.a * (1.0 - y))


def mixing_density(params: MixtureParams, y):
    """Density of the mixing distribution: k(1-a) y^{k-1} / (1 - a(1-y))^{k+1}."""
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0.0) or np.any(y_arr >= 1.0):
        raise DomainError("y must lie in (0, 1)")
    k, a = params.k, params.a
    out = k * (1.0 - a) * y_arr ** (k - 1) / (1.0 - a * (1.0 - y_arr)) ** (k + 1)
    return out if out.ndim else float(out)


def mixing_cdf(params: MixtureParams, y):
    """Closed-form CDF (y / (1 - a(1-y)))^k of the mixing distribution."""
    y_arr = np.asarray(y, dtype=float)
    k, a = params.k, params.a
    out = (y_arr / (1.0 - a * (1.0 - y_arr))) ** k
    return out if out.ndim else float(out)


def _mixing_inverse_cdf(params: MixtureParams, u):
    """Exact inverse of :func:`mixing_cdf`: v = u^{1/k}, y = v(1-a)/(1-av)."""
    v = np.asarray(u, dtype=float) ** (1.0 / params.k)
    out = v * (1.0 - params.a) / (1.0 - params.a * v)
    return out if np.asarray(out).ndim else float(out)


def sample_mixing(params: MixtureParams, rng: RandomStream) -> float:
    return float(_mixing_inverse_cdf(params, rng.uniform()))


def definetti_sample(
    F: InverseTail, k: int, rng: RandomStream
) -> Tuple[float, OrientedUltrametricTree]:
    """One two-stage k-sample tree draw: the batch of one of
    :func:`definetti_sample_many`."""
    ys, batch = definetti_sample_many(F, k, 1, rng)
    return float(ys[0]), next(iter(batch))


def check_k_sample(F: InverseTail, k: int, reps: int) -> MixtureParams:
    """The mixture of ``reps`` k-sample draws from F (:meth:`MixtureParams.from_tail`),
    after checking that their reps k tips fit in memory (``cpp.check_tip_budget``)."""
    if reps < 0:
        raise DomainError(f"reps must be >= 0, not {reps}")
    check_tip_budget(reps * k, reps, f"k = {k}")
    return MixtureParams.from_tail(F, k)


def definetti_sample_many(
    F: InverseTail, k: int, reps: int, rng: RandomStream
) -> Tuple[np.ndarray, TreeBatch]:
    """Two-stage k-sample tree draws: y from the mixture, then k-1 iid depths.

    Returns (y values, trees).  Depths are distributed as H_y conditioned on
    H_y < T, drawn by exact inverse CDF on the thinned tail
    F_y = 1 - y + y F; the inversions of all replicates are one call of
    :func:`invert_tail` on F.
    """
    params = check_k_sample(F, k, reps)
    ys = np.asarray(_mixing_inverse_cdf(params, rng.rng.random(reps)))
    ys = np.minimum(np.maximum(ys, np.finfo(float).tiny), 1.0)
    heights = np.full(reps, float(F.T))
    offsets = np.arange(reps + 1, dtype=np.int64) * (k - 1)
    if k == 1:
        return ys, TreeBatch(heights, offsets, np.empty(0))
    c = params.c(ys)  # P(H_y < T) per replicate
    u = rng.rng.random((reps, k - 1))
    targets = 1.0 / (1.0 - c[:, None] * u)  # F_y(t) targets
    # Solve F_y(t) = target with F_y = 1 - y + y F, per-element y.
    base_targets = (targets - (1.0 - ys[:, None])) / ys[:, None]  # F(t) targets
    return ys, TreeBatch(heights, offsets, invert_tail(F, base_targets.ravel()))


# ---------------------------------------------------------------------------
# Likelihoods
# ---------------------------------------------------------------------------


def _log_deriv(F: InverseTail, d) -> np.ndarray:
    """log F' at the depths ``d``: -inf, without a warning, where F' = 0 (a
    piece with lambda = 0), so that a tree with such a depth has likelihood 0."""
    with np.errstate(divide="ignore"):
        return np.log(F.deriv(d))


def _check_heights(batch: TreeBatch, T: float) -> None:
    """Check that every tree of ``batch`` has height T, to within 1e-9 max(T, 1)."""
    if len(batch) and np.abs(batch.heights - T).max() > 1e-9 * max(T, 1.0):
        raise DomainError("tree height does not match the tail horizon T")


def _k_points(batch: TreeBatch, k: int, T: float) -> np.ndarray:
    """The points where the k-sample likelihood reads F, one row
    [T, x_1, ..., x_{k-1}] per tree, after checking that every tree has k tips."""
    n_tips = batch.n_tips
    wrong = np.flatnonzero(n_tips != k)
    if wrong.size:
        raise DomainError(f"tree has {n_tips[wrong[0]]} tips, expected k={k}")
    n = len(batch)
    return np.column_stack([np.full(n, T), batch.depths.reshape(n, k - 1)])


def loglik(
    batch: TreeBatch,
    F: InverseTail,
    scheme: SamplingScheme,
    oriented: bool = True,
) -> np.ndarray:
    """Log-likelihood of each tree of ``batch`` under ``scheme``.

    Full and Bernoulli trees: ``sum(log F' - 2 log F) - log F(T)`` over the
    tree's depths, with the thinned tail ``F_y`` under Bernoulli sampling;
    all depths are evaluated in one pass and summed per tree, and a tree
    with a depth where F' = 0 (lambda = 0 there) gets -inf.

    Uniform k-samples: summed over the number of unsampled tips,
    :func:`likelihood_with_missing` gives the k-sample likelihood as one
    integral over the mixing variable w,

        k a^{1-k} F(T) prod_i F'(x_i) int_0^1 w^{k-1} prod_{i=0}^{k-1} (1 + G_i w)^-2 dw,

    with G_0 = F(T) - 1 and G_i = F(x_i) - 1 at the tree's k-1 depths: a
    fixed trapezoid sum in logit w (``_log_k_mixture``), whose error falls
    geometrically in the step however large F(T) is (Trefethen & Weideman
    2014).  A tree with k = 1 tip is certain, whatever F(T).

    A tree whose height is not T (:func:`_check_heights`), a k-sample tree
    without k tips (:func:`_k_points`) or a free Bernoulli y raises
    :class:`DomainError`.  Every scheme raises :class:`TailOverflowError`
    when F(T) is not finite (:func:`~cppgen.kernel.tail_at_T`), and k > 1
    samples :class:`DegenerateMixtureError` when F(T) = 1.  ``oriented=False``
    adds the shape multiplicity ``log 2^(n-1-cherries)`` of each tree.
    """
    T = F.T
    _check_heights(batch, T)
    d = batch.depths
    if d.size and (d.min() <= 0.0 or d.max() >= T):
        raise DomainError("node depths must lie strictly in (0, T)")
    if scheme.variant == "uniform_k":
        k, points = scheme.k, _k_points(batch, scheme.k, T)
        out = np.zeros(len(batch))
        if k > 1:
            out = _log_k_mixture(_excess(points, F, k))[0]
            out += _log_deriv(F, points[:, 1:]).sum(axis=1)
    else:
        if scheme.variant == "bernoulli":
            if scheme.y is None:
                raise DomainError("Bernoulli scheme needs y (fixed or free)")
            F = F.thinned(scheme.y)
        FT = tail_at_T(F)
        logf = _log_deriv(F, d) - 2.0 * np.log(F.value(d))
        out = batch.tree_sums(logf) - math.log(FT)
    if not oriented:
        out = out + (batch.n_tips - 1 - batch.cherries) * math.log(2.0)
    return out


def full_loglikelihood(
    tree: OrientedUltrametricTree,
    F: InverseTail,
    oriented: bool = True,
    conditional: bool = False,
) -> float:
    """log of C(tau)/F(T) * prod f(x_i); ``conditional`` divides by a^{n-1}
    for the version conditioned on the tip count.  The batch-of-one case of
    :func:`loglik`."""
    batch = TreeBatch.from_trees([tree])
    out = float(loglik(batch, F, SamplingScheme.full(), oriented)[0])
    if conditional and tree.depths:
        out -= len(tree.depths) * math.log(survival_a(F))
    return out


def bernoulli_loglikelihood(
    tree: OrientedUltrametricTree,
    F: InverseTail,
    y: float,
    oriented: bool = True,
    conditional: bool = False,
) -> float:
    return full_loglikelihood(tree, F.thinned(y), oriented, conditional)


def _log_sigmoid(s):
    """log w for w = 1 / (1 + e^-s), without overflow."""
    return np.minimum(s, 0.0) - np.log1p(np.exp(-np.abs(s)))


def _trapezoid_windows(G: np.ndarray):
    """First lattice index and node count of each row's trapezoid window.

    With s = logit w and G_i = exp(ell_i), the log-integrand
    phi(s) = (k+1) log w - s - 2 sum_i log(1 + G_i w) lies at most
    (k-1) log 2 above the piecewise-linear bound

        b(s) = k min(s, 0) - max(s, 0) - 2 sum_i max(0, min(s, 0) + ell_i).

    On s <= 0, b is the lower envelope of the lines (k - 2j) s - 2 (ell_0 +
    ... + ell_{j-1}) over j = 0..k, ell sorted downwards; past 0 it falls
    with slope -1.  Its peak lies at s* = min(0, -ell_{floor(k/2)}), and the
    window is where b reaches ``_TRAPEZOID_DEPTH`` below phi(s*): outside it
    each node is below e^-_TRAPEZOID_DEPTH of the peak node, and the nodes
    fall at least geometrically away from it.
    """
    R, k = G.shape
    # G = 0 only where F(x) - 1 rounds to 0; its log is floored.
    ell = -np.sort(-np.log(np.maximum(G, 1e-300)), axis=1)
    s_peak = np.minimum(0.0, -ell[:, k // 2])
    log_w = _log_sigmoid(s_peak)
    peak = (k + 1) * log_w - s_peak - 2.0 * np.log1p(G * np.exp(log_w)[:, None]).sum(axis=1)
    level = (peak - _TRAPEZOID_DEPTH - (k - 1) * math.log(2.0))[:, None]
    slope = k - 2.0 * np.arange(k + 1)
    icept = -2.0 * np.concatenate([np.zeros((R, 1)), np.cumsum(ell, axis=1)], axis=1)
    lo = ((level - icept[:, slope > 0]) / slope[slope > 0]).max(axis=1)
    hi = ((level - icept[:, slope < 0]) / slope[slope < 0]).min(axis=1)
    at_zero = -2.0 * np.maximum(ell, 0.0).sum(axis=1)
    hi = np.where(at_zero > level[:, 0], at_zero - level[:, 0], hi)
    first = np.floor(lo / TRAPEZOID_STEP).astype(np.int64)
    return first, np.ceil(hi / TRAPEZOID_STEP).astype(np.int64) - first + 1


def _log_k_mixture(G: np.ndarray, dG: Sequence[np.ndarray] = ()):
    """log(k a^{1-k} F(T) I) per row of G, and its derivatives along each of
    ``dG`` (arrays of G's shape); returns (values, derivatives).

    Row r holds G_0 = F(T) - 1 and G_i = F(x_i) - 1 at the k-1 depths of
    tree r (:func:`loglik`).  log a = -log1p(1/G_0), and

        I = int w^k (1 - w) prod_i (1 + G_i w)^-2 ds,   s = logit w,

    is the trapezoid sum at step ``TRAPEZOID_STEP`` over each row's window
    (``_trapezoid_windows``) on the one lattice s = j h.  A derivative is
    the prefactor's, dG_0 (1 + (1-k)/G_0) / F(T), plus the integrand-weighted
    mean over the nodes of -2 sum_i w dG_i / (1 + G_i w).  Rows are taken
    ``_BLOCK_ROWS`` at a time, so memory does not grow with their number.
    """
    R, k = G.shape
    out = np.empty(R)
    grads = [np.empty(R) for _ in dG]
    for lo in range(0, R, _BLOCK_ROWS):
        rows = slice(lo, min(lo + _BLOCK_ROWS, R))
        g = G[rows]
        first, count = _trapezoid_windows(g)
        starts = np.concatenate([[0], np.cumsum(count[:-1])])
        tree = np.repeat(np.arange(len(count)), count)
        # Each node's lattice index, less the block's first: log w and w are
        # computed once per lattice point of the block.
        j = np.arange(count.sum()) - np.repeat(starts - (first - first.min()), count)
        s = TRAPEZOID_STEP * np.arange(first.min(), (first + count).max())
        log_w_s = _log_sigmoid(s)
        log_w, w = log_w_s[j], np.exp(log_w_s)[j]
        phi = (k + 1) * log_w - s[j]
        scores = [np.zeros_like(w) for _ in dG]
        for i in range(k):
            gw = g[tree, i] * w
            phi -= 2.0 * np.log1p(gw)
            u = w / (1.0 + gw) if dG else None
            for score, d in zip(scores, dG):
                score -= 2.0 * d[rows][tree, i] * u
        top = np.maximum.reduceat(phi, starts)
        weight = np.exp(phi - top[tree])
        total = np.add.reduceat(weight, starts)
        G0 = g[:, 0]
        out[rows] = math.log(k * TRAPEZOID_STEP) + (k - 1) * np.log1p(1.0 / G0) + np.log1p(G0)
        out[rows] += top + np.log(total)
        for grad, score, d in zip(grads, scores, dG):
            grad[rows] = d[rows][:, 0] * (1.0 + (1 - k) / G0) / (1.0 + G0)
            grad[rows] += np.add.reduceat(weight * score, starts) / total
    return out, grads


def _excess(points: np.ndarray, F: InverseTail, k: int) -> np.ndarray:
    """G = F - 1 at the k-sample ``points`` (:func:`_k_points`), after
    :func:`_k_tail_at_T`."""
    _k_tail_at_T(F, k)
    return np.asarray(F.value(points)) - 1.0


def trapezoid_nodes(batch: TreeBatch, F: InverseTail, k: int) -> int:
    """Nodes the k-sample trapezoid evaluates on ``batch``, summed over trees,
    after the height and tip-count checks of :func:`loglik`."""
    _check_heights(batch, F.T)
    points = _k_points(batch, k, F.T)
    if k == 1:
        return 0
    return int(_trapezoid_windows(_excess(points, F, k))[1].sum())


def ksample_loglikelihood(
    tree: OrientedUltrametricTree,
    F: InverseTail,
    k: int,
    oriented: bool = True,
) -> float:
    """Log-likelihood of a k-tip tree under the uniform k-sampling scheme;
    the batch-of-one case of :func:`loglik`."""
    batch = TreeBatch.from_trees([tree])
    return float(loglik(batch, F, SamplingScheme.uniform_k(k), oriented)[0])


# ---------------------------------------------------------------------------
# Joint distribution function on {N = k + m}
# ---------------------------------------------------------------------------


def _depth_probs(k: int, x: Sequence[float], F: InverseTail):
    x = np.asarray(x, dtype=float)
    if len(x) != k - 1:
        raise DomainError(f"expected {k - 1} depth bounds, got {len(x)}")
    if x.size and (x.min() <= 0.0 or x.max() >= F.T):
        raise DomainError("depth bounds must lie strictly in (0, T)")
    p0 = survival_a(F)
    pi = 1.0 - 1.0 / np.asarray(F.value(x)) if x.size else np.empty(0)
    return p0, pi


def _log_series_coef(p: np.ndarray, m: int) -> float:
    """log [z^m] prod_j 1 / (1 - p_j z), p_j in [0, 1); a p listed twice
    squares its factor.  Row n holds [z^n] of the product over each prefix
    of p: the cumulative sum of p times row n-1, positive terms only, so
    ties cost no accuracy.  Each row is divided by its last (largest) entry,
    whose log is summed exactly at the end, so nothing overflows.
    O(len(p) m).
    """
    row = np.ones(len(p))
    tops = np.empty(m)
    for n in range(m):
        row = np.cumsum(p * row)
        tops[n] = row[-1]
        if tops[n] == 0.0:
            return -math.inf
        row /= tops[n]
    return math.fsum(np.log(tops))


def joint_df(k: int, m: int, x: Sequence[float], F: InverseTail) -> float:
    """P(N = k+m, H'_1 < x_1, ..., H'_{k-1} < x_{k-1}) for the k-sample.

    With p_0 = P(H < T) and p_i = P(H < x_i), this is (1 - p_0) / C(m+k, k)
    * prod_i p_i * [z^m] (1 - p_0 z)^{-2} prod_i (1 - p_i z)^{-1}, one
    :func:`_log_series_coef`: exact for tied p_i, O(k m).
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    p0, pi = _depth_probs(k, x, F)
    log_c = _log_series_coef(np.append(pi, [p0, p0]), m)
    return (1.0 - p0) * float(np.prod(pi)) * math.exp(log_c - math.log(math.comb(m + k, k)))


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> np.ndarray:
    """All tuples of `parts` nonnegative integers summing to `total`, one per
    row of a read-only int array: the gaps between parts-1 bars placed, in
    ``itertools.combinations`` order, among total+parts-1 slots.  The
    callers' size guard bounds the cache."""
    if parts == 0:
        out = np.zeros((int(total == 0), 0), dtype=np.int64)
    else:
        slots = total + parts - 1
        bars = np.array(list(itertools.combinations(range(slots), parts - 1)), dtype=np.int64)
        out = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
    out.setflags(write=False)
    return out


def _guard(k: int, m: int):
    if m > MAX_BRUTE_M or k > MAX_BRUTE_K:
        raise SizeGuardError(f"enumeration guard exceeded (k={k} > {MAX_BRUTE_K} or m={m} > {MAX_BRUTE_M})")


def joint_df_bruteforce(k: int, m: int, x: Sequence[float], F: InverseTail) -> float:
    """Same probability as :func:`joint_df`, by explicit enumeration of the
    unsampled-tip configurations: the reference that criterion 2 of
    :mod:`cppgen.validate` compares :func:`joint_df` with."""
    if m < 0:
        raise DomainError("m must be >= 0")
    _guard(k, m)
    p0, pi = _depth_probs(k, x, F)
    total = 0.0
    for mk in range(m + 1):
        inner = np.prod(pi ** (_compositions(m - mk, k - 1) + 1), axis=1).sum()
        total += (mk + 1) * p0**mk * inner
    return float((1.0 - p0) / math.comb(m + k, k) * total)


def likelihood_with_missing(
    tree: OrientedUltrametricTree,
    F: InverseTail,
    k: int,
    m: int,
    oriented: bool = True,
) -> float:
    """Likelihood of a k-tip tree jointly with {N = k+m}: the full
    likelihood / C(m+k, k) * [z^m] prod_{i=0}^{k-1} (1 - p_i z)^{-2}, with
    p_0 = P(H < T) and p_i = P(H < x_i) at the depths, by
    :func:`_log_series_coef` in O(k m).  Summed over m it gives
    P(N >= k) = a^{k-1} times the k-sample likelihood.
    """
    x = _k_points(TreeBatch.from_trees([tree]), k, F.T)[0, 1:]
    if m < 0:
        raise DomainError("m must be >= 0")
    log_l = full_loglikelihood(tree, F, oriented)
    p0, pi = _depth_probs(k, x, F)
    log_c = _log_series_coef(np.repeat(np.append(pi, p0), 2), m)
    return math.exp(log_l + log_c - math.log(math.comb(m + k, k)))


def power_sum_identity(p: Sequence[float], m: int) -> Tuple[float, float]:
    """Both sides of the composition/divided-difference identity.

    lhs: sum over compositions (m_1..m_n) of m of prod p_i^{m_i}, by
    enumeration.  rhs: sum_i p_i^{m+n-1} / prod_{j != i}(p_i - p_j), in
    extended precision.  Exposed publicly as a test helper: the reference
    of criterion 3 of :mod:`cppgen.validate`.
    """
    p_arr = np.asarray(p, dtype=np.longdouble)
    n = len(p_arr)
    _guard(n, m)
    diffs = p_arr[:, None] - p_arr[None, :]
    np.fill_diagonal(diffs, 1.0)
    if n > 1 and float(np.abs(diffs).min()) < TIE_TOL:
        raise TieError("p values closer than 1e-8")
    lhs = np.prod(p_arr ** _compositions(m, n), axis=1).sum()
    rhs = np.sum(p_arr ** (m + n - 1) / diffs.prod(axis=1))
    return float(lhs), float(rhs)
