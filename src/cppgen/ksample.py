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
``*_loglikelihood`` functions are its batch-of-one wrappers, and each
``*_likelihood`` function is the linear-space convenience wrapper of its
``*_loglikelihood`` twin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .cpp import RandomStream, thinned_inverse_tail
from .errors import (
    DegenerateMixtureError,
    DomainError,
    QuadratureError,
    SizeGuardError,
    TieError,
)
from .kernel import InverseTail, invert_tail, survival_a
from .model import OrientedUltrametricTree, SamplingScheme, TreeBatch

__all__ = [
    "MixtureParams",
    "mixing_density",
    "mixing_cdf",
    "sample_mixing",
    "definetti_sample",
    "definetti_sample_many",
    "loglik",
    "full_loglikelihood",
    "full_likelihood",
    "bernoulli_loglikelihood",
    "ksample_loglikelihood",
    "ksample_loglikelihoods",
    "ksample_likelihood",
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
# Depths integrated together by the k-sample quadrature.  Its arrays hold
# nodes x depths values; at 64 depths they are about 64 KB at 128 nodes, so
# peak memory does not grow with the number of trees (2000 k:5 trees: 22 ms
# and no growth, against 11 ms and +14 MB at 4096 depths).
QUAD_BLOCK = 64


@dataclass(frozen=True)
class MixtureParams:
    """Sample size k and depth-below-horizon probability a = P(H < T)."""

    k: int
    a: float

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be >= 1")
        if not (0.0 <= self.a < 1.0):
            raise DomainError("a must lie in [0, 1)")

    @classmethod
    def from_tail(cls, F: InverseTail, k: int) -> "MixtureParams":
        """The mixture of the k-sample tree from F; a = 1 - 1/F(T).

        For k > 1, raises ``DegenerateMixtureError`` when F(T) is not finite,
        so large that a rounds to 1, or 1 (a = 0: every tree has one tip).
        """
        with np.errstate(over="ignore"):
            FT = float(F.value(F.T))
        a = 1.0 - 1.0 / FT
        if k > 1:
            if not math.isfinite(FT):
                raise DegenerateMixtureError(
                    f"F(T) is not finite ({FT}); the k-sample mixture needs a < 1"
                )
            if a >= 1.0:
                raise DegenerateMixtureError(
                    f"F(T) = {FT:.4g} is too large: the k-sample mixture's a rounds to 1"
                )
            if a <= 0.0:
                raise DegenerateMixtureError(
                    f"F(T) = {FT:.4g}: every tree has one tip, none has k = {k}"
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


def definetti_sample_many(
    F: InverseTail, k: int, reps: int, rng: RandomStream
) -> Tuple[np.ndarray, TreeBatch]:
    """Two-stage k-sample tree draws: y from the mixture, then k-1 iid depths.

    Returns (y values, trees).  Depths are distributed as H_y conditioned on
    H_y < T, drawn by exact inverse CDF on the thinned tail
    F_y = 1 - y + y F; the inversions of all replicates are one call of
    :func:`invert_tail` on F.
    """
    if reps < 0:
        raise DomainError(f"reps must be >= 0, not {reps}")
    params = MixtureParams.from_tail(F, k)
    ys = np.asarray(_mixing_inverse_cdf(params, rng.rng.random(reps)))
    ys = np.minimum(np.maximum(ys, np.finfo(float).tiny), 1.0)
    heights = np.full(reps, float(F.T))
    offsets = np.arange(reps + 1, dtype=np.int64) * (k - 1)
    if k == 1:
        return ys, TreeBatch(heights, offsets, np.empty(0))
    a = params.a
    c = a * ys / (1.0 - a * (1.0 - ys))  # P(H_y < T) per replicate
    u = rng.rng.random((reps, k - 1))
    targets = 1.0 / (1.0 - c[:, None] * u)  # F_y(t) targets
    # Solve F_y(t) = target with F_y = 1 - y + y F, per-element y.
    base_targets = (targets - (1.0 - ys[:, None])) / ys[:, None]  # F(t) targets
    return ys, TreeBatch(heights, offsets, invert_tail(F, base_targets.ravel()))


# ---------------------------------------------------------------------------
# Likelihoods
# ---------------------------------------------------------------------------


def loglik(
    batch: TreeBatch,
    F: InverseTail,
    scheme: SamplingScheme,
    oriented: bool = True,
    quad_nodes: int = 64,
    max_nodes: int = 4096,
    rtol: float = 1e-6,
) -> np.ndarray:
    """Log-likelihood of each tree of ``batch`` under ``scheme``.

    Full and Bernoulli trees: ``sum(log F' - 2 log F) - log F(T)`` over the
    tree's depths, with the thinned tail ``F_y`` under Bernoulli sampling;
    all depths are evaluated in one pass and summed per tree.  Uniform
    k-samples: :func:`ksample_loglikelihoods` (``quad_nodes``, ``max_nodes``
    and ``rtol`` drive its quadrature).  ``oriented=False`` adds the shape
    multiplicity ``log 2^(n-1-cherries)`` of each tree.
    """
    T = F.T
    if len(batch) and np.abs(batch.heights - T).max() > 1e-9 * max(T, 1.0):
        raise DomainError("tree height does not match the tail horizon T")
    d = batch.depths
    if d.size and (d.min() <= 0.0 or d.max() >= T):
        raise DomainError("node depths must lie strictly in (0, T)")
    if scheme.variant == "uniform_k":
        k = scheme.k
        n_tips = batch.n_tips
        wrong = np.flatnonzero(n_tips != k)
        if wrong.size:
            raise DomainError(f"tree has {n_tips[wrong[0]]} tips, expected k={k}")
        out = ksample_loglikelihoods(
            d.reshape(len(batch), k - 1), F, k, quad_nodes, max_nodes, rtol
        )
    else:
        if scheme.variant == "bernoulli":
            if scheme.y is None:
                raise DomainError("Bernoulli scheme needs y (fixed or free)")
            F = thinned_inverse_tail(F, scheme.y)
        logf = np.log(F.deriv(d)) - 2.0 * np.log(F.value(d))
        out = batch.tree_sums(logf) - math.log(float(F.value(T)))
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


def full_likelihood(tree, F, oriented: bool = True, conditional: bool = False) -> float:
    return math.exp(full_loglikelihood(tree, F, oriented, conditional))


def bernoulli_loglikelihood(
    tree: OrientedUltrametricTree,
    F: InverseTail,
    y: float,
    oriented: bool = True,
    conditional: bool = False,
) -> float:
    return full_loglikelihood(tree, thinned_inverse_tail(F, y), oriented, conditional)


def _logsumexp0(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over axis 0, as ``scipy.special.logsumexp``: the
    column maximum is taken out of the sum, which enters through ``log1p``.
    A column of -inf gives -inf, without a numpy warning."""
    top = x.max(axis=0)
    at_top = x == top
    finite = np.isfinite(top)
    shift = np.where(finite, top, 0.0)
    # Columns whose maximum is not finite produce inf/nan here; they are
    # replaced by that maximum below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n_top = at_top.sum(axis=0)
        rest = np.exp(np.where(at_top, -np.inf, x) - shift).sum(axis=0) / n_top
        out = np.log1p(rest) + np.log(n_top) + shift
    return np.where(finite, out, top)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes on (0, 1) and their log weights, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    v = 0.5 * (nodes + 1.0)
    log_w = np.log(0.5 * weights)
    v.setflags(write=False)
    log_w.setflags(write=False)
    return v, log_w


def ksample_loglikelihoods(
    depths,
    F: InverseTail,
    k: int,
    quad_nodes: int = 64,
    max_nodes: int = 4096,
    rtol: float = 1e-6,
) -> np.ndarray:
    """Oriented k-sample log-likelihoods of R trees, from their (R, k-1) depths.

    The mixture integral over y is mapped through y = v(1-a)/(1-av) (the
    k=1 mixing CDF transform), under which the k-sample likelihood becomes

        C(tau) * k / a^{k-1} * int_0^1 prod_i f_{y(v)}(x_i) dv,

    with an O(1) integrand at both endpoints.  Gauss-Legendre nodes are
    doubled, for each tree separately, until its log-integral moves by at
    most ``rtol``; a tree still moving at ``max_nodes`` raises
    :class:`QuadratureError`.  Trees are integrated in blocks of
    ``QUAD_BLOCK`` depths.  Depths are not range-checked here.
    """
    if k == 1:
        return np.zeros(len(depths))
    a = MixtureParams.from_tail(F, k).a
    d = np.asarray(depths, dtype=float).reshape(len(depths), k - 1)
    base = math.log(k) - (k - 1) * math.log(a)
    Fv = np.asarray(F.value(d))
    log_dF = np.log(F.deriv(d))

    def log_integrals(n: int, rows: np.ndarray) -> np.ndarray:
        v, log_w = _gauss_legendre(n)
        y = (v * (1.0 - a) / (1.0 - a * v))[:, None, None]
        FY = 1.0 - y + y * Fv[rows][None]
        logf = np.log(y) + log_dF[rows][None] - 2.0 * np.log(FY)
        return _logsumexp0(logf.sum(axis=2) + log_w[:, None])

    out = np.empty(len(d))
    block = max(1, QUAD_BLOCK // (k - 1))
    for start in range(0, len(d), block):
        rows = np.arange(start, min(start + block, len(d)))
        n = quad_nodes
        prev = log_integrals(n, rows)
        while rows.size:
            if n >= max_nodes:
                raise QuadratureError(
                    f"k-sample quadrature not stable to {rtol} relative at {max_nodes} nodes"
                )
            n *= 2
            cur = log_integrals(n, rows)
            done = np.abs(cur - prev) <= rtol
            out[rows[done]] = cur[done]
            rows, prev = rows[~done], cur[~done]
    return base + out


def ksample_loglikelihood(
    tree: OrientedUltrametricTree,
    F: InverseTail,
    k: int,
    oriented: bool = True,
    quad_nodes: int = 64,
    max_nodes: int = 4096,
    rtol: float = 1e-6,
) -> float:
    """Log-likelihood of a k-tip tree under the uniform k-sampling scheme;
    the batch-of-one case of :func:`loglik`."""
    batch = TreeBatch.from_trees([tree])
    scheme = SamplingScheme.uniform_k(k)
    return float(loglik(batch, F, scheme, oriented, quad_nodes, max_nodes, rtol)[0])


def ksample_likelihood(tree, F, k, oriented: bool = True, quad_nodes: int = 64, **kw):
    return math.exp(ksample_loglikelihood(tree, F, k, oriented, quad_nodes, **kw))


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
    if tree.n_tips != k:
        raise DomainError(f"tree has {tree.n_tips} tips, expected k={k}")
    if m < 0:
        raise DomainError("m must be >= 0")
    log_l = full_loglikelihood(tree, F, oriented)
    p0, pi = _depth_probs(k, tree.depths, F)
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
