"""Maximum-likelihood estimation of constant birth/death rates (and
optionally the Bernoulli sampling probability) from observed trees."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DegenerateMixtureError, DomainError, FitError, QuadratureError
from .kernel import ClosedFormTail, solve_F, tail_for
from .ksample import loglik
# Not called here; kept importable because perfbench/tracer.py patches them by module.
from .ksample import bernoulli_loglikelihood, full_loglikelihood, ksample_loglikelihood  # noqa: F401
from .model import OrientedUltrametricTree, RateModel, SamplingScheme, TreeBatch

__all__ = ["FitResult", "neg_log_likelihood", "fit_mle"]

# Internal floor for mu: the Yule boundary mu = 0 is admitted by optimizing
# log mu down to this floor and reporting 0 below the reporting threshold.
MU_FLOOR = 1e-12
MU_REPORT_ZERO = 1e-9

_DEFAULT_SOLVER_STEP = 1e-3


@lru_cache(maxsize=32)
def _cached_solve_F(model: RateModel, step: float):
    # RateModel is hashable (frozen dataclass of tuples); quantization of the
    # cache key is unnecessary because callers construct identical models for
    # identical parameter values.
    return solve_F(model, step)


def neg_log_likelihood(
    trees: Union[TreeBatch, Sequence[OrientedUltrametricTree]],
    lam: float,
    mu: float,
    scheme: SamplingScheme,
    T: float,
    y: Optional[float] = None,
    oriented: bool = True,
    model: Optional[RateModel] = None,
) -> float:
    """Negative log-likelihood of a list or :class:`TreeBatch` of trees.

    Constant-rate evaluation by default (closed-form F); pass ``model`` to
    evaluate a non-constant rate model instead (exact F where death does not
    depend on age, else a Volterra grid solved once and cached).  A free
    Bernoulli ``y`` (``scheme.y is None``) is taken from ``y``.
    """
    if model is None:
        if lam < 0 or mu < 0:
            raise DomainError("rates must be >= 0")
        F = ClosedFormTail(lam, mu, T)
    else:
        F = tail_for(model, _DEFAULT_SOLVER_STEP, solve=_cached_solve_F)
    if scheme.variant == "bernoulli" and scheme.y is None:
        if y is None:
            raise DomainError("Bernoulli scheme needs y (fixed or free)")
        scheme = SamplingScheme.bernoulli(y)
    batch = trees if isinstance(trees, TreeBatch) else TreeBatch.from_trees(trees)
    return -float(loglik(batch, F, scheme, oriented).sum())


@dataclass
class FitResult:
    lam: float
    mu: float
    y: Optional[float]
    loglik: float
    n_iter: int
    converged: bool
    bound_hits: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "mu": self.mu,
            "y": self.y,
            "logL": self.loglik,
            "iterations": self.n_iter,
            "converged": self.converged,
            "bound_hits": self.bound_hits,
        }


_DEFAULT_BOUNDS = {"lam": (1e-6, 1e3), "mu": (0.0, 1e3), "y": (1e-6, 1.0)}
_DEFAULT_INIT = {"lam": 1.0, "mu": 0.1, "y": 0.5}


def _fit_options(bounds: Optional[dict], init: Optional[dict]):
    """``bounds`` and ``init`` merged over the defaults, after checking them:
    known keys only, each bound a pair (lower, upper) with lower <= upper,
    lam > 0, mu >= 0 and y in (0, 1]."""
    for what, given in (("bounds", bounds), ("init", init)):
        if given is not None and not isinstance(given, dict):
            raise DomainError(f"{what} must map lam, mu or y to values")
        unknown = set(given or {}) - set(_DEFAULT_BOUNDS)
        if unknown:
            raise DomainError(f"unknown {what} keys {sorted(unknown)}; known: lam, mu, y")
    bounds = {**_DEFAULT_BOUNDS, **(bounds or {})}
    for key, pair in bounds.items():
        try:
            lo, hi = (float(v) for v in pair)
        except (TypeError, ValueError):
            raise DomainError(f"bound of {key} must be a pair (lower, upper), not {pair!r}") from None
        if not lo <= hi:
            raise DomainError(f"bound of {key}: lower end {lo} exceeds upper end {hi}")
        bounds[key] = (lo, hi)
    init = {**_DEFAULT_INIT, **(init or {})}
    if not init["lam"] > 0:
        raise DomainError(f"initial lam must be > 0, not {init['lam']}")
    if not init["mu"] >= 0:
        raise DomainError(f"initial mu must be >= 0, not {init['mu']}")
    if not 0 < init["y"] <= 1:
        raise DomainError(f"initial y must lie in (0, 1], not {init['y']}")
    return bounds, init


def fit_mle(
    trees: Union[TreeBatch, Sequence[OrientedUltrametricTree]],
    scheme: SamplingScheme,
    bounds: Optional[dict] = None,
    init: Optional[dict] = None,
    oriented: bool = True,
) -> FitResult:
    """Derivative-free bounded MLE of (lambda, mu[, y]) for constant rates.

    Nelder-Mead over log-rates (and logit-y when y is free), multi-started
    from a 3-point lattice around the init (scales 1/2, 1, 2); the best
    converged start wins.  The trees are packed into one batch before the
    first start, so an objective evaluation is array work only.
    """
    from scipy.optimize import minimize  # here, so that importing cppgen loads no scipy

    batch = trees if isinstance(trees, TreeBatch) else TreeBatch.from_trees(trees)
    if not len(batch):
        raise DomainError("need at least one tree")
    bounds, init = _fit_options(bounds, init)
    T = float(batch.heights[0])
    if np.any(np.abs(batch.heights - T) > 1e-9 * T):
        raise DomainError("all trees must share the same height T")
    free_y = scheme.variant == "bernoulli" and scheme.y is None

    def unpack(theta):
        lam = math.exp(theta[0])
        mu = math.exp(theta[1])
        y = 1.0 / (1.0 + math.exp(-theta[2])) if free_y else None
        return lam, mu, y

    def objective(theta):
        lam, mu, y = unpack(theta)
        lam = min(max(lam, bounds["lam"][0]), bounds["lam"][1])
        mu = min(max(mu, MU_FLOOR), bounds["mu"][1]) if bounds["mu"][1] > 0 else MU_FLOOR
        try:
            return neg_log_likelihood(batch, lam, mu, scheme, T, y=y, oriented=oriented)
        except (
            ValueError, FloatingPointError, OverflowError, QuadratureError, DegenerateMixtureError
        ):
            return math.inf

    starts = []
    for scale in (0.5, 1.0, 2.0):
        theta0 = [
            math.log(init["lam"] * scale),
            math.log(max(init["mu"] * scale, MU_FLOOR)),
        ]
        if free_y:
            y0 = min(max(init["y"], 1e-6), 1 - 1e-6)
            theta0.append(math.log(y0 / (1.0 - y0)))
        starts.append(np.asarray(theta0))

    best = None
    total_iter = 0
    any_converged = False
    for theta0 in starts:
        # A start whose whole simplex scores +inf makes Nelder-Mead's stop
        # test compute inf - inf; that start is then dropped below.
        with np.errstate(invalid="ignore"):
            res = minimize(
                objective,
                theta0,
                method="Nelder-Mead",
                options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000},
            )
        total_iter += res.nit
        if res.success:
            any_converged = True
        if np.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best = res
    if best is None or not np.isfinite(best.fun):
        raise FitError("all optimizer starts failed")

    lam, mu, y = unpack(best.x)
    lam = min(max(lam, bounds["lam"][0]), bounds["lam"][1])
    mu = min(max(mu, MU_FLOOR), bounds["mu"][1])
    bound_hits = {
        "lam_lower": lam <= bounds["lam"][0] * (1 + 1e-6),
        "lam_upper": lam >= bounds["lam"][1] * (1 - 1e-6),
        "mu_lower": mu < MU_REPORT_ZERO,
        "mu_upper": bounds["mu"][1] > 0 and mu >= bounds["mu"][1] * (1 - 1e-6),
    }
    if free_y:
        bound_hits["y_upper"] = y is not None and y >= 1.0 - 1e-9
    if mu < MU_REPORT_ZERO:
        mu = 0.0
    return FitResult(
        lam=lam,
        mu=mu,
        y=y,
        loglik=-float(best.fun),
        n_iter=total_iter,
        converged=any_converged,
        bound_hits=bound_hits,
    )
