"""Maximum-likelihood estimation of constant birth/death rates (and
optionally the Bernoulli sampling probability) from observed trees."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError, FitError, QuadratureError
from .kernel import ClosedFormTail, InverseTail, solve_F, tail_for
from .ksample import (
    bernoulli_loglikelihood,
    full_loglikelihood,
    ksample_loglikelihood,
    ksample_loglikelihoods,
)
from .model import OrientedUltrametricTree, RateModel, SamplingScheme

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
    trees: Sequence[OrientedUltrametricTree],
    lam: float,
    mu: float,
    scheme: SamplingScheme,
    T: float,
    y: Optional[float] = None,
    oriented: bool = True,
    model: Optional[RateModel] = None,
) -> float:
    """Sum of per-tree negative log-likelihoods under the given scheme.

    Constant-rate evaluation by default (closed-form F); pass ``model`` to
    evaluate a non-constant rate model instead (exact F where death does not
    depend on age, else a Volterra grid solved once and cached).
    """
    if model is None:
        if lam < 0 or mu < 0:
            raise DomainError("rates must be >= 0")
        F = ClosedFormTail(lam, max(mu, 0.0), T)
        return _nll_vectorized(trees, F, scheme, y, oriented)
    F = tail_for(model, _DEFAULT_SOLVER_STEP, solve=_cached_solve_F)
    total = 0.0
    if scheme.variant == "full":
        for tree in trees:
            total -= full_loglikelihood(tree, F, oriented)
    elif scheme.variant == "bernoulli":
        y_eff = scheme.y if scheme.y is not None else y
        if y_eff is None:
            raise DomainError("Bernoulli scheme needs y (fixed or free)")
        for tree in trees:
            total -= bernoulli_loglikelihood(tree, F, y_eff, oriented)
    else:
        for tree in trees:
            total -= ksample_loglikelihood(tree, F, scheme.k, oriented)
    return total


def _nll_vectorized(trees, F: InverseTail, scheme, y, oriented) -> float:
    """Evaluation batched across trees (the optimizer's hot path)."""
    from .model import count_cherries

    T = F.T
    orient = 0.0
    if not oriented:
        orient = sum(
            (t.n_tips - 1 - count_cherries(t)) * math.log(2.0) for t in trees
        )

    if scheme.variant in ("full", "bernoulli"):
        if scheme.variant == "bernoulli":
            y_eff = scheme.y if scheme.y is not None else y
            if y_eff is None:
                raise DomainError("Bernoulli scheme needs y (fixed or free)")
            F = F.thinned(y_eff)
        depths = np.concatenate([t.depths for t in trees]) if trees else np.empty(0)
        logf = np.log(F.deriv(depths)) - 2.0 * np.log(F.value(depths))
        return len(trees) * math.log(F.value(T)) - float(logf.sum()) - orient

    k = scheme.k
    for t in trees:
        if t.n_tips != k:
            raise DomainError(f"tree has {t.n_tips} tips, expected k={k}")
    d = [t.depths for t in trees]
    return -float(np.sum(ksample_loglikelihoods(d, F, k))) - orient


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


def fit_mle(
    trees: Sequence[OrientedUltrametricTree],
    scheme: SamplingScheme,
    bounds: Optional[dict] = None,
    init: Optional[dict] = None,
    oriented: bool = True,
) -> FitResult:
    """Derivative-free bounded MLE of (lambda, mu[, y]) for constant rates.

    Nelder-Mead over log-rates (and logit-y when y is free), multi-started
    from a 3-point lattice around the init (scales 1/2, 1, 2); the best
    converged start wins.
    """
    if not trees:
        raise DomainError("need at least one tree")
    bounds = {**_DEFAULT_BOUNDS, **(bounds or {})}
    init = {**{"lam": 1.0, "mu": 0.1, "y": 0.5}, **(init or {})}
    T = trees[0].height
    if any(abs(t.height - T) > 1e-9 * T for t in trees):
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
            return neg_log_likelihood(trees, lam, mu, scheme, T, y=y, oriented=oriented)
        except (ValueError, FloatingPointError, OverflowError, QuadratureError):
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
