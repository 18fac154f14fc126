"""Maximum-likelihood estimation of constant birth/death rates (and
optionally the Bernoulli sampling probability) from observed trees.

Full and Bernoulli trees form a CPP, whose log-likelihood is a sum over the
node depths x of log F'_y(x) - 2 log F_y(x), minus log F_y(T) per tree.  A
uniform k-sample's likelihood is one integral over the mixing variable, a
fixed trapezoid sum (``ksample._log_k_mixture``) that also returns its score.
For constant rates one tail gives either log-likelihood and its score
(``_objective``), and :func:`fit_mle` fits every scheme by L-BFGS-B.  The
reported value is :func:`neg_log_likelihood`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, FitError
from .kernel import ClosedFormTail, solve_F, tail_for
from .ksample import _log_k_mixture, loglik
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
        F = ClosedFormTail(lam, mu, T)  # DomainError for negative rates
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
    known keys only, each bound a pair (lower, upper) with lower <= upper
    inside lam >= 0, mu >= 0 and y in [0, 1], and an upper end > 0 for lam
    and y; an init with lam > 0, mu >= 0 and y in (0, 1]."""
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
    if not (bounds["lam"][0] >= 0 and bounds["lam"][1] > 0):
        raise DomainError(f"bound of lam must lie in [0, inf) with upper end > 0: {bounds['lam']}")
    if not bounds["mu"][0] >= 0:
        raise DomainError(f"bound of mu must lie in [0, inf): {bounds['mu']}")
    if not (bounds["y"][0] >= 0 and 0 < bounds["y"][1] <= 1):
        raise DomainError(f"bound of y must lie in [0, 1] with upper end > 0: {bounds['y']}")
    init = {**_DEFAULT_INIT, **(init or {})}
    if not init["lam"] > 0:
        raise DomainError(f"initial lam must be > 0, not {init['lam']}")
    if not init["mu"] >= 0:
        raise DomainError(f"initial mu must be >= 0, not {init['mu']}")
    if not 0 < init["y"] <= 1:
        raise DomainError(f"initial y must lie in (0, 1], not {init['y']}")
    return bounds, init


def _objective(batch: TreeBatch, lam: float, mu: float, y: float, T: float, k=None):
    """The oriented negative log-likelihood of ``batch`` for constant rates,
    less its constant shape term, and its gradient in (lam, mu, y), from one
    tail: +inf and 0 where F_y(T) is not finite.  With F'_y = y lam e^{rx},
    r = lam - mu, m depths x and n trees, the log-likelihood of full and
    Bernoulli trees is m log(y lam) + r sum(x) - 2 sum(log F_y(x)) -
    n log F_y(T), and d log F'_y is (1/lam + x, -x, 1/y); d F_y in (lam, mu)
    comes from ``ClosedFormTail.rate_gradient``, and d F_y / dy = F - 1 =
    (F_y - 1) / y.  For uniform k-samples (``k``; y = 1) the two sums over
    F_y are ``ksample._log_k_mixture`` at G = F - 1, with its own score.
    """
    F = ClosedFormTail(lam, mu, T, y)
    vT = F.value(T)
    if not math.isfinite(vT):
        return math.inf, np.zeros(3)
    d = batch.depths
    n, m, x_sum = len(batch), d.size, float(d.sum())
    if k is not None:
        at = np.column_stack([np.full(n, T), d.reshape(n, k - 1)])  # as ksample._excess
        log_mix, (g_lam, g_mu) = _log_k_mixture(F.value(at) - 1.0, F.rate_gradient(at))
        loglik = m * math.log(lam) + (lam - mu) * x_sum + float(log_mix.sum())
        return -loglik, -np.array([m / lam + x_sum + g_lam.sum(), -x_sum + g_mu.sum(), 0.0])
    v = F.value(d)
    d_lam, d_mu = F.rate_gradient(d)
    d_lamT, d_muT = F.rate_gradient(T)
    log_F = float(np.log(v).sum())
    loglik = m * math.log(y * lam) + (lam - mu) * x_sum - 2.0 * log_F - n * math.log(vT)
    score = np.array([
        m / lam + x_sum - 2.0 * float((d_lam / v).sum()) - n * d_lamT / vT,
        -x_sum - 2.0 * float((d_mu / v).sum()) - n * d_muT / vT,
        (m - 2.0 * float(((v - 1.0) / v).sum()) - n * (vT - 1.0) / vT) / y,
    ])
    return -loglik, -score


# L-BFGS-B stops once the max-norm of the projected gradient of the per-tree
# mean negative log-likelihood is at most PGRAD_TOL, and a run counts as
# converged only then.  Its relative-reduction test is set below the noise
# of that mean, so that it does not stop a run first.
PGRAD_TOL = 1e-7
_FTOL = 1e-15
# A run that stops short of PGRAD_TOL but lowered the objective is restarted
# from where it stopped, with a fresh Hessian estimate, up to this many runs
# per start: after a line-search step into +inf, L-BFGS-B stops there.
_LBFGSB_RUNS = 3


def fit_mle(
    trees: Union[TreeBatch, Sequence[OrientedUltrametricTree]],
    scheme: SamplingScheme,
    bounds: Optional[dict] = None,
    init: Optional[dict] = None,
    oriented: bool = True,
) -> FitResult:
    """Bounded MLE of (lambda, mu[, y]) for constant rates.

    The parameters are log-rates (and logit-y when y is free), multi-started
    from a 3-point lattice around the init (scales 1/2, 1, 2); the start
    with the lowest negative log-likelihood wins, and ``converged`` is that
    start's own status.  The trees are packed into one batch before the
    first start, so an objective evaluation is array work only.

    Every scheme (full, Bernoulli with y fixed or free, uniform k) is
    fitted by L-BFGS-B on ``_objective`` inside the box the bounds map to
    (``_lbfgsb``).  ``loglik`` is :func:`neg_log_likelihood` at the reported
    estimate, as CLI ``likelihood`` computes it there.  For k-samples at
    large rT the likelihood is nearly flat in lambda at fixed lambda - mu,
    so the estimate of lambda alone is loose there.
    """
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
        y = 1.0 / (1.0 + math.exp(-theta[2])) if free_y else scheme.y or 1.0
        return lam, mu, y

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

    k = scheme.k if scheme.variant == "uniform_k" else None
    theta, converged, total_iter = _lbfgsb(batch, T, k, bounds, unpack, starts, free_y)

    lam, mu, y = unpack(theta)
    lam = min(max(lam, bounds["lam"][0]), bounds["lam"][1])
    mu = min(max(mu, MU_FLOOR), bounds["mu"][1])
    bound_hits = {
        "lam_lower": lam <= bounds["lam"][0] * (1 + 1e-6),
        "lam_upper": lam >= bounds["lam"][1] * (1 - 1e-6),
        "mu_lower": mu < MU_REPORT_ZERO,
        "mu_upper": bounds["mu"][1] > 0 and mu >= bounds["mu"][1] * (1 - 1e-6),
    }
    if free_y:
        bound_hits["y_upper"] = y >= 1.0 - 1e-9
    if mu < MU_REPORT_ZERO:
        mu = 0.0
    return FitResult(
        lam=lam,
        mu=mu,
        y=y if free_y else None,
        loglik=-neg_log_likelihood(batch, lam, mu, scheme, T, y=y, oriented=oriented),
        n_iter=total_iter,
        converged=converged,
        bound_hits=bound_hits,
    )


def _lbfgsb(batch, T, k, bounds, unpack, starts, free_y):
    """L-BFGS-B from each start on the per-tree mean of ``_objective``;
    returns the best start's theta and convergence, and the total number of
    iterations.

    The box is (log lam, log mu[, logit y]) of the bounds, with mu's lower
    end at ``MU_FLOOR`` and no bound where y may reach 0 or 1.  A start
    whose objective is not finite is skipped.  A start converges when its
    value is finite and the max-norm of its projected gradient is at most
    ``PGRAD_TOL``: L-BFGS-B's own success flag is also set after a
    line-search step into +inf, at the last finite point.
    """
    from scipy.optimize import minimize  # here, so that importing cppgen loads no scipy

    n = len(batch)
    # The bounds as a box in theta; None where it is unbounded.
    lam_lo, lam_hi = bounds["lam"]
    mu_lo = max(bounds["mu"][0], MU_FLOOR)
    box = [
        (math.log(lam_lo) if lam_lo > 0 else None, math.log(lam_hi)),
        (math.log(mu_lo), math.log(max(bounds["mu"][1], mu_lo))),
    ]
    if free_y:
        y_lo, y_hi = bounds["y"]
        box.append((
            math.log(y_lo / (1.0 - y_lo)) if 0 < y_lo < 1 else None,
            math.log(y_hi / (1.0 - y_hi)) if y_hi < 1 else None,
        ))
    lower = np.array([-np.inf if lo is None else lo for lo, _ in box])
    upper = np.array([np.inf if hi is None else hi for _, hi in box])

    def objective(theta):
        # The mean, not the sum: on the summed objective L-BFGS-B can stop
        # after one iteration, still at its start, and report success.
        try:
            lam, mu, y = unpack(theta)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value, grad = _objective(batch, lam, mu, y, T, k)
        except (ValueError, FloatingPointError, OverflowError):
            return math.inf, np.zeros(len(theta))
        # Chain rule to (log lam, log mu[, logit y]).
        jac = np.array([lam, mu, y * (1.0 - y)])[: len(theta)]
        return value / n, grad[: len(theta)] * jac / n

    def descend(theta):
        """L-BFGS-B runs from theta: (result, converged, iterations).  A
        start whose objective is not finite stops at once (its gradient is
        0) and comes back with fun = +inf."""
        fun, nit = math.inf, 0
        for _ in range(_LBFGSB_RUNS):
            res = minimize(
                objective, theta, jac=True, method="L-BFGS-B", bounds=box,
                options={"maxiter": 1000, "ftol": _FTOL, "gtol": PGRAD_TOL},
            )
            nit += res.nit
            pgrad = np.clip(res.x - res.jac, lower, upper) - res.x
            converged = math.isfinite(res.fun) and float(np.abs(pgrad).max()) <= PGRAD_TOL
            if converged or not res.fun < fun:
                break
            theta, fun = res.x, res.fun
        return res, converged, nit

    best, best_converged, total_iter = None, False, 0
    for theta0 in starts:
        res, converged, nit = descend(np.clip(theta0, lower, upper))
        total_iter += nit
        if math.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best, best_converged = res, converged
    if best is None:
        raise FitError("all optimizer starts failed")
    # On log mu, the Yule boundary mu = 0 is flat: the gradient mu df/dmu
    # vanishes before mu reaches its floor.  Where the objective still falls
    # toward mu = 0, mu is put on its floor and the fit run once more.
    if best.x[1] > lower[1] and best.jac[1] > 0:
        theta = best.x.copy()
        theta[1] = lower[1]
        if objective(theta)[0] <= best.fun:
            res, converged, nit = descend(theta)
            total_iter += nit
            if res.fun <= best.fun:
                best, best_converged = res, converged
    return best.x, best_converged, total_iter
