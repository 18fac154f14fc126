"""Maximum-likelihood estimation of constant birth/death rates (and
optionally the Bernoulli sampling probability) from observed trees.

Full and Bernoulli trees form a CPP, whose log-likelihood is a sum over the
node depths x of log F'_y(x) - 2 log F_y(x), minus log F_y(T) per tree.  A
uniform k-sample's likelihood is one integral over the mixing variable, a
fixed trapezoid sum (``ksample._log_k_mixture``) that also returns its score.
For constant rates one tail gives either log-likelihood and its score
(``_objective``), and :func:`fit_mle` fits every scheme by L-BFGS-B in
(lambda T, mu T[, y]), inside the box the bounds give, so the Yule boundary
mu = 0 is a face of the box.  The reported value is :func:`neg_log_likelihood`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, FitError
from .kernel import DEFAULT_STEP, ClosedFormTail, solve_F, tail_for
from .ksample import _check_heights, _k_points, _log_k_mixture, loglik
# Not called here; kept importable because perfbench/tracer.py patches them by module.
from .ksample import bernoulli_loglikelihood, full_loglikelihood, ksample_loglikelihood  # noqa: F401
from .model import OrientedUltrametricTree, RateModel, SamplingScheme, TreeBatch, _is_number

__all__ = ["FitResult", "neg_log_likelihood", "fit_mle"]


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
    depend on age, else a Volterra grid solved by ``solve_F``).
    """
    if model is None:
        F = ClosedFormTail(lam, mu, T)  # DomainError for negative or non-finite rates
    else:
        # this module's solve_F, so that patching ``inference.solve_F`` sees the solve
        F = tail_for(model, DEFAULT_STEP, solve=solve_F)
    if scheme.variant == "bernoulli" and scheme.y is None and y is not None:
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
    inside lam > 0, mu >= 0 and y in (0, 1]; an init with lam > 0, mu >= 0
    and y in (0, 1].  The fit may evaluate the ends of the box, and lam = 0
    or y = 0 explains no node depth."""
    for what, given in (("bounds", bounds), ("init", init)):
        if given is not None and not isinstance(given, dict):
            raise DomainError(f"{what} must map lam, mu or y to values")
        unknown = set(given or {}) - set(_DEFAULT_BOUNDS)
        if unknown:
            raise DomainError(f"unknown {what} keys {sorted(unknown)}; known: lam, mu, y")
    bounds = {**_DEFAULT_BOUNDS, **(bounds or {})}
    for key, pair in bounds.items():
        try:
            lo, hi = pair
            if not (_is_number(lo) and _is_number(hi)):
                raise TypeError
        except (TypeError, ValueError):
            raise DomainError(f"bound of {key} must be a pair (lower, upper), not {pair!r}") from None
        lo, hi = float(lo), float(hi)
        if not lo <= hi:
            raise DomainError(f"bound of {key}: lower end {lo} exceeds upper end {hi}")
        bounds[key] = (lo, hi)
    if not bounds["lam"][0] > 0:
        raise DomainError(f"bound of lam must lie in (0, inf): {bounds['lam']}")
    if not bounds["mu"][0] >= 0:
        raise DomainError(f"bound of mu must lie in [0, inf): {bounds['mu']}")
    if not (bounds["y"][0] > 0 and bounds["y"][1] <= 1):
        raise DomainError(f"bound of y must lie in (0, 1]: {bounds['y']}")
    init = {**_DEFAULT_INIT, **(init or {})}
    # anything but a number is nan here, which fails every check below
    lam, mu, y = (init[key] if _is_number(init[key]) else math.nan for key in ("lam", "mu", "y"))
    if not lam > 0:
        raise DomainError(f"initial lam must be > 0, not {init['lam']!r}")
    if not mu >= 0:
        raise DomainError(f"initial mu must be >= 0, not {init['mu']!r}")
    if not 0 < y <= 1:
        raise DomainError(f"initial y must lie in (0, 1], not {init['y']!r}")
    return bounds, init


def _objective(batch: TreeBatch, lam: float, mu: float, y: float, T: float, k=None):
    """The oriented negative log-likelihood of ``batch`` for constant rates,
    less its constant shape term, and its gradient in (lam, mu, y), from one
    tail: +inf and 0 where F_y(T) is not finite.  With F'_y = y lam e^{rx},
    r = lam - mu, m depths x and n trees, the log-likelihood of full and
    Bernoulli trees is m log(y lam) + r sum(x) - 2 sum(log F_y(x)) -
    n log F_y(T), and d log F'_y is (1/lam + x, -x, 1/y); F_y and its
    derivatives in (lam, mu) come from one ``ClosedFormTail.rate_gradient``
    pass over the depths and T, and d F_y / dy = F - 1 = (F_y - 1) / y.  For
    uniform k-samples (``k``; y = 1) the two sums over F_y are
    ``ksample._log_k_mixture`` at G = F - 1, with its own score.
    """
    F = ClosedFormTail(lam, mu, T, y)
    d = batch.depths
    n, m, x_sum = len(batch), d.size, float(d.sum())
    if k is not None:
        v, d_lam, d_mu = F.rate_gradient(_k_points(batch, k, T))
        if not math.isfinite(v[0, 0]):  # F(T), in column 0
            return math.inf, np.zeros(3)
        log_mix, (g_lam, g_mu) = _log_k_mixture(v - 1.0, (d_lam, d_mu))
        loglik = m * math.log(lam) + (lam - mu) * x_sum + float(log_mix.sum())
        return -loglik, -np.array([m / lam + x_sum + g_lam.sum(), -x_sum + g_mu.sum(), 0.0])
    v, d_lam, d_mu = F.rate_gradient(np.append(d, T))  # F(T) last
    vT, d_lamT, d_muT = float(v[-1]), float(d_lam[-1]), float(d_mu[-1])
    if not math.isfinite(vT):
        return math.inf, np.zeros(3)
    v, d_lam, d_mu = v[:-1], d_lam[:-1], d_mu[:-1]
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

    Every scheme (full, Bernoulli with y fixed or free, uniform k) is
    fitted by L-BFGS-B on ``_objective`` in the coordinates (lambda T,
    mu T[, y]), inside the box the bounds give (``_lbfgsb``).  lambda T and
    mu T do not depend on the time unit, so a step and ``PGRAD_TOL`` mean
    the same at any rate scale; the box holds the Yule boundary mu = 0 and
    y = 1, where L-BFGS-B stops by projection.  The fit is multi-started
    from a 3-point lattice around the init (rates scaled by 1/2, 1, 2); the
    start with the lowest negative log-likelihood wins, and ``converged`` is
    that start's own status.  The trees are packed into one batch before the
    first start, so an objective evaluation is array work only.

    The estimate is clipped into the bounds (the round trip through T can
    leave 1 ulp), and ``loglik`` is :func:`neg_log_likelihood` there, as
    CLI ``likelihood`` computes it.  For k-samples at large rT the
    likelihood is nearly flat in lambda at fixed lambda - mu, so the
    estimate of lambda alone is loose there.
    """
    batch = trees if isinstance(trees, TreeBatch) else TreeBatch.from_trees(trees)
    if not len(batch):
        raise DomainError("need at least one tree")
    bounds, init = _fit_options(bounds, init)
    T = float(batch.heights[0])
    _check_heights(batch, T)
    k = scheme.k if scheme.variant == "uniform_k" else None
    if k is not None:
        _k_points(batch, k, T)  # the tip counts, once, before the first start
    keys = ["lam", "mu"] + (["y"] if scheme.variant == "bernoulli" and scheme.y is None else [])
    unit = np.array([T, T, 1.0])[: len(keys)]
    lower, upper = (np.array([bounds[key][end] for key in keys]) * unit for end in (0, 1))
    starts = [np.array([init["lam"] * scale, init["mu"] * scale, init["y"]][: len(keys)]) * unit
              for scale in (0.5, 1.0, 2.0)]
    n, y_fixed = len(batch), scheme.y or 1.0

    def objective(theta):
        # The mean, not the sum: on the summed objective L-BFGS-B can stop
        # after one iteration, still at its start, and report success.
        lam, mu = theta[:2] / T
        y = theta[2] if len(theta) == 3 else y_fixed
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value, grad = _objective(batch, lam, mu, y, T, k)
        return value / n, grad[: len(theta)] / unit / n

    theta, converged, total_iter = _lbfgsb(objective, starts, lower, upper)
    est = {key: min(max(float(v), bounds[key][0]), bounds[key][1])
           for key, v in zip(keys, theta / unit)}
    lam, mu, y = est["lam"], est["mu"], est.get("y", y_fixed)
    bound_hits = {
        "lam_lower": lam <= bounds["lam"][0] * (1 + 1e-6),
        "lam_upper": lam >= bounds["lam"][1] * (1 - 1e-6),
        "mu_lower": mu <= bounds["mu"][0] * (1 + 1e-6),
        "mu_upper": bounds["mu"][1] > 0 and mu >= bounds["mu"][1] * (1 - 1e-6),
    }
    if "y" in est:
        bound_hits["y_upper"] = y >= bounds["y"][1] * (1 - 1e-6)
    return FitResult(
        lam=lam,
        mu=mu,
        y=est.get("y"),
        loglik=-neg_log_likelihood(batch, lam, mu, scheme, T, y=y, oriented=oriented),
        n_iter=total_iter,
        converged=converged,
        bound_hits=bound_hits,
    )


def _lbfgsb(objective, starts, lower, upper):
    """L-BFGS-B from each start (clipped into the box [lower, upper]) on
    ``objective``, which returns a value and its gradient; returns the best
    start's point and convergence, and the total number of iterations.

    A start whose objective is not finite is skipped.  A start converges
    when its value is finite and the max-norm of its projected gradient is
    at most ``PGRAD_TOL``: L-BFGS-B's own success flag is also set after a
    line-search step into +inf, at the last finite point.
    """
    from scipy.optimize import minimize  # here, so that importing cppgen loads no scipy

    box = list(zip(lower, upper))

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
    return best.x, best_converged, total_iter
