"""Inverse tail distribution F of node depths.

F(t) = 1 / P(H > t) where H is the common node depth of the coalescent
representation of the reduced tree.  For a general birth/death model F is the
unique solution of the linear Volterra integro-differential equation

    F'(t) = lambda(T - t) * ( F(t) - int_0^t F(s) g(T - t, T - s) ds ),

with F(0) = 1, where g(t, s) is the density of the death time s of a particle
born at time t.  Where death does not depend on age, F has an exact form:
constant rates give the closed form (``ClosedFormTail``), and piecewise-constant
lambda(t), mu(t) give a sum of exponentials (``PiecewiseTail``).  Both have an
exact inverse.  Only age-dependent death needs the Volterra solver
(``solve_F``), whose ``GridTail`` interpolates F between grid nodes by a
monotone cubic and inverts that cubic by Newton's method, cell by cell.  So
every tail inverts exactly what its ``value`` evaluates.  ``tail_for`` picks
the right one for a model.

The death rate is piecewise constant on time cells, and on each time cell q
a piecewise-constant function h_q of age with exact integral H_q
(``RateModel.death_cells``).  So the kernel factorizes: a particle born at b
that dies at s in cell q, at age a = s - b, has

    g(b, s) = h_q(a) e^{-H_q(a)} * e^{-C_q(b)},

where C_q(b), the hazard the life line collects before it enters cell q
minus H_q(max(start_q - b, 0)), does not depend on s.  On the solver grid the
age factor is one vector per time cell and the birth factor one table, so
``solve_F`` evaluates no kernel inside its step loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError
from .model import PiecewiseConstant, RateModel

__all__ = [
    "InverseTail",
    "ClosedFormTail",
    "GridTail",
    "PiecewiseTail",
    "tail_for",
    "step_grid",
    "closed_form_F",
    "closed_form_dF",
    "death_density_g",
    "solve_F",
    "node_depth_density_f",
    "survival_a",
    "invert_tail",
]

# Relative scale below which r = lambda - mu is treated as exactly 0.
_R_SWITCH = 1e-12
# Quadratic series kicks in when |r t| is below this, to dodge cancellation
# in (e^{rt} - 1) / r right at the branch switch.
_SERIES_SWITCH = 1e-8


def _growth(r, dt, critical):
    """(e^{r dt} - 1) / r elementwise, and dt where ``critical`` (r taken as 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.expm1(r * dt) / r
    return np.where(critical, dt, out)


def _growth_inverse(r, w, critical):
    """The dt >= 0 with (e^{r dt} - 1) / r = w; +inf past a subcritical asymptote."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log1p(np.maximum(r * w, -1.0)) / r
    return np.where(critical, w, out)


def _is_critical(lam, mu):
    """Elementwise: is r = lam - mu below the threshold where it is taken as 0?"""
    return np.abs(np.asarray(lam) - np.asarray(mu)) < _R_SWITCH * np.maximum(
        np.maximum(lam, mu), 1.0
    )


def closed_form_F(lam: float, mu: float, t):
    """Constant-rate inverse tail: 1 + (lam/r)(e^{rt} - 1), or 1 + lam t at r=0."""
    if lam < 0 or mu < 0:
        raise DomainError("rates must be >= 0")
    t = np.asarray(t, dtype=float)
    r = lam - mu
    scale = max(lam, mu, 1.0)
    if abs(r) < _R_SWITCH * scale:
        out = 1.0 + lam * t
        return out if out.ndim else float(out)
    tt = np.atleast_1d(t)
    rt = r * tt
    out = 1.0 + (lam / r) * np.expm1(rt)
    small = np.abs(rt) < _SERIES_SWITCH
    if small.any():
        ts = tt[small]
        out[small] = 1.0 + lam * ts + lam * r * ts * ts / 2.0
    return out if t.ndim else float(out[0])


def closed_form_dF(lam: float, mu: float, t):
    """F'(t) = lam * e^{rt} in both branches."""
    t = np.asarray(t, dtype=float)
    out = lam * np.exp((lam - mu) * t)
    return out if out.ndim else float(out)


class InverseTail:
    """Common interface: a nondecreasing F on [0, T] with F(0) = 1.

    ``inverse(targets)`` is exact: the smallest t with F(t) = target,
    clipped to [0, T].  Tails closed under Bernoulli thinning have
    ``thinned(y)``.
    """

    T: float

    def value(self, t):
        raise NotImplementedError

    def deriv(self, t):
        raise NotImplementedError

    def inverse(self, targets):
        raise NotImplementedError


@dataclass(frozen=True)
class ClosedFormTail(InverseTail):
    """Constant-rate F, optionally Bernoulli-thinned: F_y = 1 - y + y F.

    Thinning composes multiplicatively in y, so repeated thinning stays in
    this representation.
    """

    lam: float
    mu: float
    T: float
    y: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.y <= 1.0):
            raise DomainError("y must lie in (0, 1]")
        if not (self.T > 0):
            raise DomainError("T must be > 0")

    def value(self, t):
        base = closed_form_F(self.lam, self.mu, t)
        return (1.0 - self.y) + self.y * base

    def deriv(self, t):
        return self.y * closed_form_dF(self.lam, self.mu, t)

    def thinned(self, y: float) -> "ClosedFormTail":
        return ClosedFormTail(self.lam, self.mu, self.T, self.y * y)

    def inverse(self, targets):
        """Exact inverse: t = log1p((F - 1) r / lam) / r with F the unthinned
        target (target - 1 + y) / y, or (F - 1) / lam at r = 0; clipped to [0, T]."""
        u = (np.asarray(targets, dtype=float) - 1.0) / self.y  # F - 1, unthinned
        if self.lam == 0.0:
            return np.zeros(u.shape)
        critical = _is_critical(self.lam, self.mu)
        t = _growth_inverse(self.lam - self.mu, u / self.lam, critical)
        return np.clip(t, 0.0, self.T)


@dataclass(frozen=True)
class PiecewiseTail(InverseTail):
    """Exact F for piecewise-constant lambda(s) and mu(s), optionally thinned.

    With age-independent death, F(t) = 1 + int_{T-t}^T lambda(s) e^{int_s^T r} ds
    with r = lambda - mu (Kendall 1948; Lambert & Stadler 2013).  In reverse
    time t = T - s, on a piece [tau_j, tau_{j+1}] of constant lambda_j and r_j,

        F(t) = F(tau_j) + lambda_j e^{R_j} (e^{r_j (t - tau_j)} - 1) / r_j,

    where R_j = int_{T - tau_j}^T r, so F is a sum of exponentials with an
    exact inverse on each piece.  ``breaks`` are the left edges of the pieces
    in model time (the union of the lambda and mu breaks); ``lam`` and ``mu``
    hold the rates on each piece.  Thinning composes multiplicatively in y.
    """

    breaks: tuple
    lam: tuple
    mu: tuple
    T: float
    y: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.y <= 1.0):
            raise DomainError("y must lie in (0, 1]")
        if not (self.T > 0):
            raise DomainError("T must be > 0")
        b = np.asarray(self.breaks, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if not (b.size and b.shape == lam.shape == mu.shape):
            raise DomainError("breaks, lam and mu must have equal, positive length")
        if b[0] != 0.0 or np.any(np.diff(b) <= 0) or b[-1] >= self.T:
            raise DomainError("breaks must rise strictly from 0 inside [0, T)")
        if np.any(lam < 0) or np.any(mu < 0):
            raise DomainError("rates must be >= 0")
        # Reverse time: piece j spans model time [b_{n-1-j}, b_{n-j}).
        knots = self.T - np.append(b, self.T)[::-1]
        lam, mu = lam[::-1], mu[::-1]
        r = lam - mu
        width = np.diff(knots)
        critical = _is_critical(lam, mu)
        R = np.cumsum(np.append(0.0, r * width))  # int_{T-t}^T r at the knots
        slope = lam * np.exp(R[:-1])  # F' at the start of each piece
        # F - 1 at the knots, accumulated in the order value() evaluates it.
        G = np.cumsum(np.append(0.0, slope * _growth(r, width, critical)))
        derived = dict(knots=knots, lam=lam, r=r, critical=critical, R=R, slope=slope, G=G)
        for name, arr in derived.items():
            object.__setattr__(self, "_" + name, arr)

    @classmethod
    def from_model(cls, model: RateModel) -> "PiecewiseTail":
        if not isinstance(model.mu, PiecewiseConstant):
            raise DomainError("the exact piecewise tail needs age-independent death")
        breaks = np.union1d(model.lam.breaks, model.mu.breaks)
        lam = np.atleast_1d(model.lam(breaks)).tolist()
        mu = np.atleast_1d(model.mu(breaks)).tolist()
        return cls(tuple(breaks.tolist()), tuple(lam), tuple(mu), model.T)

    def _piece(self, t):
        idx = np.searchsorted(self._knots, t, side="right") - 1
        idx = np.clip(idx, 0, len(self._lam) - 1)
        return idx, t - self._knots[idx]

    def value(self, t):
        t = np.asarray(t, dtype=float)
        j, dt = self._piece(t)
        g = self._G[j] + self._slope[j] * _growth(self._r[j], dt, self._critical[j])
        out = 1.0 + self.y * g
        return out if out.ndim else float(out)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        j, dt = self._piece(t)
        out = self.y * self._lam[j] * np.exp(self._R[j] + self._r[j] * dt)
        return out if out.ndim else float(out)

    def thinned(self, y: float) -> "PiecewiseTail":
        return PiecewiseTail(self.breaks, self.lam, self.mu, self.T, self.y * y)

    def inverse(self, targets):
        """Exact inverse, piece by piece; clipped to [0, T]."""
        u = (np.asarray(targets, dtype=float) - 1.0) / self.y  # F - 1, unthinned
        j = np.clip(np.searchsorted(self._G, u, side="right") - 1, 0, len(self._lam) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (u - self._G[j]) / self._slope[j]
        dt = _growth_inverse(self._r[j], w, self._critical[j])
        # A piece with lambda = 0 is flat in F: its targets sit at its start.
        dt = np.where(self._slope[j] > 0, dt, 0.0)
        dt = np.clip(dt, 0.0, self._knots[j + 1] - self._knots[j])
        return np.clip(self._knots[j] + dt, 0.0, self.T)


# GridTail.inverse stops once no Newton step moves a depth by more than
# _NEWTON_TOL * T, about three steps on the solver's grids; the cap only
# bounds the loop.
_NEWTON_TOL = 4 * np.finfo(float).eps
_NEWTON_MAX_STEPS = 64


@dataclass(frozen=True)
class GridTail(InverseTail):
    """Grid-backed F with shape-preserving (monotone cubic) interpolation."""

    ts: tuple
    values: tuple
    T: float

    def __post_init__(self):
        # scipy is imported here, not at module level, so that constant and
        # piecewise-rate models never load it.
        from scipy.interpolate import PchipInterpolator

        ts = np.asarray(self.ts, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if ts[0] != 0.0 or abs(ts[-1] - self.T) > 1e-12 * max(self.T, 1.0):
            raise DomainError("grid must span [0, T]")
        if abs(vals[0] - 1.0) > 1e-12:
            raise SolverError("F(0) must be 1")
        vals = vals.copy()
        vals[0] = 1.0
        # Tiny decreases are numerical noise and get clamped; anything larger
        # means the tail 1/F is not a survival function and is a hard failure.
        drops = np.maximum(vals[:-1] - vals[1:], 0.0)
        rel = drops / np.maximum(vals[:-1], 1.0)
        if np.any(rel > 1e-9):
            raise SolverError(
                f"F decreases by {rel.max():.3g} relative; solver output invalid"
            )
        vals = np.maximum.accumulate(vals)
        object.__setattr__(self, "ts", tuple(ts))
        object.__setattr__(self, "values", tuple(vals))
        interp = PchipInterpolator(ts, vals, extrapolate=False)
        object.__setattr__(self, "_interp", interp)
        object.__setattr__(self, "_dinterp", interp.derivative())
        object.__setattr__(self, "_vals", vals)

    def value(self, t):
        out = self._interp(np.asarray(t, dtype=float))
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def deriv(self, t):
        out = self._dinterp(np.asarray(t, dtype=float))
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def thinned(self, y: float) -> "GridTail":
        vals = 1.0 - y + y * np.asarray(self.values)
        return GridTail(self.ts, tuple(vals), self.T)

    def inverse(self, targets):
        """Exact inverse of the interpolant ``value`` evaluates; clipped to [0, T].

        A target u in (F(t_i), F(t_{i+1})] lies in grid cell i, found by
        ``searchsorted`` on the node values, so a target on a flat stretch
        (lambda = 0) maps to the smallest t.  On the cell, F is the PCHIP cubic
        p(s) = ((c0 s + c1) s + c2) s + c3 in s = t - t_i, and Newton's method
        solves p(s) = u from linear interpolation between the cell's nodes.  A
        step that leaves the bracket of the iterates so far, which starts as the
        cell, is replaced by the bracket's midpoint.  The iterates settle to a
        few ulps of T after about three steps.
        """
        u = np.asarray(targets, dtype=float)
        x, c, v = self._interp.x, self._interp.c, self._vals
        i = np.clip(np.searchsorted(v, u, side="left") - 1, 0, len(x) - 2)
        c0, c1, c2, c3 = c[:, i]
        h = x[i + 1] - x[i]
        v0, v1 = v[i], v[i + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = h * np.where(u <= v0, 0.0, np.where(u >= v1, 1.0, (u - v0) / (v1 - v0)))
        lo, hi = np.zeros(u.shape), h
        for _ in range(_NEWTON_MAX_STEPS):
            p = ((c0 * s + c1) * s + c2) * s + c3 - u
            lo = np.where(p < 0, s, lo)
            hi = np.where(p < 0, hi, s)
            with np.errstate(divide="ignore", invalid="ignore"):
                new = s - p / ((3.0 * c0 * s + 2.0 * c1) * s + c2)
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            moved = np.abs(new - s)
            s = new
            if not np.any(moved > _NEWTON_TOL * self.T):
                break
        return np.clip(x[i] + s, 0.0, self.T)


def _entry_hazard(cells, births) -> np.ndarray:
    """C[..., q] for life lines born at ``births``: the hazard a line collects
    before it enters time cell q, minus H_q(max(start_q - birth, 0)).

    A line born at b and dying at s in cell q, at age a = s - b, has then
    collected H_q(a) + C_q(b): the cell's age hazard integrates from the age
    at which the line enters the cell.
    """
    births = np.asarray(births, dtype=float)
    C = np.empty(births.shape + (len(cells),))
    collected = np.zeros(births.shape)
    for q, cell in enumerate(cells):
        entered = cell.by_age.integral(0.0, np.maximum(cell.start - births, 0.0))
        C[..., q] = collected - entered
        left = cell.by_age.integral(0.0, np.maximum(cell.end - births, 0.0))
        collected = collected + (left - entered)
    return C


def _cell_of(cells, s) -> np.ndarray:
    """Index of the time cell holding each time s (cells are right-open)."""
    starts = [cell.start for cell in cells]
    return np.clip(np.searchsorted(starts, s, side="right") - 1, 0, None)


def death_density_g(model: RateModel, t: float, s):
    """Density at s of the death time of a particle born at time t.

    g(t, s) = mu(s, s - t) exp(-int_t^s mu(u, u - t) du).  With s in time
    cell q and age a = s - t, this is h_q(a) e^{-H_q(a)} e^{-C_q(t)}, exact
    over the piecewise-constant pieces (see ``model.RateModel.death_cells``).
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < t):
        raise DomainError("death time must be >= birth time")
    cells = model.death_cells()
    C = _entry_hazard(cells, t)
    q = _cell_of(cells, s_arr)
    age = s_arr - t
    out = np.empty(s_arr.shape)
    for k, cell in enumerate(cells):
        here = q == k
        a = age[here]
        out[here] = cell.by_age(a) * np.exp(-(cell.by_age.integral(0.0, a) + C[k]))
    return out if out.ndim else float(out)


def step_grid(T: float, step: float) -> np.ndarray:
    """The grid 0, step, ..., T; ``step`` must divide T into at least 2 cells."""
    if not (step > 0):
        raise DomainError("step must be > 0")
    n = round(T / step)
    if n < 2 or abs(n * step - T) > 1e-9 * T:
        raise DomainError("step must divide T")
    return np.linspace(0.0, T, n + 1)


# e^{+-H} of a cell's age hazard must stay inside the float range.
_MAX_CELL_HAZARD = 700.0


def solve_F(model: RateModel, step: float) -> GridTail:
    """Solve the Volterra equation for F on [0, T] with grid spacing ``step``.

    Product-integration scheme: midpoint quadrature for the memory integral,
    explicit predictor plus one trapezoidal corrector pass per step (second
    order).  A corrector move larger than 1e-3 relative is diagnosed as the
    step being too large.

    The memory kernel factorizes.  A birth at b = T - t_i and a death at
    s = T - mid_j in time cell q of mu have the age a = (i - j - 1/2) step,
    and g(b, s) = h_q(a) e^{-H_q(a)} e^{-C_q(b)}, where h_q, H_q are the
    cell's age hazard and its integral and C_q(b) depends on b alone
    (``_entry_hazard``).  So each time cell has one vector
    K_q[m] = h_q((m + 1/2) step) e^{-H_q((m + 1/2) step)} of length n, and
    there is one (n + 1) x P table e^{-C}; the cell's deaths are one
    contiguous range of j.  A step is then one dot per time cell against a
    reversed slice of K_q: memory O(n P), no kernel evaluated in the loop.
    Raises ``SolverError`` when a cell's age hazard over [0, T] exceeds
    ``_MAX_CELL_HAZARD``, where e^{-H} and e^{-C} leave the float range.
    """
    T = model.T
    ts = step_grid(T, step)
    n = len(ts) - 1
    # Memory quadrature nodes are cell midpoints: the kernel g(T-t, T-s) jumps
    # in s wherever T-s crosses a mu breakpoint, and those jumps land on grid
    # nodes when breakpoints are multiples of the step, so midpoint product
    # integration keeps second order where node-based trapezoid would not.
    mids = 0.5 * (ts[:-1] + ts[1:])
    # lambda(T - t) is taken at the cell midpoint and used at both ends of the
    # cell.  Looking it up at the nodes would pick the wrong side of a lambda
    # break whenever T - t_i misses the break by a rounding error, and one
    # wrong cell per break drops the scheme to first order; a break strictly
    # inside a cell costs only O(step^2) locally.
    lam_cell = np.asarray(model.lam(T - mids), dtype=float).tolist()

    cells = model.death_cells()
    for cell in cells:
        total = cell.by_age.integral(0.0, T)
        if total > _MAX_CELL_HAZARD:
            raise SolverError(
                f"death hazard {total:.4g} over ages [0, T] in the time cell at "
                f"{cell.start:g} is past the solver's range ({_MAX_CELL_HAZARD:g})"
            )
    ages = (np.arange(n) + 0.5) * step
    cell_of_mid = _cell_of(cells, T - mids)  # nonincreasing in j
    exp_C = np.exp(-_entry_hazard(cells, T - ts))
    # (first j, last j + 1, K_q reversed, e^{-C_q} per node) for each cell
    # holding a midpoint; K_q[m] sits at K_rev[n - 1 - m].
    pieces = []
    newest = np.empty(n)  # g(T - t_{i+1}, T - mid_i) = K_q[0] e^{-C_q(T - t_{i+1})}
    for q, cell in enumerate(cells):
        js = np.flatnonzero(cell_of_mid == q)
        if js.size:
            lo, hi = int(js[0]), int(js[-1]) + 1
            K = cell.by_age(ages) * np.exp(-cell.by_age.integral(0.0, ages))
            newest[lo:hi] = K[0] * exp_C[lo + 1 : hi + 1, q]
            pieces.append((lo, hi, K[::-1].copy(), exp_C[:, q].tolist()))
    newest = newest.tolist()

    F = [1.0] * (n + 1)
    f_mid = np.zeros(n)  # F at the midpoints, the average of its two nodes
    memory = 0.0  # int_0^{t_i} F(s) g(T - t_i, T - s) ds by the midpoint rule
    worst_move = 0.0
    for i in range(n):
        rhs_i = lam_cell[i] * (F[i] - memory)
        pred = F[i] + step * rhs_i
        # The memory at t_{i+1} without its newest term, which needs F[i+1].
        older = 0.0
        for lo, hi, K_rev, eC in pieces:
            top = min(hi, i)
            if top > lo:
                shift = n - 1 - i
                older += eC[i + 1] * float(f_mid[lo:top] @ K_rev[shift + lo : shift + top])
        rhs_next = lam_cell[i] * (pred - step * (older + 0.5 * (F[i] + pred) * newest[i]))
        F[i + 1] = F[i] + 0.5 * step * (rhs_i + rhs_next)
        f_mid[i] = mid = 0.5 * (F[i] + F[i + 1])
        memory = step * (older + mid * newest[i])
        move = abs(F[i + 1] - pred) / max(abs(pred), 1.0)
        worst_move = max(worst_move, move)
    if worst_move > 1e-3:
        raise SolverError(
            f"step {step} too large: corrector moved values by {worst_move:.3g} relative"
        )
    return GridTail(tuple(ts), tuple(F), T)


def tail_for(model: RateModel, step: float = 1e-3, solve=None) -> InverseTail:
    """F of ``model``: exact wherever death does not depend on age.

    Constant rates get ``ClosedFormTail``, piecewise-constant lambda(t) and
    mu(t) get ``PiecewiseTail``, and age-dependent death gets the Volterra
    grid ``solve(model, step)`` (``solve_F`` by default; callers pass their
    own binding to cache the solve or to observe it).
    """
    if model.kind == "constant":
        return ClosedFormTail(model.lambda_constant, model.mu_constant, model.T)
    if isinstance(model.mu, PiecewiseConstant):
        return PiecewiseTail.from_model(model)
    return (solve or solve_F)(model, step)


def node_depth_density_f(F: InverseTail, t):
    """Common node-depth density f = F' / F^2."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > F.T * (1 + 1e-12)):
        raise DomainError("t outside [0, T]")
    v = np.asarray(F.value(t_arr))
    out = np.asarray(F.deriv(t_arr)) / (v * v)
    return out if out.ndim else float(out)


def survival_a(F: InverseTail) -> float:
    """a = P(H < T) = 1 - 1/F(T)."""
    return 1.0 - 1.0 / float(F.value(F.T))


def invert_tail(F: InverseTail, targets):
    """The smallest t in [0, T] with F(t) = target, for each target in [1, F(T)]."""
    return F.inverse(np.atleast_1d(np.asarray(targets, dtype=float)))
