"""Inverse tail distribution F of node depths.

F(t) = 1 / P(H > t) where H is the common node depth of the coalescent
representation of the reduced tree.  For a general birth/death model F is the
unique solution of the linear Volterra integro-differential equation

    F'(t) = lambda(T - t) * ( F(t) - int_0^t F(s) g(T - t, T - s) ds ),

with F(0) = 1, where g(t, s) is the density of the death time s of a particle
born at time t.  There are two tails, exact and grid.  Where death does not
depend on age, piecewise-constant lambda(t), mu(t) give F as a sum of
exponentials with an exact inverse (``ClosedFormTail``); constant rates are
its one-piece case.  Only age-dependent death needs the Volterra solver
(``solve_F``), whose ``GridTail`` interpolates F between grid nodes by a
monotone cubic and inverts that cubic by Newton's method, cell by cell.  So
every tail inverts exactly what its ``value`` evaluates.  That cubic is
PCHIP, built here in numpy: its node slopes are the Fritsch–Butland weighted
harmonic mean of the secant slopes (0 where one is 0), its end slopes the
one-sided three-point rule (0 where not positive), the same floats as scipy's
``PchipInterpolator``.  ROADMAP item 14 will change only those node slopes.
``tail_for`` picks the right one for a model.

The death rate is piecewise constant on a time x age grid: on each time
cell q, a piecewise-constant function h_q of age with exact integral H_q,
both read from the grid (``AgeDependentRate.hazard``).  So the kernel
factorizes: a particle born at b that dies at s in cell q, at age a = s - b,
has

    g(b, s) = h_q(a) e^{-H_q(a)} * e^{-C_q(b)},

where C_q(b), the hazard the life line collects before it enters cell q
minus H_q(max(start_q - b, 0)), does not depend on s.  On the solver grid the
age factor is one vector per time cell and the birth factor one table, so
the memory integral is, per time cell, a Toeplitz product scaled by row.
``solve_F`` solves its steps in blocks: the history before a block enters as
one convolution per time cell, and the block's own steps are one triangular
system built from Toeplitz tiles computed once, with no per-step Python loop.
That system does not depend on F, so a full block whose coefficient rows and
cell columns equal the previous block's, as away from the rate breaks,
reuses the previous block's system: rebuilding it would give the same bits,
so F is unchanged.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError, TailOverflowError
from .model import RateModel

__all__ = [
    "InverseTail",
    "ClosedFormTail",
    "GridTail",
    "tail_for",
    "step_grid",
    "closed_form_F",
    "death_density_g",
    "solve_F",
    "node_depth_density_f",
    "survival_a",
    "tail_at_T",
    "invert_tail",
]

# The solver grid step wherever none is given: ``tail_for``, the CLI's
# ``--step`` and the fitter's non-constant models.
DEFAULT_STEP = 1e-3

# Relative scale below which r = lambda - mu is treated as exactly 0.
_R_SWITCH = 1e-12
# Quadratic series kicks in when |r t| is below this, to dodge cancellation
# in (e^{rt} - 1) / r right at the branch switch.
_SERIES_SWITCH = 1e-8


def _growth(r, dt, critical):
    """(e^{r dt} - 1) / r, and dt where ``critical`` (r taken as 0); ``r`` and
    ``critical`` are one piece's numbers or one entry per point."""
    if not isinstance(critical, np.ndarray):
        return dt if critical else np.expm1(r * dt) / r
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(critical, dt, np.expm1(r * dt) / r)


def _growth_inverse(r, w, critical):
    """The dt >= 0 with (e^{r dt} - 1) / r = w; +inf past a subcritical asymptote."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log1p(np.maximum(r * w, -1.0)) / r
    return np.where(critical, w, out)


def _is_critical(lam, mu):
    """Elementwise: is |lam - mu| < ``_R_SWITCH`` * max(lam, mu, 1), so that
    r = lam - mu is taken as 0?  Compared term by term, which costs no
    numpy call on floats."""
    r = abs(lam - mu)
    return (r < _R_SWITCH * lam) | (r < _R_SWITCH * mu) | (r < _R_SWITCH)


def closed_form_F(lam: float, mu: float, t):
    """Constant-rate inverse tail: 1 + (lam/r)(e^{rt} - 1), or 1 + lam t at r=0."""
    if lam < 0 or mu < 0:
        raise DomainError("rates must be >= 0")
    t = np.asarray(t, dtype=float)
    r = lam - mu
    if _is_critical(lam, mu):
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


class InverseTail:
    """Common interface: a nondecreasing F on [0, T] with F(0) = 1.

    ``inverse(targets)`` is exact: the smallest t with F(t) = target,
    clipped to [0, T].  ``thinned(y)`` is the tail of the Bernoulli-sampled
    CPP, F_y = 1 - y + y F, in the same representation.
    """

    T: float

    def value(self, t):
        raise NotImplementedError

    def deriv(self, t):
        raise NotImplementedError

    def inverse(self, targets):
        raise NotImplementedError

    def thinned(self, y: float) -> "InverseTail":
        """F_y for y in (0, 1]; ``self`` at y = 1."""
        if not (0.0 < y <= 1.0):
            raise DomainError("y must lie in (0, 1]")
        return self if y == 1.0 else self._thinned(y)

    def _thinned(self, y: float) -> "InverseTail":
        raise NotImplementedError


def _per_piece(v) -> tuple:
    """``v`` as a tuple of floats; a number is one piece."""
    return tuple(map(float, v)) if isinstance(v, (tuple, list, np.ndarray)) else (float(v),)


def _pieces(T: float, breaks: tuple, lam: tuple, mu: tuple):
    """The constants of each piece of an exact tail, in reverse time: its
    knot tau_j and its end (clipped to T), lambda_j, r_j, whether r_j is
    taken as 0, and at the knot R_j = int_{T - tau_j}^T r, F' and F - 1,
    summed in piece order.  Piece j spans model time [b_{n-1-j}, b_{n-j})
    with b_n = T, so tau_j = T - b_{n-j}."""
    knots = [T - b for b in (T,) + breaks[::-1]]
    R, slope, G = 0.0, lam[-1], 0.0
    for j, (l, m) in enumerate(zip(lam[::-1], mu[::-1])):
        r, critical, width = l - m, _is_critical(l, m), knots[j + 1] - knots[j]
        yield knots[j], min(knots[j] + width, T), l, r, critical, R, slope, G
        if j + 1 < len(lam):
            G += slope * float(_growth(r, width, critical))
            R += r * width
            slope = lam[-2 - j] * float(np.exp(R))


@dataclass(frozen=True)
class ClosedFormTail(InverseTail):
    """Exact F for piecewise-constant lambda(s) and mu(s), optionally
    Bernoulli-thinned: F_y = 1 - y + y F.  Constant rates are the one-piece case.

    With age-independent death, F(t) = 1 + int_{T-t}^T lambda(s) e^{int_s^T r} ds
    with r = lambda - mu (Kendall 1948; Lambert & Stadler 2013).  In reverse
    time t = T - s, on a piece [tau_j, tau_{j+1}] of constant lambda_j and r_j,

        F(t) = F(tau_j) + lambda_j e^{R_j} (e^{r_j (t - tau_j)} - 1) / r_j,

    where R_j = int_{T - tau_j}^T r, so F is a sum of exponentials with an
    exact inverse on each piece; one piece gives 1 + (lambda/r)(e^{rt} - 1).
    ``breaks`` are the left edges of the pieces in model time (for a model,
    the union of the lambda and mu breaks); ``lam`` and ``mu`` hold the rates
    on each piece, and a number is one piece.  Every evaluation finds the
    piece holding each point by one ``searchsorted`` over the knots, so its
    cost grows with the log of the piece count.  Thinning composes
    multiplicatively in y.  Where F or F' leaves the float range it is +inf,
    and neither construction nor ``value`` or ``deriv`` warns; callers check
    that F(T) is finite by :func:`tail_at_T`.
    """

    lam: tuple
    mu: tuple
    T: float
    y: float = 1.0
    breaks: tuple = (0.0,)

    def __post_init__(self):
        if not (0.0 < self.y <= 1.0):
            raise DomainError("y must lie in (0, 1]")
        if not (self.T > 0):
            raise DomainError("T must be > 0")
        lam, mu, breaks = _per_piece(self.lam), _per_piece(self.mu), _per_piece(self.breaks)
        n = len(breaks)
        if not (n and len(lam) == len(mu) == n):
            raise DomainError("breaks, lam and mu must have equal, positive length")
        if breaks[0] != 0.0 or breaks[-1] >= self.T or any(map(operator.ge, breaks, breaks[1:])):
            raise DomainError("breaks must rise strictly from 0 inside [0, T)")
        if min(lam + mu) < 0:
            raise DomainError("rates must be >= 0")
        # One column per piece constant, indexed by the piece j of each point:
        # plain numbers for one piece (j = 0), arrays for more (j is an array).
        if n == 1:  # constant rates: F - 1 = lam (e^{rt} - 1) / r from t = 0
            (l,), (m,) = lam, mu
            columns = ((0.0,), (self.T,), lam, (l - m,), (_is_critical(l, m),), (0.0,), lam, (0.0,))
        else:
            # F may leave the float range past a knot; value(T) is then not finite.
            with np.errstate(over="ignore"):
                columns = tuple(map(np.array, zip(*_pieces(self.T, breaks, lam, mu))))
        # The dataclass is frozen, so the fields are normalized in __dict__.
        self.__dict__.update(lam=lam, mu=mu, breaks=breaks, _columns=columns)

    @classmethod
    def from_model(cls, model: RateModel) -> "ClosedFormTail":
        """The exact F of a model whose death rate does not depend on age: one
        piece per lambda or mu time break, with mu read at age 0."""
        if model.mu.depends_on_age:
            raise DomainError("the exact tail needs age-independent death")
        breaks = np.union1d(model.lam.breaks, model.mu.t_breaks)
        lam = np.atleast_1d(model.lam(breaks)).tolist()
        mu = np.atleast_1d(model.mu(breaks, 0.0)).tolist()
        return cls(lam, mu, model.T, breaks=breaks.tolist())

    def _piece(self, t):
        """The piece j holding each t (0 for one piece) and dt = t - tau_j;
        piece 0 runs on below 0 and the last piece past T."""
        n = len(self.breaks)
        if n == 1:
            return 0, t
        knot = self._columns[0]
        j = np.clip(np.searchsorted(knot, t, side="right") - 1, 0, n - 1)
        return j, t - knot[j]

    def value(self, t):
        """F_y = 1 + y (G_j + F'(tau_j) (e^{r_j dt} - 1) / r_j) on the piece
        holding t, with G_j = F(tau_j) - 1; +inf past the float range."""
        t = np.asarray(t, dtype=float)
        j, dt = self._piece(t)
        _, _, _, r, critical, _, slope, G = self._columns
        with np.errstate(over="ignore", invalid="ignore"):
            grown = slope[j] * _growth(r[j], dt, critical[j])
        if len(self.breaks) > 1:
            # A point on a knot grows by 0, also where F' overflowed there (inf * 0).
            grown = np.where(dt == 0.0, 0.0, grown)
        out = 1.0 + self.y * (G[j] + grown)
        return out if out.ndim else float(out)

    def deriv(self, t):
        """F' = y lambda_j e^{R_j + r_j (t - tau_j)} on the piece holding t;
        +inf past the float range."""
        t = np.asarray(t, dtype=float)
        j, dt = self._piece(t)
        _, _, lam, r, _, R, _, _ = self._columns
        with np.errstate(over="ignore"):
            out = self.y * lam[j] * np.exp(R[j] + r[j] * dt)
        return out if out.ndim else float(out)

    def rate_gradient(self, t):
        """(F, dF/dlam, dF/dmu) at t for constant rates (one piece), from one
        ``expm1`` pass: F is ``value`` to the bit, and dF_y/dy is the
        unthinned F - 1.

        With F - 1 = y lam g(r, t), g = (e^{rt} - 1) / r and r = lam - mu,
        dF/dlam = y (g + lam g_r) and dF/dmu = -y lam g_r, where
        g_r = dg/dr = (t e^{rt} - g) / r.  The branches are those of
        ``closed_form_F``: at r taken as 0, g = t and g_r = t^2 / 2; where
        |rt| < ``_SERIES_SWITCH``, the derivatives take g = t + r t^2 / 2 and
        g_r = t^2 / 2 + r t^3 / 3.  Just past the switch, the cancellation in
        t e^{rt} - g leaves g_r good to a few 1e-8 relative.  Where F leaves
        the float range it is +inf, without a warning, as in ``value``.
        Raises ``DomainError`` for more than one piece.
        """
        if len(self.breaks) > 1:
            raise DomainError("rate_gradient needs constant rates (one piece)")
        (lam,), (mu,) = self.lam, self.mu
        t = np.asarray(t, dtype=float)
        tt = np.atleast_1d(t)
        r = lam - mu
        if _is_critical(lam, mu):
            g, g_r = tt, tt * tt / 2.0
            v = 1.0 + self.y * (lam * g)
        else:
            rt = r * tt
            with np.errstate(over="ignore", invalid="ignore"):
                g = np.expm1(rt) / r
                v = 1.0 + self.y * (lam * g)  # as ``value`` forms it
                g_r = (tt * (r * g + 1.0) - g) / r  # e^{rt} = r g + 1
            small = np.abs(rt) < _SERIES_SWITCH
            if small.any():
                ts = tt[small]
                g[small] = ts + r * ts * ts / 2.0
                g_r[small] = ts * ts / 2.0 + r * ts**3 / 3.0
        d_lam = self.y * (g + lam * g_r)
        d_mu = -self.y * lam * g_r
        if t.ndim:
            return v, d_lam, d_mu
        return float(v[0]), float(d_lam[0]), float(d_mu[0])

    def _thinned(self, y: float) -> "ClosedFormTail":
        return ClosedFormTail(self.lam, self.mu, self.T, self.y * y, self.breaks)

    def inverse(self, targets):
        """Exact inverse: the unthinned target u = F - 1 lies in the last piece
        j with F(tau_j) - 1 <= u, where one ``_growth_inverse`` solves it;
        clipped to [0, T]."""
        u = (np.asarray(targets, dtype=float) - 1.0) / self.y  # F - 1, unthinned
        knot, end, _, r, critical, _, slope, G = self._columns
        n, j = len(self.breaks), 0
        if n > 1:
            j = np.clip(np.searchsorted(G, u, side="right") - 1, 0, n - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (u - G[j]) / slope[j]
        dt = _growth_inverse(r[j], w, critical[j])
        # A piece with lambda = 0 is flat in F: its targets sit at its start.
        dt = np.where(slope[j] > 0, dt, 0.0)
        return np.clip(knot[j] + dt, knot[j], end[j])


# GridTail.inverse stops once no Newton step moves a depth by more than
# _NEWTON_TOL * T, about three steps on the solver's grids; the cap only
# bounds the loop.
_NEWTON_TOL = 4 * np.finfo(float).eps
_NEWTON_MAX_STEPS = 64


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """PCHIP's slope at an end node: the one-sided three-point estimate from
    the two nearest cells (widths h0, h1, secant slopes m0, m1 >= 0), or 0
    where it is not positive.  It is then at most 2 m0, so PCHIP's 3 m0 clamp
    (Moler 2004, ``pchiptx``) never acts on nondecreasing data."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d if d > 0 else 0.0


def _pchip(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows c0, c1, c2, c3 of the PCHIP cubic through nondecreasing
    (x, y): on cell i, y(t) = c0 s^3 + c1 s^2 + c2 s + c3 with s = t - x_i.

    Inside, the node slope is the weighted harmonic mean of the two secant
    slopes (Fritsch & Butland 1984), with weights 2 h_i + h_{i-1} and
    h_i + 2 h_{i-1}, and 0 where a secant slope is 0: the mean is then +inf,
    so its reciprocal is that 0 (the secant slopes of nondecreasing y are
    >= 0, so they never differ in sign).  The end slopes are the one-sided
    three-point estimates, 0 where not positive (``_end_slope``), and two
    nodes give the line.  The formulas and their order are those of scipy's
    ``PchipInterpolator`` and ``CubicHermiteSpline``, so the coefficients are
    the same floats.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    d = np.empty(len(y))
    if len(h) == 1:
        d[:] = m
    else:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        np.divide(1.0, whmean, out=d[1:-1])
        (h0, h1), (m0, m1) = h[:2].tolist(), m[:2].tolist()
        d[0] = _end_slope(h0, h1, m0, m1)
        (h1, h0), (m1, m0) = h[-2:].tolist(), m[-2:].tolist()
        d[-1] = _end_slope(h0, h1, m0, m1)
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


@dataclass(frozen=True, eq=False)
class GridTail(InverseTail):
    """Grid-backed F with shape-preserving (monotone cubic) interpolation.

    Between grid nodes F is the PCHIP cubic (``_pchip``): the Hermite cubic
    whose node slopes are the Fritsch–Butland weighted harmonic mean of the
    secant slopes, 0 at a flat cell, with one-sided three-point end slopes.
    It is the cubic of scipy's ``PchipInterpolator``, evaluated in the same
    order as its ``PPoly`` (NaN outside [0, T]), with no scipy import.
    ROADMAP item 14 will change only its node slopes.

    ``ts`` and ``values`` may be given as any sequences and are stored as
    read-only float arrays; ``values`` is clamped to F(0) = 1 and made
    nondecreasing.  A grid that already is a read-only array is shared, so
    ``thinned`` reuses its parent's.
    """

    ts: np.ndarray
    values: np.ndarray
    T: float

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        if ts.flags.writeable:
            ts = ts.copy()
            ts.flags.writeable = False
        vals = np.array(self.values, dtype=float)
        if ts.ndim != 1 or len(ts) < 2:
            raise DomainError("grid must have at least 2 nodes")
        if ts[0] != 0.0 or abs(ts[-1] - self.T) > 1e-12 * max(self.T, 1.0):
            raise DomainError("grid must span [0, T]")
        if not np.all(ts[1:] > ts[:-1]):
            raise DomainError("grid must rise strictly")
        if vals.shape != ts.shape:
            raise DomainError("values must hold one F per grid node")
        if not np.all(np.isfinite(vals)):
            raise SolverError("F must be finite")
        if abs(vals[0] - 1.0) > 1e-12:
            raise SolverError("F(0) must be 1")
        vals[0] = 1.0
        # Tiny decreases are numerical noise and get clamped; anything larger
        # means the tail 1/F is not a survival function and is a hard failure.
        drops = np.maximum(vals[:-1] - vals[1:], 0.0)
        rel = drops / np.maximum(vals[:-1], 1.0)
        if np.any(rel > 1e-9):
            raise SolverError(
                f"F decreases by {rel.max():.3g} relative; solver output invalid"
            )
        np.maximum.accumulate(vals, out=vals)
        vals.flags.writeable = False
        # The dataclass is frozen, so the fields are normalized in __dict__.
        self.__dict__.update(ts=ts, values=vals, _coef=_pchip(ts, vals))

    def _cell(self, t):
        """The coefficient columns of the cell holding each t, and s = t - x_i;
        s is NaN outside [0, T], so the cubic is too, without a warning.  The
        cells are right-open but the last, which holds T (past its node)."""
        x = self.ts
        i = np.searchsorted(x[1:-1], t, side="right")
        s = np.where((t >= 0.0) & (t <= self.T), t - x[i], np.nan)
        return self._coef.take(i, axis=1), s

    def value(self, t):
        (c0, c1, c2, c3), s = self._cell(np.asarray(t, dtype=float))
        s2 = s * s
        out = c3 + c2 * s + c1 * s2 + c0 * (s2 * s)
        return out if out.ndim else float(out)

    def deriv(self, t):
        (c0, c1, c2, _), s = self._cell(np.asarray(t, dtype=float))
        out = c2 + 2.0 * c1 * s + 3.0 * c0 * (s * s)
        return out if out.ndim else float(out)

    def _thinned(self, y: float) -> "GridTail":
        return GridTail(self.ts, 1.0 - y + y * self.values, self.T)

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
        x, c, v = self.ts, self._coef, self.values
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


def _entry_hazard(model: RateModel, births) -> np.ndarray:
    """C[..., q] for life lines born at ``births``: the hazard a line collects
    before it enters time cell q, minus H_q(max(start_q - birth, 0)).

    A line born at b and dying at s in cell q, at age a = s - b, has then
    collected H_q(a) + C_q(b): the cell's age hazard integrates from the age
    at which the line enters the cell.
    """
    mu = model.mu
    births = np.asarray(births, dtype=float)
    ends = mu.t_breaks[1:] + (model.T,)
    C = np.empty(births.shape + (len(ends),))
    collected = np.zeros(births.shape)  # a running sum over the cells before q
    for q, (start, end) in enumerate(zip(mu.t_breaks, ends)):
        entered = mu.hazard(q, np.maximum(start - births, 0.0))[1]
        C[..., q] = collected - entered
        collected = collected + (mu.hazard(q, np.maximum(end - births, 0.0))[1] - entered)
    return C


def death_density_g(model: RateModel, t: float, s):
    """Density at s of the death time of a particle born at time t.

    g(t, s) = mu(s, s - t) exp(-int_t^s mu(u, u - t) du).  With s in time
    cell q and age a = s - t, this is h_q(a) e^{-H_q(a)} e^{-C_q(t)}, exact
    over the pieces of the death grid (``AgeDependentRate.hazard``).
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < t):
        raise DomainError("death time must be >= birth time")
    q = model.mu.time_cell(s_arr)
    h, H = model.mu.hazard(q, s_arr - t)
    out = h * np.exp(-(H + _entry_hazard(model, t)[q]))
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


# Steps per block of ``solve_F``: below about 64 the numpy calls each block
# makes set the cost, above it the B x B tiles and their solve.
_BLOCK = 64
# Where the tiles of a block of b steps are nonzero, and what they read:
# tile[m, u] = K_q[m - 1 - u] for u < m, else 0.  And [1 | S]: S[j, k] = 1
# for k < j and 1/2 at k = j, so that S d sums the increments of a block up
# to its midpoint j; S0 is S less its diagonal.  They depend on _BLOCK
# alone, and a block of b < _BLOCK steps reads their top left corner.
_LAG = np.subtract.outer(np.arange(_BLOCK + 1), np.arange(_BLOCK)) - 1
_TILE_MASK, _TILE_INDEX = _LAG >= 0, np.maximum(_LAG, 0)
_ONES_SUM = np.hstack(
    [np.ones((_BLOCK, 1)), np.tril(np.ones((_BLOCK, _BLOCK)), -1) + 0.5 * np.eye(_BLOCK)]
)


def _last_change(rows, B: int) -> list:
    """For each row i of the 2-d ``rows``, the last row j <= i that differs
    from row j - B in some column; the first B rows count as changed, and NaN
    differs from itself."""
    changed = np.ones(len(rows), bool)
    changed[B:] = (rows[B:] != rows[:-B]).any(axis=1)
    return np.maximum.accumulate(np.where(changed, np.arange(len(rows)), 0)).tolist()


def _block_system(pieces, cols, coef, s, ones_sum):
    """The system of ``solve_F``'s block of rows s..e, e = s + b, for the
    coefficient rows ``coef`` = (alpha, beta, gamma) of its b steps: the
    kernel G[m, u] = g(T - t_{s+m}, T - mid_{s+u}) over its own columns, set
    piece by piece from ``cols`` (piece, c0, c1), and r and A of
    A d = F_s r - beta, gamma times the history.  Nothing here depends on F.
    """
    a, be, ga = coef
    b = len(a)
    G = np.empty((b + 1, b))
    for k, c0, c1 in cols:
        _, _, _, eC, tile = pieces[k]
        G[:, c0:c1] = eC[s : s + b + 1, None] * tile[: b + 1, c0:c1]
    # beta W + gamma O over the block's own j; O_i leaves out j = i.
    M = be[:, None] * G[:-1] + ga[:, None] * G[1:]
    M.ravel()[:: b + 1] = 0.0
    # With F_i = F_s + (S0 d)_i and f_mid_j = F_s + (S d)_j, the block is
    # (I - diag(alpha) S0 + M S) d = (alpha - M 1) F_s - beta, gamma times
    # the history; one product with [1 | S] gives M 1 and M S.
    MS = M @ ones_sum[:b, : b + 1]
    # A's diagonal and upper part are not read.
    return G, a - MS[:, 0], MS[:, 1:] - a[:, None]


def solve_F(model: RateModel, step: float) -> GridTail:
    """Solve the Volterra equation for F on [0, T] with grid spacing ``step``.

    Product-integration scheme: midpoint quadrature for the memory integral,
    explicit predictor plus one trapezoidal corrector pass per step (second
    order).  A corrector move larger than 1e-3 relative is diagnosed as the
    step being too large.

    The memory kernel factorizes.  A birth at b = T - t_i and a death at
    s = T - mid_j in time cell q of mu have the age a = (i - j - 1/2) step,
    and g(b, s) = h_q(a) e^{-H_q(a)} e^{-C_q(b)}, where h_q, H_q are the
    cell's age hazard and its integral, read from the death grid for all
    cells at once (``AgeDependentRate.hazard``), and C_q(b) depends on b
    alone (``_entry_hazard``).  So each time cell has one vector
    K_q[m] = h_q((m + 1/2) step) e^{-H_q((m + 1/2) step)} of length n, and
    there is one (n + 1) x P table e^{-C}; the cell's deaths are one
    contiguous range of j.  The memory W_i = sum_{j<i} F(mid_j) g(T - t_i,
    T - mid_j) is then, per time cell, a Toeplitz product in i - j times a
    row scale e^{-C_q}.

    Each step is linear in F, so the increment d_i = F_{i+1} - F_i is
    alpha_i F_i - beta_i W_i - gamma_i O_i, where O_i is the memory at
    t_{i+1} without its newest term j = i, which the corrector takes at the
    average of F_i and the predictor.  The steps are solved in blocks of
    ``_BLOCK`` (Hairer, Lubich & Schlichte 1985).  The history before a block
    enters its rows as one ``np.convolve`` per time cell, and the block's
    own steps are one unit-lower-triangular system in d, built from per-cell
    Toeplitz tiles of K_q that are computed once, and solved by LAPACK
    ``dtrtrs``.  F is the running sum of d from the block's first node, which
    keeps each step's rounding relative to its increment, as in a
    step-by-step loop.  The corrector moves come from the solved F and each
    block's memory (one tile product per block) in one vectorized pass.
    With B = ``_BLOCK``, memory is O(n P + P B^2) and there are n / B Python
    iterations.

    A block's system (``_block_system``) does not depend on F: it is a
    function of the block's alpha, beta, gamma and e^{-C_q} rows and of the
    columns each time cell's deaths take in it.  A full block whose rows and
    columns equal the previous block's (compared exactly, once per solve by
    ``_last_change``, so NaN rows never match) reuses that block's system,
    which rebuilding would give bit for bit; so F does not change.  Away
    from the breaks of lambda and mu the rows repeat, so a constant lambda
    with a one-cell mu builds two systems at any step, the first block's and
    the partial last block's.  Nothing is kept across calls.

    Raises ``SolverError`` when a cell's age hazard over [0, T] exceeds
    ``_MAX_CELL_HAZARD``, where e^{-H} and e^{-C} leave the float range.
    """
    # scipy is imported here, so that models with an exact tail never load it.
    from scipy.linalg.lapack import dtrtrs

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
    lam = np.asarray(model.lam(T - mids), dtype=float)

    mu = model.mu
    # H_q(T) of each time cell q
    for start, total in zip(mu.t_breaks, mu.hazard(slice(None), T)[1].tolist()):
        if total > _MAX_CELL_HAZARD:
            raise SolverError(
                f"death hazard {total:.4g} over ages [0, T] in the time cell at "
                f"{start:g} is past the solver's range ({_MAX_CELL_HAZARD:g})"
            )
    B = min(_BLOCK, n)
    # K_q at the midpoint ages, one row per time cell
    h, H = mu.hazard(slice(None), (np.arange(n) + 0.5) * step)
    K_cells = h * np.exp(-H)
    cell_of_mid = mu.time_cell(T - mids)  # nonincreasing in j
    # A line born at b >= 0 enters the first cell at age 0, so C_0 = 0.
    exp_C = np.ones((n + 1, len(K_cells)))
    if len(K_cells) > 1:
        exp_C[:, 1:] = np.exp(-_entry_hazard(model, T - ts)[:, 1:])
    mask, index = _TILE_MASK[: B + 1, :B], _TILE_INDEX[: B + 1, :B]
    # (first j, last j + 1, K_q, e^{-C_q} per node, tile) for each cell
    # holding a midpoint.
    pieces = []
    newest = np.empty(n)  # g(T - t_{i+1}, T - mid_i) = K_q[0] e^{-C_q(T - t_{i+1})}
    for q, K in enumerate(K_cells):
        js = np.flatnonzero(cell_of_mid == q)
        if js.size:
            lo, hi = int(js[0]), int(js[-1]) + 1
            newest[lo:hi] = K[0] * exp_C[lo + 1 : hi + 1, q]
            tile = np.where(mask, K[index], 0.0)
            pieces.append((lo, hi, K, exp_C[:, q], tile))

    # One step, with rhs_i = lam_i (F_i - step W_i), the predictor
    # p = F_i + step rhs_i and the corrector
    # F_{i+1} = F_i + step/2 (rhs_i + lam_i (p - step (O_i + (F_i + p)/2 newest_i))),
    # is d_i = alpha_i F_i - beta_i W_i - gamma_i O_i with these coefficients.
    hl = step * lam
    damp = 1.0 - 0.5 * step * newest
    alpha = 0.5 * hl * (2.0 + hl) * damp
    beta = 0.5 * step * hl * (1.0 + hl * damp)
    gamma = 0.5 * step * hl

    coef = np.stack([alpha, beta, gamma])
    # A full block repeats the previous block's rows when no row of it
    # changed from the row B before: for alpha, beta and gamma, and for the
    # e^{-C_q} of each cell whose deaths it holds.
    coef_changed = _last_change(coef.T, B)
    cell_changed = [_last_change(eC[:, None], B) for _, _, _, eC, _ in pieces]
    F = np.empty(n + 1)
    F[0] = 1.0
    f_mid = np.empty(n)  # F at the midpoints, the average of its two nodes
    W = np.empty(n)  # W_i, for the corrector moves
    layout = None  # (piece, c0, c1) of each piece in the block of G, r and A
    # Past the float range F is +inf and its corrector move +inf, which is
    # reported as a SolverError below, without a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, B):
            e = min(s + B, n)
            # Rows i = s..e: the memory sum over j < s, and the block's own
            # columns j of each piece.
            hist = None
            cols = []
            for k, (lo, hi, K, eC, _) in enumerate(pieces):
                top = min(hi, s)
                if top > lo:
                    part = eC[s : e + 1] * np.convolve(f_mid[lo:top], K[s - top : e - lo], "valid")
                    hist = part if hist is None else np.add(hist, part, out=hist)
                c0, c1 = max(lo, s) - s, min(hi, e) - s
                if c1 > c0:
                    cols.append((k, c0, c1))
            if hist is None:  # the first block has no history
                hist = np.zeros(e - s + 1)
            # A block with the previous block's columns and rows reuses its
            # system; the partial last block's columns never equal a full one's.
            if not (
                cols == layout
                and coef_changed[e - 1] < s
                and all(cell_changed[k][e] < s for k, _, _ in cols)
            ):
                G, r, A = _block_system(pieces, cols, coef[:, s:e], s, _ONES_SUM)
                # A is C-ordered: LAPACK solves with A.T, upper and transposed.
                G_own, A_t = G[:-1], A.T
                layout = cols
            rhs = F[s] * r - beta[s:e] * hist[:-1] - gamma[s:e] * hist[1:]
            F[s + 1 : e + 1] = dtrtrs(A_t, rhs, lower=0, trans=1, unitdiag=1)[0]
            np.add.accumulate(F[s : e + 1], out=F[s : e + 1])  # d, summed from F_s
            fm = f_mid[s:e]
            np.add(F[s:e], F[s + 1 : e + 1], out=fm)
            fm *= 0.5
            np.matmul(G_own, fm, out=W[s:e])
            W[s:e] += hist[:-1]
        pred = F[:-1] + step * (lam * (F[:-1] - step * W))
        move = np.abs(F[1:] - pred) / np.maximum(np.abs(pred), 1.0)
        # A move past the float range (inf, or inf - inf) counts as infinite.
        worst_move = float(np.nan_to_num(move, nan=np.inf).max())
    if worst_move > 1e-3:
        raise SolverError(
            f"step {step} too large: corrector moved values by {worst_move:.3g} relative"
        )
    return GridTail(ts, F, T)


def tail_for(model: RateModel, step: float = DEFAULT_STEP, solve=None) -> InverseTail:
    """F of ``model``: exact wherever death does not depend on age.

    A death rate that does not depend on age (``mu.depends_on_age``), constant
    rates included, gets the exact ``ClosedFormTail``, and age-dependent
    death gets the Volterra grid ``solve(model, step)`` (``solve_F`` by
    default; callers pass their own binding to observe the solve).
    """
    if not model.mu.depends_on_age:
        return ClosedFormTail.from_model(model)
    return (solve or solve_F)(model, step)


def node_depth_density_f(F: InverseTail, t):
    """Common node-depth density f = F' / F^2; a t within 1e-12 relative
    past T counts as T, where every tail is defined."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > F.T * (1 + 1e-12)):
        raise DomainError("t outside [0, T]")
    t_arr = np.minimum(t_arr, F.T)
    v = np.asarray(F.value(t_arr))
    out = np.asarray(F.deriv(t_arr)) / (v * v)
    return out if out.ndim else float(out)


def tail_at_T(F: InverseTail) -> float:
    """F(T), where every sampler and likelihood starts: the one check that it
    is finite, which raises :class:`TailOverflowError` where it is not."""
    FT = float(F.value(F.T))
    if not np.isfinite(FT):
        raise TailOverflowError(f"F(T) is not finite ({FT}): F leaves the float range")
    return FT


def survival_a(F: InverseTail) -> float:
    """a = P(H < T) = 1 - 1/F(T), from :func:`tail_at_T`."""
    return 1.0 - 1.0 / tail_at_T(F)


def invert_tail(F: InverseTail, targets):
    """The smallest t in [0, T] with F(t) = target, for each target in [1, F(T)]."""
    return F.inverse(np.atleast_1d(np.asarray(targets, dtype=float)))
