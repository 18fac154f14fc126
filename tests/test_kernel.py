"""Inverse-tail function F: closed form, Volterra solver, thinning algebra."""

import math
import pickle
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cppgen import kernel
from cppgen.cpp import RandomStream, simulate_cpp_many
from cppgen.errors import DomainError, SolverError, TailOverflowError
from cppgen.kernel import (
    _BLOCK,
    ClosedFormTail,
    GridTail,
    _entry_hazard,
    _pchip,
    closed_form_F,
    death_density_g,
    invert_tail,
    node_depth_density_f,
    solve_F,
    step_grid,
    survival_a,
    tail_at_T,
    tail_for,
)
from cppgen.ksample import definetti_sample_many, joint_df, loglik
from cppgen.model import AgeDependentRate, PiecewiseConstant, RateModel, SamplingScheme, TreeBatch

TV_MODEL = RateModel.time_varying(
    lam=PiecewiseConstant((0.0, 1.0), (1.0, 1.5)),
    mu=PiecewiseConstant((0.0, 1.0), (0.5, 0.2)),
    T=2.0,
)
AD_MODEL = RateModel.age_dependent(
    lam=PiecewiseConstant.constant(1.0),
    mu=AgeDependentRate((0.0,), (0.0, 0.5), ((0.2, 0.7),)),
    T=2.0,
)


def _tv_exact(t):
    """TV_MODEL's F(t) = 1 + int_{T-t}^T lam(s) e^{int_s^T r} ds by adaptive quadrature."""
    from scipy.integrate import quad

    lam_v, mu_v, T = [1.0, 1.5], [0.5, 0.2], 2.0

    def lam(s):
        return lam_v[1] if s >= 1.0 else lam_v[0]

    def r(s):
        return lam(s) - (mu_v[1] if s >= 1.0 else mu_v[0])

    def integrand(s):
        # r jumps at 1.0; without the break point quad stalls near 5e-6
        expo, _ = quad(r, s, T, limit=200, points=[1.0] if s < 1.0 else None)
        return lam(s) * math.exp(expo)

    val, _ = quad(integrand, T - t, T, limit=200, points=[1.0])
    return 1.0 + val


def _line_cumhazard(model, birth, s):
    """int_birth^s mu(u, u - birth) du, summed over the pieces between the
    knots of the life line (the time breaks and birth + the age breaks)."""
    mu = model.mu
    s = np.asarray(s, dtype=float)
    upto = max(float(np.max(s)) if s.size else birth, birth)
    knots = {birth, upto}
    knots.update(b for b in mu.t_breaks if birth < b < upto)
    knots.update(birth + b for b in mu.x_breaks if birth < birth + b < upto)
    knots = np.asarray(sorted(knots))
    if len(knots) == 1:
        return np.zeros_like(s)
    mids = 0.5 * (knots[:-1] + knots[1:])
    cum = np.concatenate([[0.0], np.cumsum(mu(mids, mids - birth) * np.diff(knots))])
    return np.interp(s, knots, cum)


def _g_rowwise(model, birth, s, age):
    """g at death times ``s`` for a birth at ``birth``; ``age`` is s - birth,
    passed in so that a grid age is exact rather than a difference of two
    rounded times (an age break on a midpoint age must not flip sides)."""
    s = np.asarray(s, dtype=float)
    return np.asarray(model.mu(s, age)) * np.exp(-_line_cumhazard(model, birth, s))


def _solve_F_rowwise(model, step):
    """The solver before the kernel factorization: the same scheme with one
    kernel row g(T - t_i, T - mid_j), j < i, evaluated per step."""
    T = model.T
    ts = np.linspace(0.0, T, round(T / step) + 1)
    n = len(ts) - 1
    mids = 0.5 * (ts[:-1] + ts[1:])
    lam_cell = np.asarray(model.lam(T - mids))
    F = np.empty(n + 1)
    F[0] = 1.0

    def memory(i, row):
        if i == 0:
            return 0.0
        return step * float(0.5 * (F[:i] + F[1 : i + 1]) @ row)

    row_i = _g_rowwise(model, T, mids[:0], mids[:0])
    worst_move = 0.0
    for i in range(n):
        rhs_i = lam_cell[i] * (F[i] - memory(i, row_i))
        pred = F[i] + step * rhs_i
        # the age of memory cell j at node t_{i+1} is (i - j + 1/2) step
        ages = (np.arange(i, -1, -1) + 0.5) * step
        row_next = _g_rowwise(model, T - ts[i + 1], T - mids[: i + 1], ages)
        F[i + 1] = pred
        rhs_next = lam_cell[i] * (pred - memory(i + 1, row_next))
        F[i + 1] = F[i] + 0.5 * step * (rhs_i + rhs_next)
        worst_move = max(worst_move, abs(F[i + 1] - pred) / max(abs(pred), 1.0))
        row_i = row_next
    if worst_move > 1e-3:
        raise SolverError(f"corrector moved values by {worst_move:.3g} relative")
    return F


def _solve_F_longdouble(model, step):
    """The scheme's per-step loop in np.longdouble, on the float64 kernel
    tables that solve_F builds: it checks the recurrence's rounding alone."""
    ld = np.longdouble
    T = model.T
    ts = step_grid(T, step)
    n = len(ts) - 1
    mids = 0.5 * (ts[:-1] + ts[1:])
    lam = np.asarray(model.lam(T - mids), dtype=float).astype(ld)
    ages = (np.arange(n) + 0.5) * step
    cell_of_mid = model.mu.time_cell(T - mids)
    exp_C = np.exp(-_entry_hazard(model, T - ts)).astype(ld)
    pieces, newest = [], np.empty(n, dtype=ld)
    for q in range(len(model.mu.t_breaks)):
        js = np.flatnonzero(cell_of_mid == q)
        if js.size:
            lo, hi = int(js[0]), int(js[-1]) + 1
            h, H = model.mu.hazard(q, ages)
            K = (h * np.exp(-H)).astype(ld)
            newest[lo:hi] = K[0] * exp_C[lo + 1 : hi + 1, q]
            pieces.append((lo, hi, K[::-1].copy(), exp_C[:, q]))
    h = ld(step)
    F = np.ones(n + 1, dtype=ld)
    f_mid = np.zeros(n, dtype=ld)
    memory = ld(0)
    for i in range(n):
        rhs_i = lam[i] * (F[i] - memory)
        pred = F[i] + h * rhs_i
        older = ld(0)  # the memory at t_{i+1} without its newest term j = i
        for lo, hi, K_rev, eC in pieces:
            top = min(hi, i)
            if top > lo:
                shift = n - 1 - i
                older += eC[i + 1] * (f_mid[lo:top] @ K_rev[shift + lo : shift + top])
        rhs_next = lam[i] * (pred - h * (older + (F[i] + pred) / 2 * newest[i]))
        F[i + 1] = F[i] + h / 2 * (rhs_i + rhs_next)
        f_mid[i] = (F[i] + F[i + 1]) / 2
        memory = h * (older + f_mid[i] * newest[i])
    return F


def _reported_move(solve, model, step):
    """The worst corrector move ``solve`` reports in its ``SolverError``, as
    printed; None when it returns."""
    try:
        solve(model, step)
    except SolverError as err:
        return re.search(r"by (\S+) relative", str(err)).group(1)
    return None


def _closed_form_both_branches(lam, mu, t):
    """closed_form_F as it was: both branches at every point, one picked."""
    t = np.asarray(t, dtype=float)
    r = lam - mu
    rt = r * t
    return np.where(
        np.abs(rt) < 1e-8, 1.0 + lam * t + lam * r * t * t / 2.0, 1.0 + (lam / r) * np.expm1(rt)
    )


class TestClosedForm:
    def test_supercritical_values(self):
        # F(t) = 1 + (lam/r)(e^{rt} - 1) with lam=1, mu=0.5, r=0.5
        assert_allclose(closed_form_F(1.0, 0.5, 2.0), 4.43656365691809, rtol=1e-14)
        assert_allclose(closed_form_F(1.0, 0.5, 1.0), 2.2974425414002564, rtol=1e-14)

    def test_subcritical_value(self):
        assert_allclose(closed_form_F(0.5, 1.0, 2.0), 1.6321205588285577, rtol=1e-14)

    def test_critical_is_linear(self):
        t = np.linspace(0.0, 3.0, 7)
        assert_allclose(closed_form_F(1.0, 1.0, t), 1.0 + t, rtol=1e-14)

    def test_near_critical_continuity(self):
        # the r -> 0 series branch must join the generic branch smoothly
        t = np.linspace(0.1, 2.0, 20)
        for eps in (1e-13, 1e-9, 1e-7):
            up = closed_form_F(1.0, 1.0 - eps, t)
            down = closed_form_F(1.0, 1.0 + eps, t)
            assert_allclose(up, 1.0 + t, rtol=1e-6)
            assert_allclose(down, 1.0 + t, rtol=1e-6)

    def test_boundary(self):
        assert closed_form_F(1.0, 0.5, 0.0) == 1.0

    def test_pure_birth(self):
        # mu = 0: F(t) = e^{lam t}
        t = np.linspace(0.0, 2.0, 9)
        assert_allclose(closed_form_F(1.0, 0.0, t), np.exp(t), rtol=1e-14)

    @pytest.mark.parametrize("lam, mu", [(1.0, 0.5), (0.5, 1.0), (1.0, 1.0 - 1e-9), (3.0, 0.0)])
    def test_one_branch_per_point_is_bit_identical(self, lam, mu):
        # points on both sides of the series switch |rt| = 1e-8
        switch = 1e-8 / abs(lam - mu)
        t = np.concatenate(
            [switch * np.array([0.5, 0.999999, 1.0, 1.000001, 2.0]), [0.0, 0.3, 2.0]]
        )
        assert np.array_equal(closed_form_F(lam, mu, t), _closed_form_both_branches(lam, mu, t))
        for x in t:
            value = closed_form_F(lam, mu, x)
            assert isinstance(value, float)
            assert value == _closed_form_both_branches(lam, mu, x)
        grid = t.reshape(2, 4)
        assert np.array_equal(closed_form_F(lam, mu, grid), _closed_form_both_branches(lam, mu, grid))


class TestRateGradient:
    @pytest.mark.parametrize(
        "lam, mu, y",
        [(1.0, 0.5, 1.0), (0.5, 1.0, 0.3), (0.7, 0.7, 1.0), (1.0, 1.0 - 1e-9, 0.3), (2.0, 0.0, 1.0)],
    )
    def test_matches_central_differences(self, lam, mu, y):
        # with |r| = 1e-9, every t is below the series switch |rt| = 1e-8
        t = np.array([0.4, 1.0, 2.0])
        h = 1e-4

        def value(lam, mu):
            return ClosedFormTail(lam, mu, 2.0, y).value(t)

        v, d_lam, d_mu = ClosedFormTail(lam, mu, 2.0, y).rate_gradient(t)
        assert_allclose(v, value(lam, mu), rtol=1e-15)
        fd_lam = (value(lam + h, mu) - value(lam - h, mu)) / (2 * h)
        assert_allclose(d_lam, fd_lam, rtol=1e-7)
        if mu > 0:
            fd_mu = (value(lam, mu + h) - value(lam, mu - h)) / (2 * h)
            assert_allclose(d_mu, fd_mu, rtol=1e-7)

    @pytest.mark.parametrize("lam, mu", [(1.0, 0.5), (0.5, 1.0), (1.0, 1.0)])
    def test_small_t_is_the_taylor_expansion(self, lam, mu):
        # F - 1 = lam (t + r t^2 / 2 + r^2 t^3 / 6 + O(t^4)), so
        # dF/dmu = -lam (t^2 / 2 + r t^3 / 3 + O(t^4)): exact to rounding at
        # t = 1e-9, with no cancellation.
        t, r = 1e-9, lam - mu
        _, d_lam, d_mu = ClosedFormTail(lam, mu, 2.0, 0.3).rate_gradient(t)
        g, g_r = t + r * t * t / 2, t * t / 2 + r * t**3 / 3
        assert_allclose(d_lam, 0.3 * (g + lam * g_r), rtol=1e-15)
        assert_allclose(d_mu, -0.3 * lam * g_r, rtol=1e-15)

    def test_scalar_in_scalar_out(self):
        F = ClosedFormTail(1.0, 0.5, 2.0)
        out = F.rate_gradient(1.0)
        assert all(isinstance(v, float) for v in out) and len(out) == 3
        assert out == tuple(float(v[0]) for v in F.rate_gradient([1.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "lam, mu, y",
        [
            (1.0, 0.5, 1.0), (0.5, 1.0, 0.3), (0.7, 0.7, 1.0), (1.0, 1.0 - 1e-9, 0.3),
            (400.0, 0.2, 1.0),
        ],
        ids=["r>0", "r<0", "r=0", "series", "overflow"],
    )
    def test_value_is_the_tails_value(self, lam, mu, y):
        # one expm1 pass gives F as ``value`` forms it, +inf past the float
        # range without a warning
        F = ClosedFormTail(lam, mu, 2.0, y)
        t = np.array([[1e-10, 0.4], [1.0, 2.0]])
        v, _, _ = F.rate_gradient(t)
        assert np.array_equal(v, F.value(t))
        assert F.rate_gradient(2.0)[0] == F.value(2.0)


class TestTailObjects:
    def test_survival_probability(self):
        F = ClosedFormTail(1.0, 0.5, 2.0)
        assert_allclose(survival_a(F), 0.7746003264394359, rtol=1e-14)

    def test_density_matches_difference_quotient(self):
        F = ClosedFormTail(1.0, 0.5, 2.0)
        t = np.linspace(0.1, 1.9, 50)
        h = 1e-6
        num = (1.0 / F.value(t - h) - 1.0 / F.value(t + h)) / (2 * h)
        assert_allclose(node_depth_density_f(F, t), num, rtol=1e-8)

    def test_density_integrates_to_survival(self):
        # P(H < T) = integral of f over (0, T) = a
        from scipy.integrate import quad

        F = ClosedFormTail(1.0, 0.5, 2.0)
        val, _ = quad(lambda t: node_depth_density_f(F, t), 0.0, 2.0)
        assert_allclose(val, survival_a(F), rtol=1e-10)

    def test_invert_tail_round_trip(self):
        F = ClosedFormTail(1.0, 0.5, 2.0)
        targets = np.linspace(1.001, F.value(2.0) - 1e-6, 200)
        ts = invert_tail(F, targets)
        assert_allclose(F.value(ts), targets, rtol=1e-10)

    def test_invert_monotone(self):
        F = ClosedFormTail(1.0, 0.5, 2.0)
        ts = invert_tail(F, np.array([1.5, 2.0, 3.0]))
        assert np.all(np.diff(ts) > 0)


class TestThinning:
    def test_pointwise_affine_transform(self):
        F = ClosedFormTail(1.0, 0.5, 2.0)
        y = 0.3
        Fy = F.thinned(y)
        t = np.linspace(0.0, 2.0, 41)
        assert_allclose(Fy.value(t), 1.0 - y + y * F.value(t), rtol=1e-12)

    def test_composition(self):
        F = ClosedFormTail(1.0, 0.5, 2.0)
        twice = F.thinned(0.5).thinned(0.6)
        once = F.thinned(0.3)
        t = np.linspace(0.0, 2.0, 41)
        assert_allclose(twice.value(t), once.value(t), rtol=1e-12)
        assert_allclose(twice.deriv(t), once.deriv(t), rtol=1e-12)

    def test_full_sample_is_identity(self):
        F = ClosedFormTail(1.0, 0.5, 2.0)
        t = np.linspace(0.0, 2.0, 41)
        assert_allclose(F.thinned(1.0).value(t), F.value(t), rtol=1e-15)

    def test_thinned_density_closed_form(self):
        # f_y(t) = y lam r^2 e^{-rt} / (y lam + (r - y lam) e^{-rt})^2
        lam, mu, y = 1.0, 0.5, 0.3
        r = lam - mu
        F = ClosedFormTail(lam, mu, 2.0)
        t = np.linspace(0.01, 1.99, 60)
        expect = (
            y * lam * r**2 * np.exp(-r * t)
            / (y * lam + (r - y * lam) * np.exp(-r * t)) ** 2
        )
        assert_allclose(node_depth_density_f(F.thinned(y), t), expect, rtol=1e-12)

    def test_thinned_density_critical(self):
        # r = 0: f_y(t) = y lam (1 + y lam t)^{-2}
        lam, y = 1.0, 0.4
        F = ClosedFormTail(lam, lam, 2.0)
        t = np.linspace(0.01, 1.99, 60)
        expect = y * lam / (1.0 + y * lam * t) ** 2
        assert_allclose(node_depth_density_f(F.thinned(y), t), expect, rtol=1e-12)


class TestDeathDensity:
    def test_constant_rate_is_exponential(self):
        # constant mu: g(t, s) = mu e^{-mu (s - t)}
        model = RateModel.constant(1.0, 0.5, 3.0)
        assert_allclose(death_density_g(model, 1.0, 2.0), 0.5 * math.exp(-0.5), rtol=1e-12)

    @pytest.mark.parametrize("name", ["age_dependent", "three_cells", "zero_cells", "time_varying"])
    @pytest.mark.parametrize("birth", [0.0, 0.3, 0.95, 1.5])
    def test_matches_line_integral(self, name, birth):
        model = SOLVER_MODELS[name]
        s = np.linspace(birth, model.T, 97)
        assert_allclose(death_density_g(model, birth, s), _g_rowwise(model, birth, s, s - birth), rtol=1e-13)
        assert death_density_g(model, birth, s[5]) == death_density_g(model, birth, s)[5]

    def test_death_before_birth_rejected(self):
        with pytest.raises(DomainError):
            death_density_g(AD_MODEL, 1.0, [1.2, 0.9])


class TestVolterraSolver:
    def test_constant_model_matches_closed_form(self):
        F = solve_F(RateModel.constant(1.0, 0.5, 2.0), 1e-3)
        ts = np.asarray(F.ts)
        rel = np.abs(np.asarray(F.values) - closed_form_F(1.0, 0.5, ts)) / closed_form_F(
            1.0, 0.5, ts
        )
        assert rel.max() < 1e-6

    def test_critical_model(self):
        F = solve_F(RateModel.constant(1.0, 1.0, 2.0), 1e-3)
        assert_allclose(np.asarray(F.values), 1.0 + np.asarray(F.ts), rtol=1e-6)

    def test_second_order_convergence(self):
        model = TV_MODEL
        errs = []
        for step in (4e-3, 2e-3, 1e-3):
            F = solve_F(model, step)
            ref = solve_F(model, 2.5e-4)
            vals = np.interp(F.ts, ref.ts, ref.values)
            errs.append(float(np.abs(np.asarray(F.values) - vals).max()))
        # halving the step should cut the error roughly fourfold
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_time_varying_display_formula(self):
        # with age-independent rates F(t) = 1 + int_{T-t}^T lam(s) e^{int_s^T r} ds
        F = solve_F(TV_MODEL, 1e-3)
        for t in (0.25, 0.75, 1.0, 1.5, 2.0):
            assert_allclose(F.value(t), _tv_exact(t), rtol=5e-6)

    def test_off_grid_lambda_break_second_order(self):
        # T - t_i never hits the break at 1.3 exactly; the scheme must stay
        # second order against the exact piecewise tail.
        model = RateModel.time_varying(
            lam=PiecewiseConstant((0.0, 1.3), (1.0, 1.5)),
            mu=PiecewiseConstant.constant(0.5),
            T=2.0,
        )
        exact = tail_for(model).value(2.0)
        errs = [abs(solve_F(model, h).value(2.0) - exact) / exact for h in (1e-3, 5e-4)]
        assert errs[0] < 1e-5
        assert errs[0] / errs[1] >= 3.5

    def test_age_dependent_reduces_to_constant(self):
        model = RateModel.age_dependent(
            lam=PiecewiseConstant.constant(1.0),
            mu=AgeDependentRate((0.0,), (0.0,), ((0.5,),)),
            T=2.0,
        )
        F = solve_F(model, 1e-3)
        ts = np.asarray(F.ts)
        assert_allclose(np.asarray(F.values), closed_form_F(1.0, 0.5, ts), rtol=1e-6)

    def test_step_must_divide_horizon(self):
        with pytest.raises(DomainError):
            solve_F(RateModel.constant(1.0, 0.5, 2.0), 3e-3)

    def test_coarse_step_rejected(self):
        with pytest.raises(SolverError):
            solve_F(RateModel.constant(1.0, 0.5, 2.0), 0.5)

    def test_grid_tail_thinning(self):
        F = solve_F(RateModel.constant(1.0, 0.5, 2.0), 1e-3)
        t = np.linspace(0.0, 2.0, 21)
        assert_allclose(
            F.thinned(0.3).value(t), 1.0 - 0.3 + 0.3 * F.value(t), rtol=1e-9
        )


SOLVER_MODELS = {
    "age_dependent": AD_MODEL,
    # three time cells with off-grid time and age breaks, a lambda break
    "three_cells": RateModel.age_dependent(
        lam=PiecewiseConstant((0.0, 0.7), (1.0, 1.6)),
        mu=AgeDependentRate(
            (0.0, 0.4, 1.234567),
            (0.0, 0.3, 0.8123),
            ((0.2, 0.7, 0.0), (0.9, 0.1, 0.4), (0.5, 1.3, 0.1)),
        ),
        T=2.0,
    ),
    # zero-rate cells, in age and in time, and a lambda break
    "zero_cells": RateModel.age_dependent(
        lam=PiecewiseConstant((0.0, 1.3), (1.0, 1.5)),
        mu=AgeDependentRate((0.0, 0.55, 1.1), (0.0, 0.25), ((0.0, 0.6), (0.0, 0.0), (0.8, 0.0))),
        T=2.0,
    ),
    "time_varying": TV_MODEL,
    "constant": RateModel.constant(1.0, 0.5, 2.0),
    "critical": RateModel.constant(1.0, 1.0, 2.0),
}


# a hazard of 340 in the later time cell, inside the solver's range
LARGE_HAZARD = RateModel.age_dependent(
    lam=PiecewiseConstant.constant(1.0),
    mu=AgeDependentRate((0.0, 1.0), (0.0, 0.5), ((0.5, 0.2), (1.0, 340.0))),
    T=2.0,
)
EDGE_MODELS = dict(SOLVER_MODELS, large_hazard=LARGE_HAZARD)


# 5 full blocks and a partial one, for the reuse of block systems.
REUSE_N = 5 * _BLOCK + 13


def _lambda_break_at(steps):
    """AD_MODEL's mu with lambda 1 -> 1.5 at reverse time ``steps`` solver steps."""
    T = AD_MODEL.T
    return RateModel.age_dependent(
        lam=PiecewiseConstant((0.0, T - steps * T / REUSE_N), (1.0, 1.5)),
        mu=AD_MODEL.mu,
        T=T,
    )


REUSE_MODELS = {
    "homogeneous": AD_MODEL,
    "lambda_break_on_block_edge": _lambda_break_at(2 * _BLOCK),
    "lambda_break_in_block": _lambda_break_at(2 * _BLOCK + 20.3),
    # Only the last row of the second block is born before the mu break, so
    # only its e^{-C} row differs from the first block's: the later cell's
    # hazard is 0 below an age of one step, so the coefficient rows do not
    # see the break.
    "mu_break_in_last_row": RateModel.age_dependent(
        lam=PiecewiseConstant.constant(1.0),
        mu=AgeDependentRate(
            (0.0, 2.0 - (2 * _BLOCK - 0.4) * 2.0 / REUSE_N),
            (0.0, 2.0 / REUSE_N),
            ((0.5, 0.2), (0.0, 0.7)),
        ),
        T=2.0,
    ),
    # a mu time break every 0.3, under a block's width of 0.38
    "mu_breaks_in_every_block": RateModel.age_dependent(
        lam=PiecewiseConstant.constant(1.0),
        mu=AgeDependentRate(
            (0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8),
            (0.0, 0.5),
            ((0.2, 0.7), (0.4, 0.1), (0.3, 0.9), (0.6, 0.2), (0.1, 0.5), (0.8, 0.3), (0.5, 0.6)),
        ),
        T=2.0,
    ),
}


# the step of the random-grid property
GRID_STEP = 1e-2


@st.composite
def _age_models(draw):
    """A random small (time x age) death grid, with zero rates, and a lambda
    break.  A time break may lie on a node of the ``GRID_STEP`` solver grid
    and an age break on one of its midpoint ages."""
    T = draw(st.sampled_from([1.0, 1.5]))
    n = round(T / GRID_STEP)
    inner = st.floats(0.01, T - 0.01, allow_nan=False)
    on_node = st.integers(1, n - 1).map(lambda i: float(T - step_grid(T, GRID_STEP)[i]))
    on_age = st.integers(0, n - 1).map(lambda m: (m + 0.5) * GRID_STEP)
    t_breaks = (0.0,) + tuple(sorted(set(draw(st.lists(st.one_of(inner, on_node), max_size=3)))))
    x_breaks = (0.0,) + tuple(sorted(set(draw(st.lists(st.one_of(inner, on_age), max_size=3)))))
    rate = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
    values = tuple(
        tuple(draw(rate) for _ in x_breaks) for _ in t_breaks
    )
    lam = PiecewiseConstant((0.0, draw(inner)), (draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))))
    return RateModel.age_dependent(lam, AgeDependentRate(t_breaks, x_breaks, values), T)


class TestFactorizedSolver:
    """solve_F against the row-by-row oracle; the arithmetic order differs."""

    @pytest.mark.parametrize("name", sorted(SOLVER_MODELS))
    @pytest.mark.parametrize("step", [1e-3, 5e-4])
    def test_matches_rowwise_oracle(self, name, step):
        model = SOLVER_MODELS[name]
        F = solve_F(model, step)
        assert_allclose(np.asarray(F.values), _solve_F_rowwise(model, step), rtol=1e-13, atol=0)

    @given(_age_models())
    @settings(max_examples=40, deadline=None)
    def test_random_grids_match_oracle(self, model):
        # The grid's cumulative hazard H_q(a) + C_q(b) and g along life lines
        # born on the time breaks and on solver nodes, against the line
        # integral; the deaths include the breaks and the solver midpoints.
        mu, T = model.mu, model.T
        ts = step_grid(T, GRID_STEP)
        deaths = T - 0.5 * (ts[:-1] + ts[1:])
        n = len(ts) - 1
        for birth in mu.t_breaks + tuple(T - ts[[1, n // 3, n // 2]]) + (T / math.pi,):
            s = np.concatenate(
                [np.linspace(birth, T, 29), mu.t_breaks, birth + np.asarray(mu.x_breaks), deaths]
            )
            s = s[(s >= birth) & (s <= T)]
            q = mu.time_cell(s)
            hazard = mu.hazard(q, s - birth)[1] + _entry_hazard(model, birth)[q]
            assert_allclose(hazard, _line_cumhazard(model, birth, s), rtol=1e-13, atol=1e-13)
            g = death_density_g(model, birth, s)
            assert_allclose(g, _g_rowwise(model, birth, s, s - birth), rtol=1e-13, atol=0)
        try:
            expect = _solve_F_rowwise(model, GRID_STEP)
        except SolverError:
            with pytest.raises(SolverError):
                solve_F(model, GRID_STEP)
            return
        assert_allclose(np.asarray(solve_F(model, GRID_STEP).values), expect, rtol=1e-13, atol=0)

    def test_hazard_past_float_range_rejected(self):
        # a hazard of 1000 in the later time cell: e^{-H} underflows
        model = RateModel.age_dependent(
            lam=PiecewiseConstant.constant(1.0),
            mu=AgeDependentRate((0.0, 1.0), (0.0,), ((0.5,), (1000.0,))),
            T=2.0,
        )
        with pytest.raises(SolverError, match="range"):
            solve_F(model, 1e-3)

    def test_large_hazard_inside_range(self):
        F = solve_F(LARGE_HAZARD, 1e-3)
        assert np.all(np.isfinite(F.values))
        expect = _solve_F_rowwise(LARGE_HAZARD, 1e-3)
        assert_allclose(np.asarray(F.values), expect, rtol=1e-13, atol=0)

    # n < B, n = B and n = 3B + 13 steps, where the step is not too coarse
    # for the model; the blocks of three_cells and zero_cells straddle their
    # mu time breaks and their lambda break.
    @pytest.mark.parametrize(
        "name, n",
        [(name, _BLOCK - 13) for name in ("age_dependent", "constant", "critical")]
        + [(name, n) for name in sorted(SOLVER_MODELS) for n in (_BLOCK, 3 * _BLOCK + 13)]
        + [("large_hazard", _BLOCK)],
    )
    def test_block_edges_match_oracle(self, name, n):
        model = EDGE_MODELS[name]
        step = model.T / n
        F = solve_F(model, step)
        assert len(F.values) == n + 1
        assert_allclose(np.asarray(F.values), _solve_F_rowwise(model, step), rtol=1e-13, atol=0)

    @pytest.mark.parametrize(
        "name, builds",
        [("homogeneous", 2), ("lambda_break_on_block_edge", 3), ("lambda_break_in_block", 4),
         ("mu_break_in_last_row", 4), ("mu_breaks_in_every_block", 6)],
    )
    def test_repeated_block_systems_match_oracle(self, monkeypatch, name, builds):
        # 5 full blocks and a partial one.  A full block whose coefficient
        # rows equal the previous block's reuses its system.  A lambda break
        # on a block edge changes the rows of the block it starts; one inside
        # a block, those of that block and the next.  Mu time breaks closer
        # than a block apart change every block's cells.
        model = REUSE_MODELS[name]
        step = model.T / REUSE_N
        built = []
        build = kernel._block_system

        def counting(pieces, cols, coef, s, ones_sum):
            built.append(s)
            return build(pieces, cols, coef, s, ones_sum)

        monkeypatch.setattr(kernel, "_block_system", counting)
        F = solve_F(model, step)
        assert len(built) == builds
        assert built[0] == 0 and built[-1] == 5 * _BLOCK  # the partial block rebuilds
        assert_allclose(np.asarray(F.values), _solve_F_rowwise(model, step), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    @pytest.mark.parametrize("step", [0.5, 0.1, 0.04, 2e-2, 1e-2])
    def test_corrector_move_parity(self, name, step):
        # SolverError on the same (model, step) pairs as the oracle, with the
        # same reported worst move.
        model = EDGE_MODELS[name]
        assert _reported_move(solve_F, model, step) == _reported_move(_solve_F_rowwise, model, step)

    @pytest.mark.parametrize(
        "name, step, worst", [("large_hazard", 1e-2, "0.00123"), ("constant", 0.5, "0.0374")]
    )
    def test_reported_corrector_move(self, name, step, worst):
        assert _reported_move(solve_F, EDGE_MODELS[name], step) == worst

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="longdouble is float64 here"
    )
    @pytest.mark.parametrize("name", sorted(SOLVER_MODELS))
    @pytest.mark.parametrize("step", [1e-3, 5e-4])
    def test_matches_extended_precision_recurrence(self, name, step):
        # Summing the increments keeps the float64 rounding near the loop's
        # (within 6e-15); forming F_{i+1} = A_i F_i + ... with A_i = 1 + O(step)
        # lost two digits.
        model = SOLVER_MODELS[name]
        expect = _solve_F_longdouble(model, step).astype(float)
        assert_allclose(np.asarray(solve_F(model, step).values), expect, rtol=1e-14, atol=0)

    def test_fine_step_time_and_memory(self):
        # a coarse solve first, so that the timed one excludes the lazy
        # scipy.linalg import
        solve_F(AD_MODEL, 1e-2)
        start = time.perf_counter()
        solve_F(AD_MODEL, 1e-4)
        assert time.perf_counter() - start < 1.0
        tracemalloc.start()
        try:
            solve_F(AD_MODEL, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6  # an n x n kernel at n = 20000 would be 3.2 GB


class TestClosedFormInverse:
    @pytest.mark.parametrize(
        "F",
        [
            ClosedFormTail(1.0, 0.5, 2.0),
            ClosedFormTail(1.0, 0.5, 2.0).thinned(0.3),
            ClosedFormTail(1.0, 0.0, 2.0),
            ClosedFormTail(1.0, 1.0 - 1e-10, 2.0),
            ClosedFormTail(1.0, 1.0, 2.0).thinned(0.4),
            ClosedFormTail(0.5, 1.0, 2.0),
        ],
    )
    def test_round_trip(self, F):
        t = np.linspace(0.0, 2.0, 201)
        assert_allclose(F.inverse(F.value(t)), t, rtol=0, atol=1e-12)
        assert_allclose(F.inverse([1.0, F.value(F.T)]), [0.0, F.T], rtol=0, atol=1e-12)

    def test_invert_tail_uses_exact_inverse(self):
        F = ClosedFormTail(1.0, 0.5, 2.0).thinned(0.3)
        targets = np.linspace(1.0, F.value(2.0), 50)
        assert np.array_equal(invert_tail(F, targets), F.inverse(targets))


# lambda = 0 on model times [0.5, 1), so F is flat on reverse times [1, 1.5].
AD_GAP_MODEL = RateModel.age_dependent(
    lam=PiecewiseConstant((0.0, 0.5, 1.0), (1.0, 0.0, 1.2)),
    mu=AgeDependentRate((0.0,), (0.0, 0.5), ((0.2, 0.7),)),
    T=2.0,
)


def _bisect(F, targets, tol=1e-12):
    """The bisection ``invert_tail`` used for grid tails before they had an
    exact inverse: about 40 halvings of [0, T], kept as the oracle."""
    targets = np.asarray(targets, dtype=float)
    lo = np.zeros(targets.shape)
    hi = np.full(targets.shape, float(F.T))
    for _ in range(max(1, math.ceil(math.log2(max(F.T / tol, 2.0))))):
        mid = 0.5 * (lo + hi)
        too_low = np.asarray(F.value(mid)) < targets
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return 0.5 * (lo + hi)


class TestGridTailInverse:
    @pytest.mark.parametrize("step", [1e-2, 1e-3])
    def test_round_trip(self, step):
        F = solve_F(AD_MODEL, step)
        t = np.linspace(0.0, 2.0, 4001)
        assert_allclose(F.inverse(F.value(t)), t, rtol=0, atol=1e-12)
        assert_allclose(F.inverse([1.0, F.value(F.T)]), [0.0, F.T], rtol=0, atol=1e-12)
        assert F.inverse([1.0])[0] == 0.0

    def test_thinned_round_trip(self):
        F = solve_F(AD_MODEL, 1e-2).thinned(0.3)
        t = np.linspace(0.0, 2.0, 4001)
        assert_allclose(F.inverse(F.value(t)), t, rtol=0, atol=1e-12)
        assert_allclose(F.inverse([1.0, F.value(F.T)]), [0.0, F.T], rtol=0, atol=1e-12)

    def test_flat_cells_map_to_smallest_t(self):
        F = solve_F(AD_GAP_MODEL, 1e-2)
        flat = np.linspace(1.0, 1.5, 51)
        assert np.all(F.value(flat) == F.value(1.0))
        assert_allclose(F.inverse(F.value(flat)), 1.0, rtol=0, atol=1e-12)
        rising = np.concatenate([np.linspace(0.0, 1.0, 501), np.linspace(1.5, 2.0, 501)[1:]])
        assert_allclose(F.inverse(F.value(rising)), rising, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "model, step, y",
        [
            (AD_MODEL, 1e-2, 1.0),
            (AD_MODEL, 1e-3, 1.0),
            (AD_MODEL, 1e-2, 0.3),
            (AD_GAP_MODEL, 1e-2, 1.0),
        ],
        ids=["step-1e-2", "step-1e-3", "thinned", "flat-window"],
    )
    def test_matches_bisection_oracle(self, model, step, y):
        F = solve_F(model, step).thinned(y)
        targets = np.concatenate(
            [np.linspace(1.0, F.value(F.T), 997), 1.0 / np.random.default_rng(5).uniform(size=500)]
        )
        targets = targets[targets <= F.value(F.T)]
        assert_allclose(invert_tail(F, targets), _bisect(F, targets), rtol=0, atol=1e-12)


# The grid tails whose cubic is checked against scipy's PchipInterpolator:
# every solver model, the block-reuse models and a flat window; the flat
# cells give zero node slopes.
CUBIC_TAILS = (
    [(f"edge-{name}", model, 1e-3) for name, model in sorted(EDGE_MODELS.items())]
    + [(f"reuse-{name}", model, model.T / REUSE_N) for name, model in sorted(REUSE_MODELS.items())]
    + [("flat-window", AD_GAP_MODEL, 1e-2)]
)


def _pchip_oracle(F):
    """scipy's PCHIP interpolant through F's nodes, as GridTail used to build it."""
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(F.ts, F.values, extrapolate=False)


def _assert_cubic_matches_oracle(F, t):
    oracle = _pchip_oracle(F)
    assert_allclose(F._coef, oracle.c, rtol=1e-15, atol=0)
    value, deriv = F.evaluate(t)
    for got in (F.value(t), value):
        assert_allclose(got, oracle(t), rtol=1e-15, atol=0)
    for got in (F.deriv(t), deriv):
        assert_allclose(got, oracle.derivative()(t), rtol=1e-15, atol=0)


class TestGridTailCubic:
    """GridTail's own monotone cubic against scipy's PCHIP as an oracle."""

    @pytest.mark.parametrize("name, model, step", CUBIC_TAILS, ids=[c[0] for c in CUBIC_TAILS])
    @pytest.mark.parametrize("y", [1.0, 0.3])
    def test_matches_scipy_pchip(self, name, model, step, y):
        F = solve_F(model, step).thinned(y)
        rng = np.random.default_rng(7)
        t = np.concatenate([rng.uniform(0.0, model.T, 2000), F.ts, [0.0, model.T]])
        _assert_cubic_matches_oracle(F, t)

    @pytest.mark.parametrize(
        "ts, values",
        [
            ([0.0, 2.0], [1.0, 3.0]),  # two nodes: the line
            ([0.0, 1.0, 2.0], [1.0, 1.1, 3.0]),  # first end slope 0, last one-sided
            ([0.0, 0.5, 2.0], [1.0, 2.5, 2.6]),  # uneven cells
            ([0.0, 1.0, 2.0], [1.0, 1.0, 2.0]),  # a flat cell
        ],
    )
    def test_few_nodes_match_scipy_pchip(self, ts, values):
        from scipy.interpolate import PchipInterpolator

        # _pchip reads each cell's width, since linspace's cells differ by ulps
        oracle = PchipInterpolator(ts, values)
        assert_allclose(_pchip(np.array(ts), np.array(values)), oracle.c, rtol=1e-15, atol=0)
        if ts == np.linspace(0.0, 2.0, len(ts)).tolist():  # a GridTail's grid
            _assert_cubic_matches_oracle(GridTail(values, 2.0), np.linspace(0.0, 2.0, 401))

    def test_end_slope_branches(self):
        # the one-sided estimate at 0 is negative, so PCHIP sets 0; at T it
        # keeps its sign and stands
        F = GridTail([1.0, 1.1, 3.0], 2.0)
        assert F.deriv(0.0) == 0.0
        assert F.deriv(2.0) == pytest.approx((3 * 1.9 - 0.1) / 2, rel=1e-15)
        assert_allclose(GridTail([1.0, 3.0], 2.0).deriv([0.0, 1.0, 2.0]), 1.0, rtol=1e-15)

    def test_last_node_just_below_T(self):
        # the last cell holds T and the float just below it; past T is NaN
        F = GridTail([1.0, 1.5, 2.0], 2.0)
        below = np.nextafter(2.0, 0.0)
        assert F.value(2.0) == 2.0 and F.deriv(2.0) == pytest.approx(0.5, rel=1e-15)
        assert tail_at_T(F) == F.value(2.0)
        assert F.value(below) == pytest.approx(2.0, rel=1e-15)
        assert math.isnan(F.value(np.nextafter(2.0, 3.0)))

    def test_scalar_in_float_out(self):
        F = solve_F(AD_MODEL, 1e-2)
        halves = (lambda t: F.evaluate(t)[0], lambda t: F.evaluate(t)[1])
        for t in (0.0, 0.7, 2.0):
            for f in (F.value, F.deriv) + halves:
                assert type(f(t)) is float
                assert f(t) == f(np.array([t]))[0]

    @pytest.mark.filterwarnings("error")
    def test_nan_outside_domain_without_warning(self):
        F = solve_F(AD_MODEL, 1e-2)
        outside = np.array([-1e-300, -1.0, np.nextafter(2.0, 3.0), 3.0, np.nan, np.inf, -np.inf])
        oracle = _pchip_oracle(F)
        halves = (lambda t: F.evaluate(t)[0], lambda t: F.evaluate(t)[1])
        for f, g in zip((F.value, F.deriv) + halves, (oracle, oracle.derivative()) * 2):
            assert np.all(np.isnan(f(outside)))
            assert np.all(np.isnan(g(outside)))
            assert math.isnan(f(-0.5)) and math.isnan(f(np.inf))
        assert F.value(0.0) == 1.0 and F.value(-0.0) == 1.0

    def test_invalid_grids_rejected(self):
        with pytest.raises(DomainError, match="2 or more grid nodes"):
            GridTail([1.0], 2.0)
        with pytest.raises(DomainError, match="2 or more grid nodes"):
            GridTail([[1.0, 1.2], [1.3, 1.4]], 2.0)
        with pytest.raises(SolverError, match="finite"):
            GridTail([1.0, 1.2, np.inf], 2.0)
        with pytest.raises(SolverError, match="finite"):
            GridTail([1.0, np.nan, 1.3], 2.0)

    @pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf, 0.0, -2.0])
    def test_bad_T_rejected(self, T):
        # a NaN T would make F(T) NaN, which tail_at_T reports as an overflow
        with pytest.raises(DomainError, match="T must be finite and > 0"):
            GridTail([1.0, 1.5, 2.0], T)

    def test_grid_is_the_solver_grid(self):
        F = solve_F(AD_MODEL, 4e-4)
        assert np.array_equal(F.ts, step_grid(AD_MODEL.T, 4e-4))
        assert np.array_equal(F.thinned(0.4).ts, F.ts)
        assert not F.ts.flags.writeable and not F.values.flags.writeable


def _cell_oracle(F, t):
    """GridTail's cell lookup by ``searchsorted`` over its interior nodes."""
    x = F.ts
    i = np.searchsorted(x[1:-1], t, side="right")
    return F._coef.take(i, axis=1), np.where((t >= 0.0) & (t <= F.T), t - x[i], np.nan)


def _cell_points(x, T, rng):
    """Random depths, every node and both its float neighbours, and the edges."""
    edges = [0.0, -0.0, T, -1.0, 2 * T, np.inf, -np.inf, np.nan, 5e-324]
    nodes = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return np.concatenate([rng.uniform(0.0, T, 1000), nodes, edges]), edges + nodes[::97].tolist()


def _assert_cell_matches_oracle(F, rng):
    t, scalars = _cell_points(F.ts, F.T, rng)
    for points in [t] + [np.asarray(v) for v in scalars]:
        (c, s), (c_want, s_want) = F._cell(points), _cell_oracle(F, points)
        # inside [0, T], s = t - x_i pins the cell; outside, s is NaN
        # whatever the cell, so only the inside columns must match
        assert np.array_equal(s, s_want, equal_nan=True)
        inside = ~np.isnan(s_want)
        assert np.array_equal(np.where(inside, c, 0.0), np.where(inside, c_want, 0.0))


class TestCellLookup:
    """``GridTail._cell`` finds cells by arithmetic; ``searchsorted`` is the oracle."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9, 64, 1001, 5000])
    @pytest.mark.parametrize("T", [1e-3, 0.3, 2.0, 7.77, 123.456])
    def test_linspace_grids(self, n, T):
        rng = np.random.default_rng(n)
        F = GridTail(np.cumsum(np.r_[1.0, rng.uniform(0.1, 1.0, n)]), T)
        _assert_cell_matches_oracle(F, rng)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", [AD_MODEL, AD_GAP_MODEL], ids=["age_dependent", "flat-window"])
    @pytest.mark.parametrize("step", [1e-2, 2.5e-3, 1e-3, 4e-4])
    @pytest.mark.parametrize("y", [1.0, 0.4])
    def test_solver_grids(self, model, step, y):
        _assert_cell_matches_oracle(solve_F(model, step).thinned(y), np.random.default_rng(3))


class TestDensityAtT:
    @pytest.mark.filterwarnings("error")
    def test_F_squared_past_the_float_range(self):
        # lam = 400, mu = 0.2, T = 1.7: F(T) = 1.49e295 is finite, but F^2
        # is not from t ~ 0.89 on; f = (F'/F)/F stays in range.  The
        # references are 40-digit values of lam e^{rt} / F(t)^2.
        f = node_depth_density_f(ClosedFormTail(400.0, 0.2, 1.7), [0.5, 1.0, 1.7])
        expect = [6.1116525405636545996e-85, 9.3474192765662905817e-172, 2.6855795293506806123e-293]
        assert_allclose(f, expect, rtol=1e-12, atol=0)
        # at T = 2, F(T) itself is past the float range: the one typed error
        with pytest.raises(TailOverflowError, match="F\\(T\\) is not finite"):
            node_depth_density_f(ClosedFormTail(400.0, 0.2, 2.0), 1.0)

    # node_depth_density_f admits t up to T (1 + 1e-12) and takes such t as T
    @pytest.mark.parametrize(
        "F", [ClosedFormTail(1.0, 0.5, 2.0), solve_F(AD_MODEL, 1e-3)], ids=["exact", "grid"]
    )
    def test_just_past_T_is_the_value_at_T(self, F):
        at_T = node_depth_density_f(F, 2.0)
        assert np.isfinite(at_T)
        assert node_depth_density_f(F, 2.0 + 1e-13) == at_T
        assert_allclose(node_depth_density_f(F, [1.0, 2.0 + 1e-13])[1], at_T, rtol=0, atol=0)
        with pytest.raises(DomainError):
            node_depth_density_f(F, 2.0 * (1 + 1e-11))


# RateModel's rule for rate values, which the exact tail also applies
_RATE_RULE = "rate values must be finite and >= 0"


class TestPiecewiseTail:
    """The exact tail of piecewise-constant rates, ``ClosedFormTail.from_model``."""

    def test_matches_quadrature_oracle(self):
        F = ClosedFormTail.from_model(TV_MODEL)
        assert F.breaks == (0.0, 1.0)
        for t in (0.25, 0.75, 1.0, 1.5, 2.0):
            assert_allclose(F.value(t), _tv_exact(t), rtol=1e-9)

    def test_one_piece_is_closed_form(self):
        # constant rates are the one-piece case; closed_form_F is the oracle,
        # and F' = lam e^{rt} (thinned: y lam e^{rt})
        t = np.linspace(0.0, 2.0, 81)
        cases = [(1.0, 0.5), (0.5, 1.0), (1.0, 1.0), (1.0, 1.0 - 1e-9), (1.0, 1.0 + 1e-9),
                 (1.5, 0.0), (0.0, 0.5)]
        for lam, mu in cases:
            F = ClosedFormTail.from_model(RateModel.constant(lam, mu, 2.0))
            assert F == ClosedFormTail(lam, mu, 2.0)
            assert F.lam == (lam,) and F.mu == (mu,) and F.breaks == (0.0,)
            for y in (1.0, 0.3):
                Fy = F.thinned(y)
                expect = 1.0 - y + y * closed_form_F(lam, mu, t)
                expect_deriv = y * lam * np.exp((lam - mu) * t)
                value, deriv = Fy.evaluate(t)
                for got in (Fy.value(t), value):
                    assert_allclose(got, expect, rtol=1e-15, atol=0)
                for got in (Fy.deriv(t), deriv):
                    assert_allclose(got, expect_deriv, rtol=1e-15, atol=0)

    def test_deriv_matches_central_difference(self):
        F = ClosedFormTail.from_model(TV_MODEL).thinned(0.6)
        t = np.linspace(0.05, 1.95, 39)
        t = t[np.abs(t - 1.0) > 1e-3]  # F' jumps at the break
        h = 1e-6
        num = (F.value(t + h) - F.value(t - h)) / (2 * h)
        assert_allclose(F.deriv(t), num, rtol=1e-8)

    def test_thinning_composes(self):
        F = ClosedFormTail.from_model(TV_MODEL)
        t = np.linspace(0.0, 2.0, 41)
        assert_allclose(F.thinned(0.5).thinned(0.6).value(t), F.thinned(0.3).value(t), rtol=1e-14)
        assert_allclose(F.thinned(0.3).value(t), 1.0 - 0.3 + 0.3 * F.value(t), rtol=1e-14)

    @pytest.mark.parametrize("y", [1.0, 0.3])
    def test_inverse_round_trip(self, y):
        F = ClosedFormTail.from_model(TV_MODEL).thinned(y)
        t = np.linspace(0.0, 2.0, 201)
        assert_allclose(invert_tail(F, F.value(t)), t, rtol=0, atol=1e-12)
        assert_allclose(F.inverse([1.0, F.value(F.T)]), [0.0, F.T], rtol=0, atol=1e-12)

    def test_tails_pickle(self):
        for F in (ClosedFormTail.from_model(TV_MODEL), solve_F(TV_MODEL, 1e-2)):
            G = pickle.loads(pickle.dumps(F))
            t = np.linspace(0.0, 2.0, 11)
            assert np.array_equal(G.value(t), F.value(t))

    def test_rate_gradient_is_one_piece_only(self):
        with pytest.raises(DomainError, match="one piece"):
            ClosedFormTail.from_model(TV_MODEL).rate_gradient(1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(lam=(1.0, 2.0), mu=0.5, T=2.0, breaks=(0.0, 1.0)), "equal, positive length"),
            (dict(lam=(1.0, 2.0), mu=(0.5, 0.5), T=2.0, breaks=(0.5, 1.0)), "rise strictly"),
            (dict(lam=(1.0, 2.0), mu=(0.5, 0.5), T=2.0, breaks=(0.0, 2.0)), "rise strictly"),
            (dict(lam=(1.0, 2.0), mu=(0.5, 0.5), T=2.0, breaks=(0.0, math.nan)), "rise strictly"),
            (dict(lam=(1.0, 2.0), mu=(0.5, -0.5), T=2.0, breaks=(0.0, 1.0)), _RATE_RULE),
            (dict(lam=-1.0, mu=0.5, T=2.0), _RATE_RULE),
            (dict(lam=1.0, mu=0.5, T=0.0), "T must be finite and > 0"),
            (dict(lam=math.nan, mu=0.5, T=2.0), _RATE_RULE),
            (dict(lam=math.inf, mu=0.5, T=2.0), _RATE_RULE),
            (dict(lam=1.0, mu=math.nan, T=2.0), _RATE_RULE),
            (dict(lam=(1.0, math.nan), mu=(0.5, 0.5), T=2.0, breaks=(0.0, 1.0)), _RATE_RULE),
            (dict(lam=1.0, mu=0.5, T=math.inf), "T must be finite and > 0"),
        ],
        ids=["lengths", "first-break", "break-past-T", "nan-break", "negative-mu", "negative-lam",
             "T", "nan-lam", "inf-lam", "nan-mu", "nan-piece", "inf-T"],
    )
    def test_bad_pieces_rejected(self, kwargs, message):
        # RateModel's rules and wording, not a TailOverflowError at F(T)
        with pytest.raises(DomainError, match=message) as err:
            ClosedFormTail(**kwargs)
        assert type(err.value) is DomainError

    @pytest.mark.parametrize("lam, mu", [(-1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan)])
    def test_closed_form_F_rejects_bad_rates(self, lam, mu):
        with pytest.raises(DomainError, match=_RATE_RULE):
            closed_form_F(lam, mu, 1.0)


_RATES = st.one_of(st.just(0.0), st.floats(0.25, 2.0))


@st.composite
def _exact_tails(draw):
    """A ClosedFormTail of 1-4 pieces, lambda = 0 and critical (mu = lambda)
    pieces included, thinned by a random y."""
    T = draw(st.floats(0.5, 2.0))
    cuts = sorted(draw(st.lists(st.integers(1, 19), max_size=3, unique=True)))
    lam = [draw(_RATES) for _ in range(len(cuts) + 1)]
    mu = [draw(st.one_of(st.just(l), _RATES)) for l in lam]
    breaks = (0.0,) + tuple(T * k / 20 for k in cuts)
    return ClosedFormTail(tuple(lam), tuple(mu), T, breaks=breaks).thinned(draw(st.floats(0.05, 1.0)))


class TestExactTailProperties:
    @settings(max_examples=200, deadline=None)
    @given(_exact_tails())
    def test_random_pieces(self, F):
        T, eps = F.T, np.finfo(float).eps
        assert F.value(0.0) == 1.0
        t = np.linspace(0.0, T, 2001)
        v, dv = F.value(t), F.deriv(t)
        assert np.all(np.diff(v) >= -2 * eps * v[1:])  # nondecreasing up to rounding
        # Away from the knots (tau_j = T - b_j), where F' jumps:
        h = 1e-6 * T
        knots = T - np.asarray(F.breaks)
        away = np.min(np.abs(t[:, None] - knots[None, :]), axis=1) > 1e-3 * T
        away &= (t > 2 * h) & (t < T - 2 * h)
        # where F strictly increases, inverse(value(t)) gives t back; the
        # rounding of F(t) moves it by at most about 5e-13 T at these rates
        rising = away & (dv > 0)
        assert np.all(np.abs(F.inverse(v[rising]) - t[rising]) <= 1e-12 * T)
        # F' matches central differences, up to their O(h^2) and rounding error
        ta = t[away]
        num = (F.value(ta + h) - F.value(ta - h)) / (2 * h)
        assert np.all(np.abs(F.deriv(ta) - num) <= 1e-6 * np.abs(num) + 4 * eps * F.value(ta) / h)


def _two_pieces(lam):
    """lam on both pieces of [0, 1), [1, 2), mu = 0.2: F(T) is about e^{2 lam}."""
    return RateModel.time_varying(
        lam=PiecewiseConstant((0.0, 1.0), (lam, lam)), mu=PiecewiseConstant.constant(0.2), T=2.0
    )


class TestOverflowingTail:
    # F(T) past the float range; with lam = 800, e^{R} and F - 1 overflow
    # at the second knot already, while the tail is built.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "model",
        [_two_pieces(400.0), _two_pieces(800.0), RateModel.constant(400.0, 0.2, 2.0)],
        ids=["time_varying", "overflow-at-knot", "constant"],
    )
    def test_typed_errors_without_warning(self, model):
        F = ClosedFormTail.from_model(model)  # building never warns
        assert F.value(F.T) == math.inf and F.deriv(F.T) == math.inf  # nor evaluating
        # F is finite up to t = 0.8 < 709 / 800, below the first knot (tau = 1),
        # and evaluating it there never touches the pieces past the overflow
        t = np.linspace(0.0, 0.8, 9)
        assert np.all(np.isfinite(F.value(t))) and np.all(np.isfinite(F.deriv(t)))
        assert math.isfinite(F.value(0.5)) and math.isfinite(F.deriv(0.5))
        batch = TreeBatch([2.0, 2.0], [0, 1, 2], [0.5, 1.5])
        for scheme in (SamplingScheme.full(), SamplingScheme.bernoulli(0.3)):
            with pytest.raises(TailOverflowError, match="F\\(T\\) is not finite"):
                loglik(batch, F, scheme)
        # the samplers raise the likelihoods' error, from kernel.tail_at_T
        with pytest.raises(TailOverflowError, match="F\\(T\\) is not finite"):
            simulate_cpp_many(F, 3, RandomStream(1))
        with pytest.raises(TailOverflowError, match="F\\(T\\) is not finite"):
            definetti_sample_many(F, 3, 3, RandomStream(1))
        # and so does the joint law with unsampled tips, through survival_a
        with pytest.raises(TailOverflowError, match="F\\(T\\) is not finite"):
            joint_df(3, 2, [0.3, 0.6], F)

    @pytest.mark.filterwarnings("error")
    def test_infinite_at_the_knot_where_the_slope_overflows(self):
        # With lam = 800, F'(tau) at the knot tau = 1 is built as +inf; a point
        # on the knot grows by 0 there (not inf * 0), and F is +inf from it on.
        F = ClosedFormTail.from_model(_two_pieces(800.0))
        t = np.array([0.5, 1.0, 1.5])
        assert F.value(1.0) == math.inf and F.deriv(1.0) == math.inf
        assert np.isfinite(F.value(t)).tolist() == [True, False, False]
        assert np.all(F.value(t)[1:] == math.inf) and np.all(F.deriv(t)[1:] == math.inf)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("step", [1e-3, 1e-4])
    def test_solver_reports_an_infinite_move(self, step):
        # lam = 400 with age-dependent death: the grid F passes the float range
        # inside a block, and its corrector move is reported as inf.
        model = RateModel.age_dependent(PiecewiseConstant.constant(400.0), AD_MODEL.mu, 2.0)
        with pytest.raises(SolverError, match="by inf relative"):
            solve_F(model, step)


class TestOneLookupPerPoint:
    """``loglik`` reads F and F' from one ``evaluate``: each point's piece or
    grid cell is looked up once, plus once for F(T) (``tail_at_T``)."""

    @pytest.mark.parametrize(
        "model",
        [RateModel.constant(1.0, 0.5, 2.0), TV_MODEL, AD_MODEL],
        ids=["constant", "time_varying", "age_dependent"],
    )
    @pytest.mark.parametrize(
        "scheme",
        [SamplingScheme.full(), SamplingScheme.bernoulli(0.4), SamplingScheme.uniform_k(3)],
        ids=["full", "bernoulli", "k3"],
    )
    def test_points_looked_up_once(self, monkeypatch, model, scheme):
        F = tail_for(model, 1e-2)
        if scheme.variant == "uniform_k":
            batch = definetti_sample_many(F, scheme.k, 40, RandomStream(3))[1]
            points = len(batch) * scheme.k
        else:
            batch = simulate_cpp_many(F, 40, RandomStream(3))
            points = batch.depths.size
        looked_up = []
        for cls, name in ((kernel.GridTail, "_cell"), (kernel.ClosedFormTail, "_piece")):
            lookup = getattr(cls, name)

            def counted(self, t, lookup=lookup):
                looked_up.append(np.size(t))
                return lookup(self, t)

            monkeypatch.setattr(cls, name, counted)
        loglik(batch, F, scheme)
        assert sum(looked_up) == points + 1


def _no_solve(model, step):
    raise AssertionError("an age-independent model needs no Volterra solve")


class TestTailFor:
    def test_dispatch(self):
        assert isinstance(tail_for(RateModel.constant(1.0, 0.5, 2.0)), ClosedFormTail)
        assert isinstance(tail_for(TV_MODEL), ClosedFormTail)
        assert isinstance(tail_for(AD_MODEL, 1e-2), GridTail)

    @pytest.mark.parametrize(
        "mu",
        [
            AgeDependentRate((0.0, 0.8), (0.0,), ((0.5,), (0.3,))),
            AgeDependentRate((0.0, 0.8), (0.0, 0.4, 0.9), ((0.5,) * 3, (0.3,) * 3)),
        ],
        ids=["one-age-piece", "rows-constant-across-ages"],
    )
    def test_age_independent_grid_gets_exact_tail(self, mu):
        lam = PiecewiseConstant((0.0, 1.3), (1.0, 1.5))
        model = RateModel.age_dependent(lam, mu, 2.0)
        F = tail_for(model, 1e-2, solve=_no_solve)
        assert isinstance(F, ClosedFormTail)
        spelled = RateModel.time_varying(lam, PiecewiseConstant((0.0, 0.8), (0.5, 0.3)), 2.0)
        assert model == spelled and F == tail_for(spelled)
        assert F.breaks == (0.0, 0.8, 1.3) and F.mu == (0.5, 0.3, 0.3)

    def test_one_row_varying_across_ages_gets_grid(self):
        mu = AgeDependentRate((0.0, 0.8), (0.0, 0.4), ((0.5, 0.5), (0.3, 0.31)))
        model = RateModel.age_dependent(PiecewiseConstant.constant(1.0), mu, 2.0)
        assert mu.depends_on_age and isinstance(tail_for(model, 1e-2), GridTail)
        with pytest.raises(DomainError, match="age-independent"):
            ClosedFormTail.from_model(model)

    def test_solver_only_for_age_dependent(self):
        calls = []

        def solve(model, step):
            calls.append(step)
            return solve_F(model, step)

        tail_for(TV_MODEL, 1e-2, solve=solve)
        tail_for(AD_MODEL, 1e-2, solve=solve)
        assert calls == [1e-2]
