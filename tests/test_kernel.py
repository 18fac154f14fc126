"""Inverse-tail function F: closed form, Volterra solver, thinning algebra."""

import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cppgen.errors import DomainError, SolverError
from cppgen.kernel import (
    ClosedFormTail,
    GridTail,
    PiecewiseTail,
    closed_form_F,
    invert_tail,
    node_depth_density_f,
    solve_F,
    survival_a,
    tail_for,
)
from cppgen.model import AgeDependentRate, PiecewiseConstant, RateModel

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
        from cppgen.kernel import death_density_g

        model = RateModel.constant(1.0, 0.5, 3.0)
        assert_allclose(death_density_g(model, 1.0, 2.0), 0.5 * math.exp(-0.5), rtol=1e-12)


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

    def test_grid_tail_still_bisected(self):
        F = solve_F(RateModel.constant(1.0, 0.5, 2.0), 1e-2)
        targets = np.linspace(1.001, F.value(2.0) - 1e-6, 50)
        assert_allclose(F.value(invert_tail(F, targets)), targets, rtol=1e-10)


class TestPiecewiseTail:
    def test_matches_quadrature_oracle(self):
        F = PiecewiseTail.from_model(TV_MODEL)
        assert F.breaks == (0.0, 1.0)
        for t in (0.25, 0.75, 1.0, 1.5, 2.0):
            assert_allclose(F.value(t), _tv_exact(t), rtol=1e-9)

    def test_one_piece_is_closed_form(self):
        F = PiecewiseTail.from_model(RateModel.constant(1.0, 0.5, 2.0))
        G = ClosedFormTail(1.0, 0.5, 2.0)
        t = np.linspace(0.0, 2.0, 81)
        for y in (1.0, 0.3):
            assert_allclose(F.thinned(y).value(t), G.thinned(y).value(t), rtol=1e-14)
            assert_allclose(F.thinned(y).deriv(t), G.thinned(y).deriv(t), rtol=1e-14)

    def test_deriv_matches_central_difference(self):
        F = PiecewiseTail.from_model(TV_MODEL).thinned(0.6)
        t = np.linspace(0.05, 1.95, 39)
        t = t[np.abs(t - 1.0) > 1e-3]  # F' jumps at the break
        h = 1e-6
        num = (F.value(t + h) - F.value(t - h)) / (2 * h)
        assert_allclose(F.deriv(t), num, rtol=1e-8)

    def test_thinning_composes(self):
        F = PiecewiseTail.from_model(TV_MODEL)
        t = np.linspace(0.0, 2.0, 41)
        assert_allclose(F.thinned(0.5).thinned(0.6).value(t), F.thinned(0.3).value(t), rtol=1e-14)
        assert_allclose(F.thinned(0.3).value(t), 1.0 - 0.3 + 0.3 * F.value(t), rtol=1e-14)

    @pytest.mark.parametrize("y", [1.0, 0.3])
    def test_inverse_round_trip(self, y):
        F = PiecewiseTail.from_model(TV_MODEL).thinned(y)
        t = np.linspace(0.0, 2.0, 201)
        assert_allclose(invert_tail(F, F.value(t)), t, rtol=0, atol=1e-12)
        assert_allclose(F.inverse([1.0, F.value(F.T)]), [0.0, F.T], rtol=0, atol=1e-12)

    def test_tails_pickle(self):
        for F in (PiecewiseTail.from_model(TV_MODEL), solve_F(TV_MODEL, 1e-2)):
            G = pickle.loads(pickle.dumps(F))
            t = np.linspace(0.0, 2.0, 11)
            assert np.array_equal(G.value(t), F.value(t))


class TestTailFor:
    def test_dispatch(self):
        assert isinstance(tail_for(RateModel.constant(1.0, 0.5, 2.0)), ClosedFormTail)
        assert isinstance(tail_for(TV_MODEL), PiecewiseTail)
        assert isinstance(tail_for(AD_MODEL, 1e-2), GridTail)

    def test_solver_only_for_age_dependent(self):
        calls = []

        def solve(model, step):
            calls.append(step)
            return solve_F(model, step)

        tail_for(TV_MODEL, 1e-2, solve=solve)
        tail_for(AD_MODEL, 1e-2, solve=solve)
        assert calls == [1e-2]
