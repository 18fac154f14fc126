"""The release criteria: one check per claim of the paper, behind both
``cppgen validate`` and ``tests/test_acceptance.py``.

A check takes no arguments and returns ``(name, passed, detail)``; its
seeds, bounds and wall-time limits are fixed in its body.  The function
``criterion_NN_...`` is release criterion NN.  ``QUICK`` holds the
arithmetic criteria 1, 2, 3, 4 and 8 (about 15 s, most of it the
power-sum enumeration); ``FULL`` adds the Monte Carlo criteria 5, 6, 7, 9
and 10.  ``cppgen validate --full`` and ``pytest tests/test_acceptance.py``
run the same ``FULL`` checks.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np
from scipy import stats
from scipy.integrate import quad

from .cpp import (
    RandomStream,
    bernoulli_thin,
    simulate_cpp_many,
    simulate_forward,
    thinned_inverse_tail,
    uniform_k_sample,
)
from .inference import fit_mle
from .kernel import ClosedFormTail, closed_form_F, solve_F, survival_a
from .ksample import (
    MixtureParams,
    definetti_sample_many,
    joint_df,
    joint_df_bruteforce,
    ksample_likelihood,
    mixing_cdf,
    mixing_density,
    power_sum_identity,
)
from .model import (
    AgeDependentRate,
    OrientedUltrametricTree,
    PiecewiseConstant,
    RateModel,
    SamplingScheme,
)

Check = Tuple[str, bool, str]

# lambda = 1, mu = 0.5, T = 2: F(T) is about 4.4 tips per tree
F_STD = ClosedFormTail(1.0, 0.5, 2.0)


def _distinct(rng, lo: float, hi: float, n: int, sep: float = 1e-3) -> np.ndarray:
    """n uniforms on (lo, hi), drawn again until no two lie within ``sep``."""
    while True:
        p = rng.uniform(lo, hi, n)
        if n < 2 or np.diff(np.sort(p)).min() >= sep:
            return p


def criterion_01_volterra_matches_closed_form() -> Check:
    t0 = time.monotonic()
    F = solve_F(RateModel.constant(1.0, 0.5, 2.0), 1e-3)
    elapsed = time.monotonic() - t0
    exact = closed_form_F(1.0, 0.5, np.asarray(F.ts))
    worst = float((np.abs(np.asarray(F.values) - exact) / exact).max())
    ok = worst < 1e-6 and elapsed < 5.0
    return ("Volterra solver vs closed form", ok, f"max rel err {worst:.3g}, {elapsed:.2f}s")


def criterion_02_joint_df_matches_enumeration() -> Check:
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(0, 7))
        x = np.sort(_distinct(rng, 0.05, 1.95, k - 1))
        ref = joint_df_bruteforce(k, m, x, F_STD)
        worst = max(worst, abs(joint_df(k, m, x, F_STD) - ref) / ref)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    return (
        "joint distribution function vs enumeration",
        ok,
        f"worst rel diff {worst:.3g}, {elapsed:.1f}s",
    )


def criterion_03_power_sum_identity() -> Check:
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 13))
        lhs, rhs = power_sum_identity(_distinct(rng, 0.05, 0.95, n), m)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return ("power-sum identity", worst < 1e-10, f"worst rel diff {worst:.3g} over 1000 cases")


def criterion_04_mixing_density_is_proper() -> Check:
    worst_norm = 0.0
    for k in range(1, 7):
        for a in (0.0, 0.3, 0.9, 0.99):
            params = MixtureParams(k, a)
            val, _ = quad(lambda y: mixing_density(params, y), 0.0, 1.0, limit=200)
            worst_norm = max(worst_norm, abs(val - 1.0))
    worst_deriv = 0.0
    for k, a in [(1, 0.3), (3, 0.7), (5, 0.9), (6, 0.99)]:
        params = MixtureParams(k, a)
        ys = np.linspace(0.01, 0.99, 199)
        # Richardson-extrapolated central differences with a step tied to the
        # local CDF length scale, accurate past 1e-8 even at a = 0.99
        h = 1e-4 * (1.0 - a * (1.0 - ys)) / k

        def central(hh):
            return (mixing_cdf(params, ys + hh) - mixing_cdf(params, ys - hh)) / (2 * hh)

        deriv = (4.0 * central(h / 2) - central(h)) / 3.0
        worst_deriv = max(worst_deriv, float(np.abs(deriv - mixing_density(params, ys)).max()))
    return (
        "mixing density integrates to 1 and is the CDF's derivative",
        worst_norm < 1e-10 and worst_deriv < 1e-8,
        f"norm err {worst_norm:.3g}, CDF-derivative err {worst_deriv:.3g}",
    )


def _ks_forward_vs_cpp(model: RateModel, seed: int, n: int = 10_000) -> float:
    rng = RandomStream(seed)
    fwd = []
    while len(fwd) < n:
        fwd.extend(simulate_forward(model, rng).depths)
    cpp = simulate_cpp_many(solve_F(model, 1e-3), 2 * n, RandomStream(seed + 50)).depths
    return stats.ks_2samp(np.asarray(fwd[:n]), cpp[:n]).statistic


def criterion_05_forward_simulation_matches_cpp() -> Check:
    t0 = time.monotonic()
    tv = RateModel.time_varying(
        lam=PiecewiseConstant((0.0, 1.0), (1.0, 1.5)),
        mu=PiecewiseConstant((0.0, 1.0), (0.5, 0.2)),
        T=2.0,
    )
    age = RateModel.age_dependent(
        lam=PiecewiseConstant.constant(1.0),
        mu=AgeDependentRate((0.0,), (0.0, 0.5), ((0.2, 0.7),)),
        T=2.0,
    )
    ks = {
        "constant": _ks_forward_vs_cpp(RateModel.constant(1.0, 0.5, 2.0), 101),
        "time-varying": _ks_forward_vs_cpp(tv, 102),
        "age-dependent": _ks_forward_vs_cpp(age, 103),
    }
    elapsed = time.monotonic() - t0
    ok = all(v < 0.02 for v in ks.values()) and elapsed < 120.0
    detail = ", ".join(f"{name} KS={v:.4f}" for name, v in ks.items())
    return ("forward simulation vs CPP (KS)", ok, f"{detail}, {elapsed:.1f}s")


def criterion_06_bernoulli_thinning_theorem() -> Check:
    y = 0.3
    Fy = thinned_inverse_tail(F_STD, y)
    d_direct = simulate_cpp_many(Fy, 30_000, RandomStream(61)).depths
    rng = RandomStream(62)
    thinned_depths = []
    thinned_tips = []
    for tree in simulate_cpp_many(F_STD, 90_000, rng):
        sub = bernoulli_thin(tree, y, rng)
        if sub is not None:
            thinned_depths.extend(sub.depths)
            thinned_tips.append(sub.n_tips)
    ks = stats.ks_2samp(np.asarray(thinned_depths)[:10_000], d_direct[:10_000]).statistic
    # tip counts of both pipelines are shifted geometric with parameter a_y
    nmax = 12
    obs = np.bincount(np.clip(thinned_tips, 0, nmax), minlength=nmax + 1)[1:]
    a_y = survival_a(Fy)
    n = np.arange(1, nmax)
    expect = (1.0 - a_y) * a_y ** (n - 1) * len(thinned_tips)
    expect = np.append(expect, len(thinned_tips) - expect.sum())
    p = stats.chisquare(obs, expect).pvalue
    return (
        "Bernoulli thinning theorem (KS, chi-square)",
        ks < 0.02 and p > 0.001,
        f"KS={ks:.4f}, chi-square p={p:.4f}",
    )


def criterion_07_mixture_representation_of_k_samples() -> Check:
    t0 = time.monotonic()
    k, reps = 5, 10_000
    ks = {}
    for mu, seed in [(0.0, 201), (0.5, 202), (0.9, 203)]:
        F = ClosedFormTail(1.0, mu, 2.0)
        direct = definetti_sample_many(F, k, reps, RandomStream(seed))[1].depths
        rng = RandomStream(seed + 50)
        naive = []
        count = 0
        while count < reps:
            for tree in simulate_cpp_many(F, 20_000, rng):
                if tree.n_tips >= k:
                    naive.extend(uniform_k_sample(tree, k, rng).depths)
                    count += 1
                    if count >= reps:
                        break
        ks[mu] = stats.ks_2samp(direct, np.asarray(naive)).statistic
    elapsed = time.monotonic() - t0
    ok = all(v < 0.02 for v in ks.values()) and elapsed < 300.0
    detail = ", ".join(f"mu={mu} KS={v:.4f}" for mu, v in ks.items())
    return ("de Finetti k-sample vs naive pipeline (KS)", ok, f"{detail}, {elapsed:.1f}s")


def criterion_08_k_sample_likelihood_normalization() -> Check:
    nodes, weights = np.polynomial.legendre.leggauss(48)
    grid = nodes + 1.0  # map to (0, 2)
    total = 0.0
    for i, x1 in enumerate(grid):
        for j, x2 in enumerate(grid):
            tree = OrientedUltrametricTree(2.0, (x1, x2))
            total += weights[i] * weights[j] * ksample_likelihood(tree, F_STD, 3)
    err = abs(total - 1.0)
    return ("oriented k = 3 likelihood integrates to 1", err < 1e-4, f"|integral - 1| = {err:.2g}")


def criterion_09_tip_count_is_shifted_geometric() -> Check:
    a = survival_a(F_STD)
    tips = simulate_cpp_many(F_STD, 100_000, RandomStream(91)).n_tips
    obs = np.bincount(np.clip(tips, 0, 21), minlength=22)[1:21].astype(float)
    n = np.arange(1, 21)
    expect = (1.0 - a) * a ** (n - 1) * len(tips)
    obs = np.append(obs, len(tips) - obs.sum())
    expect = np.append(expect, len(tips) - expect.sum())
    p = stats.chisquare(obs, expect).pvalue
    return ("tip count is shifted geometric (chi-square)", p > 0.001, f"p={p:.4f} over bins 1..20")


def criterion_10_mle_recovery() -> Check:
    trees = simulate_cpp_many(F_STD, 500, RandomStream(7))
    full = fit_mle(trees, SamplingScheme.full(), init={"lam": 0.8, "mu": 0.4})
    full_ok = abs(full.lam - 1.0) < 0.10 and abs(full.mu - 0.5) < 0.05

    _, ktrees = definetti_sample_many(ClosedFormTail(1.0, 0.3, 2.0), 5, 300, RandomStream(25))
    ksamp = fit_mle(ktrees, SamplingScheme.uniform_k(5), init={"lam": 0.9, "mu": 0.25})
    k_ok = abs(ksamp.lam - 1.0) < 0.15 and abs(ksamp.mu - 0.3) < 0.045

    detail = (
        f"full ({full.lam:.3f}, {full.mu:.3f}) vs (1, 0.5); "
        f"k-sample ({ksamp.lam:.3f}, {ksamp.mu:.3f}) vs (1, 0.3)"
    )
    return ("maximum-likelihood recovery of (lambda, mu)", full_ok and k_ok, detail)


QUICK = (
    criterion_01_volterra_matches_closed_form,
    criterion_02_joint_df_matches_enumeration,
    criterion_03_power_sum_identity,
    criterion_04_mixing_density_is_proper,
    criterion_08_k_sample_likelihood_normalization,
)

FULL = QUICK + (
    criterion_05_forward_simulation_matches_cpp,
    criterion_06_bernoulli_thinning_theorem,
    criterion_07_mixture_representation_of_k_samples,
    criterion_09_tip_count_is_shifted_geometric,
    criterion_10_mle_recovery,
)


def run_validation(quick: bool = True, out=print) -> bool:
    """Run ``QUICK`` (or ``FULL``) and write one TAP line per check as it
    finishes; True when every check passed."""
    checks = QUICK if quick else FULL
    out(f"1..{len(checks)}")
    all_ok = True
    for i, check in enumerate(checks, 1):
        name, ok, detail = check()
        out(f"{'ok' if ok else 'not ok'} {i} - {name} ({detail})")
        all_ok = all_ok and ok
    return all_ok
