"""Oracle cross-check suites behind the ``validate`` CLI subcommand.

Each check returns (name, passed, detail).  The quick tier runs the
arithmetic oracles (< 1 min); the full tier adds the Monte Carlo
distributional suites.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

import numpy as np
from scipy import stats
from scipy.integrate import quad

from .cpp import (
    RandomStream,
    bernoulli_thin,
    simulate_cpp_batch,
    simulate_cpp_many,
    simulate_forward,
    thinned_inverse_tail,
    uniform_k_sample,
)
from .kernel import ClosedFormTail, closed_form_F, solve_F, survival_a
from .ksample import (
    MixtureParams,
    definetti_sample_many,
    joint_df,
    joint_df_bruteforce,
    mixing_cdf,
    mixing_density,
    power_sum_identity,
)
from .model import RateModel

Check = Tuple[str, bool, str]


def _random_distinct(rng, lo, hi, n, sep=1e-4):
    while True:
        p = rng.uniform(lo, hi, n)
        if n == 1:
            return p
        d = np.abs(p[:, None] - p[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > sep:
            return p


def check_power_sum(cases: int = 1000, seed: int = 1) -> Check:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 13))
        p = _random_distinct(rng, 0.05, 0.95, n)
        lhs, rhs = power_sum_identity(p, m)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return ("power-sum identity", worst < 1e-10, f"worst rel diff {worst:.3g}")


def check_joint_df(cases: int = 1000, seed: int = 2) -> Check:
    rng = np.random.default_rng(seed)
    F = ClosedFormTail(1.0, 0.5, 2.0)
    worst = 0.0
    for _ in range(cases):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(0, 7))
        x = np.sort(_random_distinct(rng, 0.05, 1.95, k - 1, sep=1e-3))
        a = joint_df(k, m, x, F)
        b = joint_df_bruteforce(k, m, x, F)
        worst = max(worst, abs(a - b) / abs(b))
    return ("joint distribution function vs enumeration", worst < 1e-10, f"worst rel diff {worst:.3g}")


def check_mixing_density() -> Check:
    worst = 0.0
    for k in range(1, 7):
        for a in (0.0, 0.3, 0.9, 0.99):
            params = MixtureParams(k, a)
            val, _ = quad(lambda y: mixing_density(params, y), 0.0, 1.0, limit=200)
            worst = max(worst, abs(val - 1.0))
    return ("mixing density normalization", worst < 1e-10, f"worst |integral - 1| = {worst:.3g}")


def check_mixing_cdf_derivative() -> Check:
    worst = 0.0
    h = 1e-6
    for k, a in [(1, 0.3), (3, 0.7), (5, 0.9)]:
        params = MixtureParams(k, a)
        ys = np.linspace(0.01, 0.99, 100)
        deriv = (mixing_cdf(params, ys + h) - mixing_cdf(params, ys - h)) / (2 * h)
        worst = max(worst, float(np.abs(deriv - mixing_density(params, ys)).max()))
    return ("mixing CDF derivative matches density", worst < 1e-8 * 100, f"worst abs diff {worst:.3g}")


def check_volterra_vs_closed_form(step: float = 1e-3) -> Check:
    F = solve_F(RateModel.constant(1.0, 0.5, 2.0), step)
    ts = np.asarray(F.ts)
    exact = closed_form_F(1.0, 0.5, ts)
    worst = float((np.abs(np.asarray(F.values) - exact) / exact).max())
    return ("Volterra solver vs closed form", worst < 1e-6, f"max rel err {worst:.3g}")


def check_shifted_geometric(reps: int = 100_000, seed: int = 5) -> Check:
    F = ClosedFormTail(1.0, 0.5, 2.0)
    a = survival_a(F)
    tips, _ = simulate_cpp_batch(F, reps, RandomStream(seed))
    obs = np.bincount(np.clip(tips, 0, 21), minlength=22)[1:21].astype(float)
    n = np.arange(1, 21)
    exp = (1.0 - a) * a ** (n - 1) * reps
    obs = np.append(obs, reps - obs.sum())
    exp = np.append(exp, reps - exp.sum())
    p = stats.chisquare(obs, exp).pvalue
    return ("tip count is shifted geometric (chi-square)", p > 0.001, f"p = {p:.4f}")


def check_thinning(seed: int = 6, reps: int = 20_000, y: float = 0.3) -> Check:
    F = ClosedFormTail(1.0, 0.5, 2.0)
    Fy = thinned_inverse_tail(F, y)
    _, d_direct = simulate_cpp_batch(Fy, reps, RandomStream(seed))
    rng = RandomStream(seed + 1)
    thinned = []
    for tree in simulate_cpp_many(F, 3 * reps, rng):
        sub = bernoulli_thin(tree, y, rng)
        if sub is not None:
            thinned.extend(sub.depths)
    ks = stats.ks_2samp(np.asarray(thinned), d_direct).statistic
    return ("Bernoulli thinning theorem (KS)", ks < 0.02, f"KS = {ks:.4f}")


def check_forward_vs_cpp(seed: int = 7, n_depths: int = 10_000) -> Check:
    model = RateModel.constant(1.0, 0.5, 2.0)
    F = solve_F(model, 1e-3)
    rng = RandomStream(seed)
    fwd = []
    while len(fwd) < n_depths:
        fwd.extend(simulate_forward(model, rng).depths)
    _, cpp_depths = simulate_cpp_batch(F, 2 * n_depths, RandomStream(seed + 1))
    ks = stats.ks_2samp(np.asarray(fwd[:n_depths]), cpp_depths[:n_depths]).statistic
    return ("forward simulation vs CPP (KS)", ks < 0.02, f"KS = {ks:.4f}")


def check_definetti(seed: int = 8, reps: int = 10_000, k: int = 5) -> Check:
    F = ClosedFormTail(1.0, 0.5, 2.0)
    direct = definetti_sample_many(F, k, reps, RandomStream(seed))[1].depths
    rng = RandomStream(seed + 1)
    naive = []
    count = 0
    while count < reps:
        for tree in simulate_cpp_many(F, 5000, rng):
            if tree.n_tips >= k:
                naive.extend(uniform_k_sample(tree, k, rng).depths)
                count += 1
                if count >= reps:
                    break
    ks = stats.ks_2samp(direct, np.asarray(naive)).statistic
    return ("de Finetti k-sample vs naive pipeline (KS)", ks < 0.02, f"KS = {ks:.4f}")


def quick_checks() -> List[Check]:
    return [
        check_volterra_vs_closed_form(),
        check_power_sum(),
        check_joint_df(),
        check_mixing_density(),
        check_mixing_cdf_derivative(),
    ]


def full_checks() -> List[Check]:
    return quick_checks() + [
        check_shifted_geometric(),
        check_thinning(),
        check_forward_vs_cpp(),
        check_definetti(),
    ]


def run_validation(quick: bool = True, out=print) -> bool:
    checks = quick_checks() if quick else full_checks()
    out(f"1..{len(checks)}")
    all_ok = True
    for i, (name, ok, detail) in enumerate(checks, 1):
        status = "ok" if ok else "not ok"
        out(f"{status} {i} - {name} ({detail})")
        all_ok = all_ok and ok
    return all_ok
