"""Rate estimation: likelihood aggregation and the MLE driver.

Every scheme is fitted by L-BFGS-B on ``_objective``.  Its value is checked
against ``loglik``, its score against central differences, and the optimum
it reaches against a Nelder-Mead reference computed here.  The k-sample
branch takes both from the trapezoid that ``loglik`` evaluates.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cppgen.cpp import RandomStream, simulate_cpp_many
from cppgen.errors import DomainError
from cppgen import inference
from cppgen.inference import FitResult, _objective, fit_mle, neg_log_likelihood
from cppgen.kernel import ClosedFormTail, solve_F
from cppgen.ksample import (
    bernoulli_loglikelihood,
    definetti_sample_many,
    full_loglikelihood,
    ksample_loglikelihood,
    likelihood_with_missing,
    loglik,
    trapezoid_nodes,
)
from cppgen.model import (
    AgeDependentRate, OrientedUltrametricTree, PiecewiseConstant, RateModel, SamplingScheme,
    TreeBatch,
)

F_STD = ClosedFormTail(1.0, 0.5, 2.0)
# The summed negative log-likelihood of the 80 k:3 trees of
# test_ksample_fit_moves_off_degenerate_rates at (lam, mu) = (2, 1), T = 40,
# by a 40-digit trapezoid (tests/data/make_ksample_refs.py).
DEGENERATE_NLL = 480.40279590220454


def _trees(n, seed, F=F_STD):
    return simulate_cpp_many(F, n, RandomStream(seed))


class TestNegLogLikelihood:
    def test_full_matches_per_tree_sum(self):
        trees = _trees(20, 1)
        expect = -sum(full_loglikelihood(t, F_STD) for t in trees)
        got = neg_log_likelihood(trees, 1.0, 0.5, SamplingScheme.full(), 2.0)
        assert_allclose(got, expect, rtol=1e-12)
        batch = TreeBatch.from_trees(trees)
        got = neg_log_likelihood(batch, 1.0, 0.5, SamplingScheme.full(), 2.0)
        assert_allclose(got, expect, rtol=1e-12)

    def test_bernoulli_matches_per_tree_sum(self):
        Fy = F_STD.thinned(0.3)
        trees = _trees(20, 2, Fy)
        expect = -sum(bernoulli_loglikelihood(t, F_STD, 0.3) for t in trees)
        got = neg_log_likelihood(
            trees, 1.0, 0.5, SamplingScheme.bernoulli(0.3), 2.0
        )
        assert_allclose(got, expect, rtol=1e-12)
        # free-y scheme with y supplied separately is the same evaluation
        got_free = neg_log_likelihood(
            trees, 1.0, 0.5, SamplingScheme.bernoulli(None), 2.0, y=0.3
        )
        assert_allclose(got_free, expect, rtol=1e-12)

    def test_ksample_matches_per_tree_sum(self):
        _, trees = definetti_sample_many(F_STD, 4, 30, RandomStream(3))
        expect = -sum(ksample_loglikelihood(t, F_STD, 4) for t in trees)
        got = neg_log_likelihood(trees, 1.0, 0.5, SamplingScheme.uniform_k(4), 2.0)
        assert_allclose(got, expect, rtol=1e-12)

    def test_unoriented_offset(self):
        trees = [OrientedUltrametricTree(2.0, (0.3, 0.6, 0.2))]
        d = neg_log_likelihood(
            trees, 1.0, 0.5, SamplingScheme.full(), 2.0, oriented=False
        ) - neg_log_likelihood(trees, 1.0, 0.5, SamplingScheme.full(), 2.0)
        assert_allclose(d, -math.log(2.0), rtol=1e-12)

    def test_model_solves_through_the_module_binding(self, monkeypatch):
        calls = []

        def counting(model, step):
            calls.append(step)
            return solve_F(model, step)

        monkeypatch.setattr(inference, "solve_F", counting)
        mu = AgeDependentRate((0.0,), (0.0, 0.5), ((0.2, 0.7),))
        model = RateModel.age_dependent(PiecewiseConstant.constant(1.0), mu, 2.0)
        trees, full = _trees(5, 4), SamplingScheme.full()
        values = [neg_log_likelihood(trees, 1.0, 0.5, full, 2.0, model=model) for _ in range(2)]
        assert calls == [1e-3, 1e-3] and values[0] == values[1]  # no cache between calls
        neg_log_likelihood(trees, 1.0, 0.5, full, 2.0, model=RateModel.constant(1.0, 0.5, 2.0))
        assert len(calls) == 2  # an age-independent model needs no solve

    def test_negative_rates_rejected(self):
        with pytest.raises(DomainError):
            neg_log_likelihood([], -1.0, 0.5, SamplingScheme.full(), 2.0)

    @pytest.mark.parametrize("lam, mu", [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan)])
    def test_non_finite_rates_rejected(self, lam, mu):
        # the rate rule's DomainError, not a TailOverflowError at F(T)
        batch = TreeBatch.from_trees(_trees(5, 6))
        with pytest.raises(DomainError, match="rate values must be finite and >= 0") as err:
            neg_log_likelihood(batch, lam, mu, SamplingScheme.full(), 2.0)
        assert type(err.value) is DomainError


class TestFitMle:
    def test_recovers_full_scheme_rates(self):
        res = fit_mle(_trees(150, 7), SamplingScheme.full(), init={"lam": 0.8, "mu": 0.4})
        assert res.converged
        assert abs(res.lam - 1.0) < 0.25
        assert abs(res.mu - 0.5) < 0.25
        assert not any(res.bound_hits.values())

    def test_fit_improves_on_truth(self):
        trees = _trees(100, 8)
        res = fit_mle(trees, SamplingScheme.full(), init={"lam": 0.8, "mu": 0.4})
        nll_true = neg_log_likelihood(trees, 1.0, 0.5, SamplingScheme.full(), 2.0)
        assert -res.loglik <= nll_true + 1e-8

    def test_pure_birth_reports_zero_mu(self):
        F = ClosedFormTail(1.0, 0.0, 1.0)
        res = fit_mle(_trees(300, 9, F), SamplingScheme.full(), init={"lam": 1.0, "mu": 0.2})
        assert abs(res.lam - 1.0) < 0.25
        # mu is driven to the boundary and reported as exactly zero
        assert res.mu == 0.0 or res.mu < 0.1

    def test_ksample_fit_runs(self):
        _, trees = definetti_sample_many(F_STD, 3, 80, RandomStream(10))
        res = fit_mle(trees, SamplingScheme.uniform_k(3), init={"lam": 0.9, "mu": 0.45})
        assert res.converged
        assert np.isfinite(res.loglik)

    @pytest.mark.filterwarnings("error")
    def test_ksample_fit_moves_off_degenerate_rates(self):
        # At T = 40 the lattice's scale-2 start (lam 2, mu 1) has r T = 40:
        # F(T) = 9.7e17 rounds a = 1 - 1/F(T) to 1, but the likelihood needs
        # only log a = -log1p(1/G_0) and is finite there.
        _, trees = definetti_sample_many(
            ClosedFormTail(1.0, 0.5, 40.0), 3, 80, RandomStream(10)
        )
        scheme = SamplingScheme.uniform_k(3)
        nll = neg_log_likelihood(trees, 2.0, 1.0, scheme, 40.0)
        assert_allclose(nll, DEGENERATE_NLL, rtol=1e-12)
        res = fit_mle(trees, scheme, init={"lam": 1.0, "mu": 0.5})
        assert res.converged
        # lam is not identified at this rT: the negative log-likelihood along
        # r = 0.4845 stays within 1.6e-6 over lam in [0.5, 3].  So the test
        # holds r and the likelihood, against the truth and against the
        # estimate (1.0003, 0.5159) of the earlier Nelder-Mead fit.
        assert abs((res.lam - res.mu) - 0.5) < 0.1
        for lam, mu in ((1.0, 0.5), (1.0003, 0.5159)):
            assert res.loglik >= -neg_log_likelihood(trees, lam, mu, scheme, 40.0)

    def test_batch_built_once(self, monkeypatch):
        from cppgen import inference

        calls = []
        from_trees = TreeBatch.from_trees.__func__

        def counting(cls, trees):
            calls.append(1)
            return from_trees(cls, trees)

        monkeypatch.setattr(inference.TreeBatch, "from_trees", classmethod(counting))
        trees = list(_trees(50, 11))  # tree objects, which fit_mle packs once
        res = fit_mle(trees, SamplingScheme.full(), init={"lam": 0.8, "mu": 0.4})
        assert calls == [1]
        again = fit_mle(
            TreeBatch.from_trees(trees), SamplingScheme.full(), init={"lam": 0.8, "mu": 0.4}
        )
        assert again == res

    def test_result_serialization(self):
        res = FitResult(1.0, 0.5, None, -10.0, 42, True, {"lam_lower": False})
        payload = res.to_json()
        assert payload["lambda"] == 1.0
        assert payload["mu"] == 0.5
        assert payload["converged"] is True

    def test_requires_trees(self):
        with pytest.raises(DomainError):
            fit_mle([], SamplingScheme.full())

    def test_requires_common_height(self):
        trees = [
            OrientedUltrametricTree(2.0, (0.3,)),
            OrientedUltrametricTree(1.0, (0.3,)),
        ]
        with pytest.raises(DomainError):
            fit_mle(trees, SamplingScheme.full())

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"init": {"foo": 1.0}}, "unknown init keys"),
            ({"bounds": {"sigma": (0.0, 1.0)}}, "unknown bounds keys"),
            ({"init": {"lam": -1.0}}, "initial lam"),
            ({"init": {"lam": 0.0}}, "initial lam"),
            ({"init": {"mu": -0.1}}, "initial mu"),
            ({"init": {"y": 0.0}}, "initial y"),
            ({"bounds": {"lam": (2.0, 1.0)}}, "exceeds upper end"),
            ({"bounds": {"mu": (0.5,)}}, "must be a pair"),
            ({"bounds": [("lam", (0.1, 1.0))]}, "bounds must map"),
            ({"bounds": {"lam": (-1.0, 1.0)}}, "bound of lam"),
            ({"bounds": {"lam": (0.0, 0.0)}}, "bound of lam"),
            ({"bounds": {"mu": (-0.1, 1.0)}}, "bound of mu"),
            ({"bounds": {"y": (0.5, 1.5)}}, "bound of y"),
            ({"bounds": {"lam": (0.0, 1.0)}}, "bound of lam"),
            ({"bounds": {"y": (0.0, 1.0)}}, "bound of y"),
            # booleans and strings that float() would read are not numbers
            ({"bounds": {"lam": [True, 1e3]}}, "bound of lam must be a pair"),
            ({"bounds": {"lam": [1e-3, "1e3"]}}, "bound of lam must be a pair"),
            ({"bounds": {"mu": ["0", 5]}}, "bound of mu must be a pair"),
            ({"bounds": {"y": [0.1, True]}}, "bound of y must be a pair"),
            ({"init": {"lam": True}}, "initial lam must be > 0, not True"),
            ({"init": {"mu": "0"}}, "initial mu must be >= 0, not '0'"),
            ({"init": {"y": True}}, "initial y must lie in \\(0, 1\\], not True"),
        ],
    )
    def test_rejects_bad_init_and_bounds(self, options, message):
        with pytest.raises(DomainError, match=message):
            fit_mle(_trees(5, 3), SamplingScheme.full(), **options)

    def test_accepts_yule_start_and_list_bounds(self):
        # mu = 0 starts at the Yule boundary; bounds read from JSON are lists
        res = fit_mle(
            _trees(150, 7), SamplingScheme.full(), init={"lam": 0.8, "mu": 0.0},
            bounds={"lam": [0.1, 10.0], "mu": [0.0, 5.0]},
        )
        assert 0.1 <= res.lam <= 10.0 and 0.0 <= res.mu <= 5.0

    def test_numpy_numbers_are_numbers(self):
        trees = _trees(150, 7)
        plain = fit_mle(trees, SamplingScheme.full(), init={"lam": 0.5, "mu": 0.0},
                        bounds={"lam": [0.1, 10.0], "mu": [0.0, 5.0]})
        res = fit_mle(trees, SamplingScheme.full(), init={"lam": np.float32(0.5), "mu": np.int64(0)},
                      bounds={"lam": np.array([0.1, 10.0]), "mu": (np.int64(0), np.float64(5.0))})
        assert (res.lam, res.mu, res.loglik) == (plain.lam, plain.mu, plain.loglik)

    def test_bounds_are_a_box(self):
        # Truth lam = 1 lies above the box: the fit stops on the bound,
        # where the projected gradient is 0, and reports it.
        res = fit_mle(
            _trees(150, 7), SamplingScheme.full(), init={"lam": 0.5, "mu": 0.2},
            bounds={"lam": (0.1, 0.6), "mu": (0.05, 5.0)},
        )
        assert res.converged
        assert res.lam == pytest.approx(0.6, rel=1e-9) and res.bound_hits["lam_upper"]
        assert 0.05 <= res.mu <= 5.0

    def test_yule_start_reaches_the_mle(self):
        # mu = 0 is a face of the box, not a floor of log mu, so a start on
        # it leaves it for the interior optimum.
        trees = _trees(300, 1)
        yule = fit_mle(trees, SamplingScheme.full(), init={"lam": 0.8, "mu": 0.0})
        ref = fit_mle(trees, SamplingScheme.full(), init={"lam": 0.8, "mu": 0.4})
        assert yule.converged and ref.converged and yule.mu > 0.4
        assert yule.loglik == pytest.approx(ref.loglik, rel=1e-9)

    def test_estimates_follow_the_time_unit(self):
        # lam T and mu T do not depend on the time unit: the same trees in a
        # unit 500 times longer give rates 500 times higher.
        batch = TreeBatch.from_trees(_trees(300, 2))
        short = TreeBatch(batch.heights / 500, batch.offsets, batch.depths / 500)
        res = fit_mle(batch, SamplingScheme.full(), init={"lam": 0.8, "mu": 0.4})
        fast = fit_mle(short, SamplingScheme.full(), init={"lam": 400.0, "mu": 200.0})
        assert res.converged and fast.converged
        assert_allclose([fast.lam, fast.mu], [500 * res.lam, 500 * res.mu], rtol=1e-6)

    def test_mu_on_a_lower_bound_above_zero(self):
        trees = _trees(300, 9, ClosedFormTail(1.0, 0.0, 1.0))
        res = fit_mle(
            trees, SamplingScheme.full(), init={"lam": 1.0, "mu": 0.2},
            bounds={"mu": (0.05, 5.0)},
        )
        assert res.converged and res.mu == 0.05 and res.bound_hits["mu_lower"]

    @pytest.mark.parametrize(
        "batch, tips",
        [
            (_trees(20, 3), 1),  # 61 depths: no rows of k - 1 = 2
            (TreeBatch([2.0, 2.0], [0, 1, 4], [0.5, 0.1, 0.2, 0.3]), 2),  # 4 depths: 2 rows
        ],
        ids=["full-trees", "divisible"],
    )
    def test_ksample_fit_checks_tip_counts_first(self, monkeypatch, batch, tips):
        from cppgen import inference

        def never(*args, **kwargs):
            raise AssertionError("_objective called")

        monkeypatch.setattr(inference, "_objective", never)
        with pytest.raises(DomainError, match=f"tree has {tips} tips, expected k=3"):
            fit_mle(batch, SamplingScheme.uniform_k(3))


def _nelder_mead_optimum(batch, scheme, theta0, oriented=True):
    """The minimum negative log-likelihood found by a tightly converged
    Nelder-Mead over (log lam, log mu[, logit y]) from theta0."""
    from scipy.optimize import minimize

    def nll(theta):
        y = 1.0 / (1.0 + math.exp(-theta[2])) if len(theta) == 3 else None
        return neg_log_likelihood(
            batch, math.exp(theta[0]), math.exp(theta[1]), scheme, float(batch.heights[0]),
            y=y, oriented=oriented,
        )

    res = minimize(
        nll, theta0, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
    )
    return res.fun


_RATE_GRID = pytest.mark.parametrize(
    "lam, mu",
    [(1.0, 0.5), (0.5, 1.0), (0.7, 0.7), (1.0, 1.0 - 1e-9), (1.0, 1.0 + 1e-9), (1.0, 0.0)],
    # "mu=floor": mu on the floor of its range, the Yule boundary mu = 0
    ids=["r>0", "r<0", "r=0", "r=+1e-9", "r=-1e-9", "mu=floor"],
)


class TestGradientFit:
    @_RATE_GRID
    @pytest.mark.parametrize("y", [1.0, 0.3])
    @pytest.mark.parametrize("oriented", [True, False])
    def test_objective_value_is_the_log_likelihood(self, lam, mu, y, oriented):
        batch = TreeBatch.from_trees(_trees(200, 5))
        value, _ = _objective(batch, lam, mu, y, 2.0)
        # The shape term log 2^(n-1-cherries) of unoriented trees is constant.
        shape = 0.0 if oriented else float((batch.n_tips - 1 - batch.cherries).sum()) * math.log(2.0)
        F = ClosedFormTail(lam, mu, 2.0).thinned(y)
        expect = -loglik(batch, F, SamplingScheme.full(), oriented).sum()
        assert_allclose(value - shape, expect, rtol=1e-12)

    @pytest.mark.parametrize(
        "scheme",
        [SamplingScheme.full(), SamplingScheme.bernoulli(0.3), SamplingScheme.uniform_k(3)],
        ids=["full", "bernoulli", "k:3"],
    )
    def test_one_tail_per_evaluation(self, monkeypatch, scheme):
        from cppgen import inference

        counts = dict.fromkeys(["ClosedFormTail", "_objective", "neg_log_likelihood"], 0)

        def counting(name):
            f = getattr(inference, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            return counted

        for name in counts:
            monkeypatch.setattr(inference, name, counting(name))
        if scheme.variant == "uniform_k":
            trees = definetti_sample_many(F_STD, 3, 100, RandomStream(8))[1]
        else:
            trees = _trees(100, 8)
        res = fit_mle(trees, scheme, init={"lam": 0.8, "mu": 0.4})
        assert res.converged and counts["_objective"] > 0
        # One tail per evaluation, plus the one of the reported logL.
        assert counts["neg_log_likelihood"] == 1
        assert counts["ClosedFormTail"] == counts["_objective"] + 1

    def test_objective_is_inf_past_the_float_range(self):
        value, grad = _objective(TreeBatch.from_trees(_trees(20, 5)), 400.0, 0.2, 1.0, 2.0)
        assert value == math.inf and not grad.any()

    @_RATE_GRID
    @pytest.mark.parametrize("y", [1.0, 0.3])
    def test_score_matches_central_differences(self, lam, mu, y):
        batch = TreeBatch.from_trees(_trees(200, 5))

        def ll(lam, mu, y):
            scheme = SamplingScheme.bernoulli(None)
            return -neg_log_likelihood(batch, lam, mu, scheme, 2.0, y=y)

        h = 1e-5
        fd = [(ll(lam * (1 + h), mu, y) - ll(lam * (1 - h), mu, y)) / (2 * h * lam)]
        if mu > 0:
            fd.append((ll(lam, mu * (1 + h), y) - ll(lam, mu * (1 - h), y)) / (2 * h * mu))
        else:
            # mu - h < 0: a one-sided difference of second order instead.
            hm = 1e-4
            fd.append((-3 * ll(lam, mu, y) + 4 * ll(lam, mu + hm, y) - ll(lam, mu + 2 * hm, y)) / (2 * hm))
        if y < 1.0:  # the free-y component
            fd.append((ll(lam, mu, y * (1 + h)) - ll(lam, mu, y * (1 - h))) / (2 * h * y))
        _, grad = _objective(batch, lam, mu, y, 2.0)
        assert_allclose(-grad[: len(fd)], fd, rtol=1e-6)

    @pytest.mark.filterwarnings("error")
    @_RATE_GRID
    @pytest.mark.parametrize("T", [2.0, 30.0], ids=["rT=1", "rT=15"])
    @pytest.mark.parametrize("k", [3, 5])
    def test_ksample_value_and_score(self, lam, mu, T, k):
        # k-sample trees drawn at lam = 1, mu = 0.5, so rT is that of the truth
        _, batch = definetti_sample_many(ClosedFormTail(1.0, 0.5, T), k, 100, RandomStream(5))
        scheme = SamplingScheme.uniform_k(k)

        def ll(lam, mu):
            return -neg_log_likelihood(batch, lam, mu, scheme, T)

        value, grad = _objective(batch, lam, mu, 1.0, T, k)
        assert_allclose(value, -ll(lam, mu), rtol=1e-12)
        h = 1e-5
        fd = [(ll(lam * (1 + h), mu) - ll(lam * (1 - h), mu)) / (2 * h * lam)]
        if mu > 0:
            fd.append((ll(lam, mu * (1 + h)) - ll(lam, mu * (1 - h))) / (2 * h * mu))
        else:
            hm = 1e-4
            fd.append((-3 * ll(lam, mu) + 4 * ll(lam, mu + hm) - ll(lam, mu + 2 * hm)) / (2 * hm))
        assert_allclose(-grad[:2], fd, rtol=1e-6)

    def test_ksample_reaches_nelder_mead_optimum(self):
        _, batch = definetti_sample_many(F_STD, 3, 300, RandomStream(12))
        scheme = SamplingScheme.uniform_k(3)
        res = fit_mle(batch, scheme, init={"lam": 0.8, "mu": 0.4})
        assert res.converged
        reference = -_nelder_mead_optimum(batch, scheme, [0.0, math.log(0.5)])
        assert res.loglik >= reference - 1e-9 * abs(reference)

    @pytest.mark.parametrize(
        "scheme, y, oriented",
        [
            (SamplingScheme.full(), 1.0, True),
            (SamplingScheme.bernoulli(0.3), 0.3, True),
            (SamplingScheme.bernoulli(None), 0.5, True),
            (SamplingScheme.full(), 1.0, False),
        ],
        ids=["full", "bernoulli:0.3", "free-y", "unoriented"],
    )
    def test_reaches_nelder_mead_optimum(self, scheme, y, oriented):
        batch = TreeBatch.from_trees(_trees(300, 12, F_STD.thinned(y)))
        res = fit_mle(batch, scheme, init={"lam": 0.8, "mu": 0.4}, oriented=oriented)
        assert res.converged
        theta0 = [0.0, math.log(0.5)] + ([0.0] if scheme.y is None and scheme.variant == "bernoulli" else [])
        reference = -_nelder_mead_optimum(batch, scheme, theta0, oriented)
        assert res.loglik >= reference - 1e-9 * abs(reference)
        assert res.loglik == pytest.approx(
            -neg_log_likelihood(batch, res.lam, res.mu, scheme, 2.0, y=res.y, oriented=oriented),
            rel=1e-12,
        )

    @pytest.mark.filterwarnings("error")
    def test_start_with_overflowing_tail_is_skipped(self):
        # The lattice's scale-2 start (lam 400) has F(T) = e^{800}, past the
        # float range, so its objective is +inf; the other two starts begin
        # far above the truth and still converge.
        trees = _trees(150, 7)
        assert not np.isfinite(ClosedFormTail(400.0, 0.2, 2.0).value(2.0))
        res = fit_mle(trees, SamplingScheme.full(), init={"lam": 200.0, "mu": 0.1})
        good = fit_mle(trees, SamplingScheme.full(), init={"lam": 0.8, "mu": 0.4})
        assert res.converged
        assert res.loglik >= good.loglik - 1e-9 * abs(good.loglik)

    @pytest.mark.parametrize("seed", [9, 3])
    def test_yule_boundary_is_reached(self, seed):
        # mu = 0 is a face of the box, where L-BFGS-B stops by projection.
        F = ClosedFormTail(1.0, 0.0, 1.0)
        batch = TreeBatch.from_trees(_trees(300, seed, F))
        res = fit_mle(batch, SamplingScheme.full(), init={"lam": 1.0, "mu": 0.2})
        assert res.converged and res.mu == 0.0 and res.bound_hits["mu_lower"]
        reference = -_nelder_mead_optimum(batch, SamplingScheme.full(), [0.0, math.log(1e-3)])
        assert res.loglik >= reference - 1e-9 * abs(reference)


class TestConvergedIsTheWinners:
    """``converged`` is the status of the start that gave the estimate,
    not whether any start converged."""

    @pytest.mark.parametrize("winner_converges", [False, True])
    @pytest.mark.parametrize("scheme", [SamplingScheme.full(), SamplingScheme.uniform_k(3)])
    def test_status_of_lowest_start(self, monkeypatch, scheme, winner_converges):
        import scipy.optimize
        from scipy.optimize import OptimizeResult

        init = {"lam": 1.0, "mu": 0.5}
        _, trees = definetti_sample_many(F_STD, 3, 20, RandomStream(4))

        def fake_minimize(fun, x0, **kwargs):
            # The scale-1 start wins with the lowest value; the other two
            # converge at higher values.
            x0 = np.asarray(x0, dtype=float)
            wins = abs(x0[0] - init["lam"] * 2.0) < 1e-12  # lam T, T = 2
            ok = winner_converges or not wins
            return OptimizeResult(
                x=x0, fun=1.0 if wins else 2.0, nit=5, success=ok,
                jac=np.array([0.0 if ok else 1.0, 0.0]),
            )

        monkeypatch.setattr(scipy.optimize, "minimize", fake_minimize)
        res = fit_mle(trees, scheme, init=init)
        assert res.lam == pytest.approx(init["lam"]) and res.mu == pytest.approx(init["mu"])
        assert res.converged is winner_converges


class TestInputRules:
    """The likelihood, its node count, the joint law and the fitter check
    their input by the same rules, with the same messages."""

    def test_same_tip_count_message(self):
        tree = OrientedUltrametricTree(2.0, (0.3, 0.6, 0.2))  # 4 tips
        batch, scheme = TreeBatch.from_trees([tree]), SamplingScheme.uniform_k(3)
        calls = [
            lambda: loglik(batch, F_STD, scheme),
            lambda: trapezoid_nodes(batch, F_STD, 3),
            lambda: fit_mle(batch, scheme),
            lambda: likelihood_with_missing(tree, F_STD, 3, 0),
        ]
        for call in calls:
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == "tree has 4 tips, expected k=3"

    @pytest.mark.parametrize(
        "T, spread, accepted", [(0.01, 5e-11, True), (2.0, 3e-9, False)], ids=["small-T", "T-2"]
    )
    def test_one_height_tolerance(self, T, spread, accepted):
        # 1e-9 max(T, 1): 5e-11 is within it at T = 0.01, 3e-9 is not at T = 2
        batch = TreeBatch([T, T + spread], [0, 1, 2], [0.4 * T, 0.6 * T])
        calls = [
            lambda: neg_log_likelihood(batch, 1.0, 0.5, SamplingScheme.full(), T),
            lambda: fit_mle(batch, SamplingScheme.full()).loglik,
            lambda: trapezoid_nodes(batch, ClosedFormTail(1.0, 0.5, T), 2),
        ]
        for call in calls:
            if accepted:
                assert math.isfinite(call())
            else:
                with pytest.raises(DomainError, match="does not match the tail horizon T"):
                    call()

    def test_free_y_needs_a_value(self):
        with pytest.raises(DomainError, match="needs y"):
            neg_log_likelihood(_trees(3, 1), 1.0, 0.5, SamplingScheme.bernoulli(None), 2.0)
