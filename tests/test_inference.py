"""Rate estimation: likelihood aggregation and the Nelder-Mead MLE driver."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cppgen.cpp import RandomStream, simulate_cpp_many, thinned_inverse_tail
from cppgen.errors import DegenerateMixtureError, DomainError
from cppgen.inference import FitResult, fit_mle, neg_log_likelihood
from cppgen.kernel import ClosedFormTail
from cppgen.ksample import (
    bernoulli_loglikelihood,
    definetti_sample_many,
    full_loglikelihood,
    ksample_loglikelihood,
)
from cppgen.model import OrientedUltrametricTree, SamplingScheme, TreeBatch

F_STD = ClosedFormTail(1.0, 0.5, 2.0)


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
        Fy = thinned_inverse_tail(F_STD, 0.3)
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
        assert_allclose(got, expect, rtol=1e-6)

    def test_unoriented_offset(self):
        trees = [OrientedUltrametricTree(2.0, (0.3, 0.6, 0.2))]
        d = neg_log_likelihood(
            trees, 1.0, 0.5, SamplingScheme.full(), 2.0, oriented=False
        ) - neg_log_likelihood(trees, 1.0, 0.5, SamplingScheme.full(), 2.0)
        assert_allclose(d, -math.log(2.0), rtol=1e-12)

    def test_negative_rates_rejected(self):
        with pytest.raises(DomainError):
            neg_log_likelihood([], -1.0, 0.5, SamplingScheme.full(), 2.0)


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
        # F(T) > 2^53 rounds a to 1 and the k-sample likelihood is undefined
        # there.  The fit scores it +inf, and the other starts still converge.
        _, trees = definetti_sample_many(
            ClosedFormTail(1.0, 0.5, 40.0), 3, 80, RandomStream(10)
        )
        scheme = SamplingScheme.uniform_k(3)
        with pytest.raises(DegenerateMixtureError):
            neg_log_likelihood(trees, 2.0, 1.0, scheme, 40.0)
        res = fit_mle(trees, scheme, init={"lam": 1.0, "mu": 0.5})
        assert res.converged
        assert np.isfinite(res.loglik)
        assert abs(res.lam - 1.0) < 0.1

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
