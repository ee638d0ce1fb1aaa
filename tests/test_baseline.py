import numpy as np
import pytest

from bayesfuse import (
    Dataset,
    FSlab,
    GSlab,
    HyperParams,
    ISlab,
    SamplerConfig,
    selection_gibbs,
    selection_log_marginal,
    selection_posterior_factors,
    summarize_selection,
)
from bayesfuse.model import EmptyChain

import oracles
from conftest import random_instance

SLABS = [
    (ISlab(4.0), "islab", 4.0),
    (GSlab(25.0), "gslab", 25.0),
    (FSlab(0.1), "fslab", 0.1),
]


def all_xis(p):
    for code in range(2**p):
        yield np.array([(code >> j) & 1 for j in range(p)], dtype=np.uint8)


class TestSlabValidation:
    @pytest.mark.parametrize("cls", [ISlab, GSlab, FSlab])
    def test_rejects_nonpositive(self, cls):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                cls(bad)


class TestSelectionMarginal:
    @pytest.mark.parametrize("slab,kind,scale", SLABS)
    def test_matches_dense_oracle(self, slab, kind, scale):
        rng = np.random.default_rng(77)
        for trial in range(5):
            n = int(rng.integers(10, 30))
            p = int(rng.integers(2, 5))
            y, X = random_instance(rng, n, p)
            data = Dataset(y=y, X=X)
            for xi in all_xis(p):
                got = selection_log_marginal(data, xi, slab)
                want = oracles.dense_selection_log_marginal(y, X, xi, kind, scale)
                assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("slab,kind,scale", SLABS)
    def test_factors_match_dense_oracle(self, slab, kind, scale, toy_data):
        xi = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        f = selection_posterior_factors(toy_data, xi, slab)
        active, _, _, A, m, s = oracles.selection_pieces(toy_data.y, toy_data.X, xi, kind, scale)
        assert np.array_equal(f.active, active)
        L = np.tril(f.precision_chol)  # cho_factor leaves garbage above the diagonal
        assert np.allclose(L @ L.T, A, atol=1e-9)
        assert np.allclose(f.mean, m, atol=1e-9)
        assert f.scale == pytest.approx(s, abs=1e-9)

    def test_empty_model_scale(self, toy_data):
        f = selection_posterior_factors(toy_data, np.zeros(5, dtype=np.uint8), ISlab(1.0))
        assert f.scale == pytest.approx(0.5 * float(toy_data.y @ toy_data.y))
        assert f.mean.shape == (0,)

    def test_fslab_posterior_mean_is_least_squares(self, toy_data):
        """The data-centered slab leaves the LS fit as the posterior mean."""
        xi = np.ones(5, dtype=np.uint8)
        f = selection_posterior_factors(toy_data, xi, FSlab(0.25))
        ls, *_ = np.linalg.lstsq(toy_data.X, toy_data.y, rcond=None)
        assert np.allclose(f.mean, ls, atol=1e-9)


class TestSelectionGibbs:
    def make_sparse(self, seed=101):
        rng = np.random.default_rng(seed)
        n, p = 80, 6
        X = rng.standard_normal((n, p))
        X -= X.mean(axis=0)
        beta = np.array([2.0, 0.0, -1.5, 0.0, 0.0, 1.0])
        y = X @ beta + 0.5 * rng.standard_normal(n)
        y -= y.mean()
        return Dataset(y=y, X=X), beta

    @pytest.mark.parametrize("slab", [ISlab(10.0), GSlab(80.0), FSlab(1.0 / 80.0)])
    def test_recovers_sparse_support(self, slab):
        data, beta = self.make_sparse()
        config = SamplerConfig(total_iterations=1500, burn_in=500, seed=11)
        chain = selection_gibbs(data, slab, HyperParams(g=1.0), config)
        s = summarize_selection(chain)
        active = beta != 0
        assert np.all(s.xi_prob[active] > 0.9)
        assert np.all(s.xi_prob[~active] < 0.5)

    def test_inactive_coefficients_exactly_zero(self):
        data, _ = self.make_sparse()
        config = SamplerConfig(total_iterations=300, burn_in=100, seed=12)
        chain = selection_gibbs(data, GSlab(80.0), HyperParams(g=1.0), config)
        zero_mask = chain.delta == 0
        assert np.all(chain.beta[zero_mask] == 0.0)
        assert np.all(chain.beta[~zero_mask] != 0.0)

    def test_deterministic(self):
        data, _ = self.make_sparse()
        config = SamplerConfig(total_iterations=200, burn_in=50, seed=13)
        a = selection_gibbs(data, ISlab(5.0), HyperParams(g=1.0), config)
        b = selection_gibbs(data, ISlab(5.0), HyperParams(g=1.0), config)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.delta, b.delta)

    def test_meta_kind(self):
        data, _ = self.make_sparse()
        config = SamplerConfig(total_iterations=20, burn_in=5, seed=14)
        chain = selection_gibbs(data, ISlab(5.0), HyperParams(g=1.0), config)
        assert chain.meta["kind"] == "selection"

    def test_summarize_empty(self):
        data, _ = self.make_sparse()
        config = SamplerConfig(total_iterations=20, burn_in=5, seed=15)
        chain = selection_gibbs(data, ISlab(5.0), HyperParams(g=1.0), config)
        empty = type(chain)(
            delta=chain.delta[:0], beta=chain.beta[:0],
            sigma2=chain.sigma2[:0], omega=chain.omega[:0], meta=chain.meta,
        )
        with pytest.raises(EmptyChain):
            summarize_selection(empty)
