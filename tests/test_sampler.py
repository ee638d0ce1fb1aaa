import math

import numpy as np
import pytest

from bayesfuse import (
    Dataset,
    FusionKernel,
    HyperParams,
    SamplerConfig,
    delta_conditional_prob,
    gibbs_sweep,
    log_marginal_likelihood,
    partition_from_delta,
    run_chain,
    sample_beta,
    sample_omega,
    sample_sigma2,
    summarize,
)
from bayesfuse.model import DegenerateScale, EmptyChain, InadmissibleState, SingularDesign
from bayesfuse.sampler import _bernoulli_prob_one, initial_state

import oracles
from conftest import random_instance


def all_deltas(m):
    for code in range(2**m):
        yield np.array([(code >> j) & 1 for j in range(m)], dtype=np.uint8)


class TestSamplerConfig:
    def test_defaults(self):
        c = SamplerConfig()
        assert c.total_iterations == 10_000 and c.burn_in == 2_000

    @pytest.mark.parametrize("kwargs", [
        {"total_iterations": 0},
        {"total_iterations": 10, "burn_in": 10},
        {"total_iterations": 10, "burn_in": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


class TestLogMarginal:
    def test_reference_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            n = int(rng.integers(8, 30))
            p = int(rng.integers(3, 6))
            y, X = random_instance(rng, n, p)
            data = Dataset(y=y, X=X)
            g = float(rng.uniform(1.0, 2 * n))
            hyper = HyperParams(g=g)
            for delta in all_deltas(p - 1):
                got = log_marginal_likelihood(data, delta, hyper)
                want = oracles.dense_fusion_log_marginal(y, X, delta, g)
                assert got == pytest.approx(want, abs=1e-9)

    def test_singular_configuration_is_minus_inf(self):
        rng = np.random.default_rng(44)
        X = rng.standard_normal((12, 3))
        X[:, 1] = -X[:, 0]  # columns 0,1 sum to zero when fused
        data = Dataset(y=rng.standard_normal(12), X=X)
        # fusing columns 0 and 1 produces a zero column -> singular
        val = log_marginal_likelihood(data, np.array([0, 1], dtype=np.uint8), HyperParams(g=5.0))
        assert val == -np.inf

    def test_scaling_law(self, toy_data):
        """Scaling y by c shifts every log evidence by exactly -n log c."""
        hyper = HyperParams(g=float(toy_data.n))
        delta = np.array([1, 0, 1, 0], dtype=np.uint8)
        base = log_marginal_likelihood(toy_data, delta, hyper)
        for c in (0.5, 2.0, 10.0):
            scaled = Dataset(y=c * toy_data.y, X=toy_data.X)
            got = log_marginal_likelihood(scaled, delta, hyper)
            assert got - base == pytest.approx(-toy_data.n * math.log(c), abs=1e-8)

    def test_length_mismatch(self, toy_data):
        with pytest.raises(ValueError):
            log_marginal_likelihood(toy_data, np.ones(3, dtype=np.uint8), HyperParams(g=1.0))


class TestPosteriorFactors:
    def test_matches_dense_pieces(self, toy_data):
        """FusionKernel.posterior against the dense oracle, every configuration."""
        g = float(toy_data.n)
        kernel = FusionKernel(toy_data, HyperParams(g=g))
        for delta in all_deltas(toy_data.p - 1):
            blocks, L, mean, scale = kernel.posterior(delta)
            _, _, _, H, h, s_c = oracles.fusion_pieces(toy_data.y, toy_data.X, delta, g)
            assert blocks == partition_from_delta(delta)
            L = np.tril(L)  # cho_factor leaves garbage above the diagonal
            assert np.allclose(np.linalg.inv(L @ L.T), H, atol=1e-10)
            assert np.allclose(mean, h, atol=1e-10)
            assert scale == pytest.approx(s_c, abs=1e-10)

    def test_kernel_posterior_matches_factors(self, toy_data):
        """The posterior route (merged gram plus rank-one correction, one
        Cholesky) and the evidence route (prefix tables, full and one flip
        from an anchor) agree on every configuration."""
        hyper = HyperParams(g=float(toy_data.n))
        n, g = toy_data.n, hyper.g
        row_sums = toy_data.X.sum(axis=1)
        total_gram = float(row_sums @ row_sums)
        const = (
            math.lgamma(0.5 * n)
            - 0.5 * (n - 1) * math.log(2.0 * math.pi)
            - 0.5 * math.log(total_gram)
        )
        for delta in all_deltas(toy_data.p - 1):
            blocks, L, mean, scale = FusionKernel(toy_data, hyper).posterior(delta)
            X_f = np.column_stack([toy_data.X[:, a:b].sum(axis=1) for a, b in blocks])
            G = X_f.T @ X_f
            v = G.sum(axis=1)
            precision = ((g + 1.0) / g) * G - np.outer(v, v) / (g * total_gram)
            L = np.tril(L)  # cho_factor leaves garbage above the diagonal
            assert np.allclose(L @ L.T, precision, atol=1e-8)
            assert np.allclose(precision @ mean, X_f.T @ toy_data.y, atol=1e-8)
            want = const - 0.5 * int(delta.sum()) * math.log(g + 1.0) - 0.5 * n * math.log(scale)
            assert FusionKernel(toy_data, hyper).log_marginal(delta) == pytest.approx(want, abs=1e-9)
            anchored = FusionKernel(toy_data, hyper)
            neighbour = delta.copy()
            neighbour[0] ^= 1
            anchored.begin_sweep(neighbour)
            assert anchored.log_marginal(delta) == pytest.approx(want, abs=1e-9)


class TestBernoulliProb:
    def test_equal_evidence_is_omega(self):
        assert _bernoulli_prob_one(-3.0, -3.0, 0.3) == pytest.approx(0.3)

    def test_extreme_logits_saturate(self):
        assert _bernoulli_prob_one(0.0, -2000.0, 0.5) == pytest.approx(1.0)
        assert _bernoulli_prob_one(-2000.0, 0.0, 0.5) == pytest.approx(0.0)

    def test_inadmissible_branches(self):
        assert _bernoulli_prob_one(-np.inf, -1.0, 0.5) == 0.0
        assert _bernoulli_prob_one(-1.0, -np.inf, 0.5) == 1.0
        with pytest.raises(InadmissibleState):
            _bernoulli_prob_one(-np.inf, -np.inf, 0.5)

    def test_omega_edges(self):
        assert _bernoulli_prob_one(-1.0, -1.0, 0.0) == 0.0
        assert _bernoulli_prob_one(-1.0, -1.0, 1.0) == 1.0

    def test_conditional_matches_oracle(self, toy_data):
        hyper = HyperParams(g=20.0)
        delta = np.array([0, 1, 1, 0], dtype=np.uint8)
        omega = 0.37
        for j in range(4):
            one, zero = delta.copy(), delta.copy()
            one[j], zero[j] = 1, 0
            lo = oracles.dense_fusion_log_marginal(toy_data.y, toy_data.X, one, hyper.g)
            lz = oracles.dense_fusion_log_marginal(toy_data.y, toy_data.X, zero, hyper.g)
            want = 1.0 / (1.0 + (1.0 - omega) / omega * math.exp(lz - lo))
            got = delta_conditional_prob(toy_data, delta, j, omega, hyper)
            assert got == pytest.approx(want, abs=1e-9)

    def test_conditional_index_error(self, toy_data):
        with pytest.raises(IndexError):
            delta_conditional_prob(toy_data, np.zeros(4, dtype=np.uint8), 4, 0.5, HyperParams(g=1.0))


class TestConditionalDraws:
    def test_sigma2_rejects_bad_scale(self):
        with pytest.raises(DegenerateScale):
            sample_sigma2(np.random.default_rng(0), 10, 0.0)

    def test_sigma2_moments(self):
        # IG(n/2, s) has mean s / (n/2 - 1)
        rng = np.random.default_rng(1)
        n, s = 12, 3.0
        draws = np.array([sample_sigma2(rng, n, s) for _ in range(40_000)])
        assert draws.mean() == pytest.approx(s / (n / 2 - 1), rel=0.05)

    def test_omega_moments(self):
        rng = np.random.default_rng(2)
        hyper = HyperParams(g=1.0, a_omega=2.0, b_omega=3.0)
        p, p1 = 6, 2
        draws = np.array([sample_omega(rng, p1, p, hyper) for _ in range(40_000)])
        a, b = 2.0 + p1, 3.0 + (p - 1) - p1
        assert draws.mean() == pytest.approx(a / (a + b), rel=0.05)

    def test_beta_is_block_constant(self, toy_data):
        hyper = HyperParams(g=float(toy_data.n))
        blocks, L, mean, _ = FusionKernel(toy_data, hyper).posterior(
            np.array([0, 1, 0, 0], dtype=np.uint8))
        beta = sample_beta(np.random.default_rng(3), blocks, L, mean, 1.3)
        assert beta.shape == (5,)
        assert beta[0] == beta[1]
        assert beta[2] == beta[3] == beta[4]
        assert beta[1] != beta[2]

    def test_beta_mean_and_spread(self, toy_data):
        hyper = HyperParams(g=float(toy_data.n))
        blocks, L, mean, _ = FusionKernel(toy_data, hyper).posterior(np.ones(4, dtype=np.uint8))
        rng = np.random.default_rng(4)
        draws = np.array([sample_beta(rng, blocks, L, mean, 1.0) for _ in range(20_000)])
        assert np.allclose(draws.mean(axis=0), mean, atol=0.05)
        L = np.tril(L)
        cov = np.linalg.inv(L @ L.T)
        assert np.allclose(np.cov(draws.T), cov, atol=0.05)


class TestChain:
    def test_shapes_and_meta(self, toy_data):
        config = SamplerConfig(total_iterations=50, burn_in=10, seed=9)
        chain = run_chain(toy_data, HyperParams(g=40.0), config)
        assert len(chain) == 40
        assert chain.delta.shape == (40, 4)
        assert chain.beta.shape == (40, 5)
        assert chain.meta["kind"] == "fusion"
        assert chain.meta["seed"] == 9

    def test_deterministic(self, toy_data):
        config = SamplerConfig(total_iterations=60, burn_in=20, seed=123)
        a = run_chain(toy_data, HyperParams(g=40.0), config)
        b = run_chain(toy_data, HyperParams(g=40.0), config)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.sigma2, b.sigma2)
        assert np.array_equal(a.omega, b.omega)

    def test_seed_changes_draws(self, toy_data):
        base = SamplerConfig(total_iterations=60, burn_in=20, seed=123)
        other = SamplerConfig(total_iterations=60, burn_in=20, seed=124)
        a = run_chain(toy_data, HyperParams(g=40.0), base)
        b = run_chain(toy_data, HyperParams(g=40.0), other)
        assert not np.array_equal(a.beta, b.beta)

    def test_gibbs_sweep_advances(self, toy_data):
        hyper = HyperParams(g=40.0)
        state = initial_state(toy_data, hyper)
        rng = np.random.default_rng(5)
        nxt = gibbs_sweep(state, toy_data, hyper, rng)
        assert nxt.beta.shape == (5,)
        assert 0.0 < nxt.omega < 1.0
        assert nxt.sigma2 > 0.0

    def test_initial_state_falls_back_to_fully_fused(self, toy_data):
        X = toy_data.X.copy()
        X[:, 2] = X[:, 1]  # the unfused design is singular
        data = Dataset(y=toy_data.y, X=X)
        state = initial_state(data, HyperParams(g=40.0))
        assert np.array_equal(state.delta, np.zeros(4, dtype=np.uint8))
        assert np.ptp(state.beta) == 0.0

    def test_initial_state_without_admissible_start(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(12)
        data = Dataset(y=rng.standard_normal(12), X=np.column_stack([x, -x]))
        with pytest.raises(SingularDesign):
            initial_state(data, HyperParams(g=12.0))

    def test_summarize(self, toy_data):
        config = SamplerConfig(total_iterations=80, burn_in=20, seed=6)
        chain = run_chain(toy_data, HyperParams(g=40.0), config)
        s = summarize(chain)
        assert s.beta_mean.shape == (5,)
        assert s.delta_prob.shape == (4,)
        assert np.all((0.0 <= s.delta_prob) & (s.delta_prob <= 1.0))
        # partition is consistent with thresholded probabilities
        assert s.partition_est == partition_from_delta((s.delta_prob > 0.5).astype(np.uint8))

    def test_summarize_empty_chain(self, toy_data):
        config = SamplerConfig(total_iterations=5, burn_in=4, seed=0)
        chain = run_chain(toy_data, HyperParams(g=40.0), config)
        empty = type(chain)(
            delta=chain.delta[:0], beta=chain.beta[:0],
            sigma2=chain.sigma2[:0], omega=chain.omega[:0], meta=chain.meta,
        )
        with pytest.raises(EmptyChain):
            summarize(empty)

    def test_draws_iterator(self, toy_data):
        config = SamplerConfig(total_iterations=12, burn_in=2, seed=7)
        chain = run_chain(toy_data, HyperParams(g=40.0), config)
        states = list(chain.draws)
        assert len(states) == 10
        assert np.array_equal(states[3].beta, chain.beta[3])
