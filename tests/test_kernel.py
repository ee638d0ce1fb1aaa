"""The kernel's neighbour route against the dense oracle.

Within a sweep, ``FusionKernel`` scores a configuration one flip away from
the current one from an anchor (G^{-1}, beta, fit) that it updates after
accepted flips instead of refactoring. These tests check every value that
route returns against ``oracles.dense_fusion_log_marginal`` at 1e-10
relative, its admissibility cut against the Cholesky route, and that a
sweep scored entirely by the oracle draws the same indicators.
"""
import math

import numpy as np
import pytest

from bayesfuse import (
    Dataset,
    FusionKernel,
    HyperParams,
    SamplerConfig,
    generate_case,
    make_case,
    run_chain,
)
from bayesfuse.sampler import _bernoulli_prob_one
from bayesfuse.simbench import center_only

import oracles
from conftest import random_instance

REL_TOL = 1e-10


def recorded_chain(data, hyper, config, monkeypatch):
    """Run the chain; return {config bytes: (delta, value)} of every evidence
    value ``log_marginal`` returned."""
    seen = {}
    original = FusionKernel.log_marginal

    def record(kernel, delta):
        value = original(kernel, delta)
        seen.setdefault(delta.tobytes(), (delta.copy(), value))
        return value

    monkeypatch.setattr(FusionKernel, "log_marginal", record)
    run_chain(data, hyper, config)
    return seen


def smoothing_instance():
    n = 120
    rng = np.random.default_rng(12)
    y = np.repeat([0.0, 2.0, 0.0, 2.0], 30) + 0.3 * rng.standard_normal(n)
    return Dataset(y=y, X=np.eye(n)), HyperParams(g=float(n))


def bench_case1_instance():
    case = make_case(1, 200, 0.5)
    return center_only(*generate_case(case, 31)), HyperParams(g=200.0)


@pytest.mark.parametrize("make, sweeps", [
    (smoothing_instance, 60),
    (bench_case1_instance, 300),
], ids=["smoothing_n120", "case1_n200_rho05"])
def test_chain_evidence_matches_oracle(make, sweeps, monkeypatch):
    data, hyper = make()
    config = SamplerConfig(total_iterations=sweeps, burn_in=sweeps // 2, seed=5)
    seen = recorded_chain(data, hyper, config, monkeypatch)
    assert len(seen) > 500  # the chain met many new configurations
    worst = 0.0
    for delta, value in seen.values():
        ref = oracles.dense_fusion_log_marginal(data.y, data.X, delta, hyper.g)
        if not math.isfinite(ref):
            assert value == -np.inf
            continue
        worst = max(worst, abs(value - ref) / abs(ref))
    assert worst <= REL_TOL


def reference_chain(data: Dataset, hyper: HyperParams, config: SamplerConfig) -> np.ndarray:
    """Kept indicator draws of a sweep that scores every configuration with
    the dense oracle and consumes the generator in the sampler's stream
    order: permutation, uniforms, sigma2, omega, beta."""
    memo = {}

    def evidence(delta):
        key = delta.tobytes()
        if key not in memo:
            memo[key] = oracles.dense_fusion_log_marginal(data.y, data.X, delta, hyper.g)
        return memo[key]

    rng = np.random.default_rng(config.seed)
    m = data.p - 1
    delta = np.ones(m, dtype=np.uint8)
    omega = hyper.a_omega / (hyper.a_omega + hyper.b_omega)
    kept = []
    for it in range(config.total_iterations):
        for j in rng.permutation(m):
            one, zero = delta.copy(), delta.copy()
            one[j], zero[j] = 1, 0
            prob_one = _bernoulli_prob_one(evidence(one), evidence(zero), omega)
            delta[j] = 1 if rng.random() < prob_one else 0
        p1 = int(delta.sum())
        rng.gamma(0.5 * data.n)
        omega = float(rng.beta(hyper.a_omega + p1, hyper.b_omega + m - p1))
        rng.standard_normal(p1 + 1)
        if it >= config.burn_in:
            kept.append(delta.copy())
    return np.array(kept, dtype=np.uint8)


@pytest.mark.parametrize("p", [5, 8])
def test_draws_equal_oracle_scored_sweep(p):
    rng = np.random.default_rng(70 + p)
    y, X = random_instance(rng, 30, p)
    X[:, p // 2:] += X[:, : p - p // 2] * 0.5  # correlated neighbours
    X -= X.mean(axis=0)
    data = Dataset(y=y, X=X)
    hyper = HyperParams(g=30.0)
    config = SamplerConfig(total_iterations=400, burn_in=0, seed=p)
    chain = run_chain(data, hyper, config)
    ref = reference_chain(data, hyper, config)
    assert 0 < chain.delta.mean() < 1  # the chain moves
    assert np.array_equal(chain.delta, ref)


def test_anchor_updates_track_a_random_walk():
    """One anchor carried through 150 accepted flips, never refactored,
    still scores every neighbour within 1e-10 of the oracle."""
    rng = np.random.default_rng(9)
    y, X = random_instance(rng, 60, 12)
    data = Dataset(y=y, X=X)
    hyper = HyperParams(g=60.0)
    kernel = FusionKernel(data, hyper)
    delta = (rng.random(11) < 0.5).astype(np.uint8)
    kernel.begin_sweep(delta)
    worst = 0.0
    for _ in range(150):
        for j in range(11):
            other = delta.copy()
            other[j] ^= 1
            value = kernel.log_marginal(other)
            ref = oracles.dense_fusion_log_marginal(y, X, other, hyper.g)
            worst = max(worst, abs(value - ref) / abs(ref))
        j = int(rng.integers(11))
        delta = delta.copy()
        delta[j] ^= 1
        kernel.accept_flip(delta, j)
    assert worst <= REL_TOL


def near_twins(eps: float, seed: int = 4) -> Dataset:
    """p = 6, column 3 equal to column 2 plus eps times an independent column."""
    rng = np.random.default_rng(seed)
    y, X = random_instance(rng, 40, 6)
    extra = rng.standard_normal(40)
    X[:, 3] = X[:, 2] + eps * (extra - extra.mean())
    return Dataset(y=y, X=X)


@pytest.mark.parametrize("eps, admissible", [
    (0.0, False),
    (1e-8, False),
    (1e-2, True),
    (1.0, True),
])
def test_split_cut_agrees_with_cholesky_route(eps, admissible):
    """Around the split that separates columns 2 and 3 into singleton
    blocks, the neighbour route and a fresh kernel's Cholesky route agree
    on admissibility and, where admissible, on the value."""
    data = near_twins(eps)
    hyper = HyperParams(g=40.0)
    anchor = np.array([1, 1, 0, 1, 1], dtype=np.uint8)  # blocks 0|1|2 3|4|5
    kernel = FusionKernel(data, hyper)
    kernel.begin_sweep(anchor)
    for j in range(5):
        other = anchor.copy()
        other[j] ^= 1
        got = kernel.log_marginal(other)
        want = FusionKernel(data, hyper).log_marginal(other)
        if j == 2:
            assert math.isfinite(got) == math.isfinite(want) == admissible
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=REL_TOL)
        else:
            assert got == -np.inf


def test_inadmissible_anchor_falls_back_to_full_route():
    """A sweep started at a singular configuration scores its neighbours
    by the Cholesky route."""
    data = near_twins(0.0)
    hyper = HyperParams(g=40.0)
    singular = np.array([1, 1, 1, 1, 1], dtype=np.uint8)
    kernel = FusionKernel(data, hyper)
    kernel.begin_sweep(singular)
    for j in range(5):
        other = singular.copy()
        other[j] ^= 1
        assert kernel.log_marginal(other) == FusionKernel(data, hyper).log_marginal(other)


def test_at_most_one_factorisation_per_sweep(monkeypatch):
    """Neighbours are scored from the anchor: the only Cholesky factorisations
    are the start's and one refactor at each sweep's first memo miss."""
    from bayesfuse import sampler

    calls = []
    original = sampler.dpotrf

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sampler, "dpotrf", counting)
    data, hyper = smoothing_instance()
    config = SamplerConfig(total_iterations=30, burn_in=10, seed=2)
    seen = recorded_chain(data, hyper, config, monkeypatch)
    assert len(seen) > 30 * 10
    assert len(calls) <= 1 + 30


def test_memo_stays_within_its_budget(monkeypatch):
    """A smoothing chain that meets more configurations than the memo may
    hold never keeps more than that: the memo is emptied at the cap."""
    from bayesfuse import sampler

    monkeypatch.setattr(sampler, "MEMO_MB", 0.05)
    data, hyper = smoothing_instance()
    cap = sampler.memo_capacity(data.p - 1)
    assert cap == int(0.05 * 2**20) // (119 + sampler.MEMO_ENTRY_BYTES)
    sizes = []
    original = FusionKernel.log_marginal

    def record(kernel, delta):
        value = original(kernel, delta)
        sizes.append(len(kernel._cache))
        return value

    monkeypatch.setattr(FusionKernel, "log_marginal", record)
    run_chain(data, hyper, SamplerConfig(total_iterations=200, burn_in=0, seed=5))
    assert max(sizes) == cap  # the chain filled the memo, never past the cap
    assert sizes.count(1) > 1  # and emptied it


def test_capped_memo_leaves_draws_unchanged(monkeypatch):
    """The memo only caches deterministic values: a memo of three entries
    draws what an unbounded one draws, for both kernels."""
    from bayesfuse import FSlab, selection_gibbs, sampler
    from conftest import sparse_instance

    data, hyper = smoothing_instance()
    config = SamplerConfig(total_iterations=60, burn_in=0, seed=3)
    sel_data, slab = sparse_instance(), FSlab(1.0 / 60.0)
    sel_config = SamplerConfig(total_iterations=150, burn_in=0, seed=3)
    free = run_chain(data, hyper, config)
    free_sel = selection_gibbs(sel_data, slab, hyper, sel_config)
    monkeypatch.setattr(sampler, "memo_capacity", lambda key_bytes: 3)
    capped = run_chain(data, hyper, config)
    capped_sel = selection_gibbs(sel_data, slab, hyper, sel_config)
    for a, b in ((free, capped), (free_sel, capped_sel)):
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.sigma2, b.sigma2)
