"""The selection kernel's neighbour route against the dense oracle.

Within a sweep, ``SelectionKernel`` scores an inclusion configuration one
flip away from the current one from an anchor (M^{-1}, beta, fit, log|M|)
on the core it shares with ``FusionKernel``. These tests check every value
that route returns against ``oracles.dense_selection_log_marginal`` at 1e-10
relative for all three slabs, its admissibility cut against the Cholesky
route, and that a sweep scored entirely by the oracle draws the same
inclusion indicators.
"""
import math

import numpy as np
import pytest

from bayesfuse import Dataset, FSlab, GSlab, HyperParams, ISlab, SamplerConfig, selection_gibbs
from bayesfuse.baseline import SelectionKernel
from bayesfuse.sampler import _bernoulli_prob_one

import oracles
from conftest import random_instance, sparse_instance

REL_TOL = 1e-10

SLABS = [
    (ISlab(4.0), "islab", 4.0),
    (GSlab(60.0), "gslab", 60.0),
    (FSlab(1.0 / 60.0), "fslab", 1.0 / 60.0),
]
SLAB_IDS = ["islab", "gslab", "fslab"]


def oracle(data: Dataset, xi: np.ndarray, kind: str, scale: float) -> float:
    return oracles.dense_selection_log_marginal(data.y, data.X, xi, kind, scale)


@pytest.mark.parametrize("slab, kind, scale", SLABS, ids=SLAB_IDS)
def test_chain_evidence_matches_oracle(slab, kind, scale, monkeypatch):
    data = sparse_instance()
    seen = {}
    original = SelectionKernel.log_marginal

    def record(kernel, xi):
        value = original(kernel, xi)
        seen.setdefault(xi.tobytes(), (xi.copy(), value))
        return value

    monkeypatch.setattr(SelectionKernel, "log_marginal", record)
    config = SamplerConfig(total_iterations=300, burn_in=0, seed=4)
    chain = selection_gibbs(data, slab, HyperParams(g=1.0), config)
    assert 0.1 < chain.delta.mean() < 0.9  # the chain moves
    assert len(seen) > 400  # and meets many new configurations
    worst = 0.0
    for xi, value in seen.values():
        ref = oracle(data, xi, kind, scale)
        worst = max(worst, abs(value - ref) / abs(ref))
    assert worst <= REL_TOL


def reference_chain(data: Dataset, kind: str, scale: float, hyper: HyperParams,
                    config: SamplerConfig) -> np.ndarray:
    """Kept inclusion draws of a sweep that scores every configuration with
    the dense oracle and consumes the generator in the sampler's stream
    order: permutation, uniforms, sigma2, omega, beta."""
    memo = {}

    def evidence(xi):
        key = xi.tobytes()
        if key not in memo:
            memo[key] = oracle(data, xi, kind, scale)
        return memo[key]

    rng = np.random.default_rng(config.seed)
    p = data.p
    xi = np.ones(p, dtype=np.uint8)
    omega = hyper.a_omega / (hyper.a_omega + hyper.b_omega)
    kept = []
    for it in range(config.total_iterations):
        for j in rng.permutation(p):
            one, zero = xi.copy(), xi.copy()
            one[j], zero[j] = 1, 0
            prob_one = _bernoulli_prob_one(evidence(one), evidence(zero), omega)
            xi[j] = 1 if rng.random() < prob_one else 0
        p0 = int(xi.sum())
        rng.gamma(0.5 * data.n)
        omega = float(rng.beta(hyper.a_omega + p0, hyper.b_omega + p - p0))
        if p0 > 0:
            rng.standard_normal(p0)
        if it >= config.burn_in:
            kept.append(xi.copy())
    return np.array(kept, dtype=np.uint8)


@pytest.mark.parametrize("slab, kind, scale", SLABS, ids=SLAB_IDS)
def test_draws_equal_oracle_scored_sweep(slab, kind, scale):
    data = sparse_instance(seed=8, n=40, p=8)
    hyper = HyperParams(g=1.0)
    config = SamplerConfig(total_iterations=300, burn_in=0, seed=6)
    chain = selection_gibbs(data, slab, hyper, config)
    ref = reference_chain(data, kind, scale, hyper, config)
    assert 0 < chain.delta.mean() < 1
    assert np.array_equal(chain.delta, ref)


@pytest.mark.parametrize("slab, kind, scale", SLABS, ids=SLAB_IDS)
def test_anchor_updates_track_a_random_walk(slab, kind, scale):
    """One anchor carried through 150 accepted flips, never refactored,
    still scores every neighbour within 1e-10 of the oracle."""
    rng = np.random.default_rng(9)
    y, X = random_instance(rng, 60, 12)
    data = Dataset(y=y, X=X)
    kernel = SelectionKernel(data, slab)
    xi = (rng.random(12) < 0.5).astype(np.uint8)
    kernel.begin_sweep(xi)
    worst = 0.0
    for _ in range(150):
        for j in range(12):
            other = xi.copy()
            other[j] ^= 1
            value = kernel.log_marginal(other)
            worst = max(worst, abs(value - oracle(data, other, kind, scale)) / abs(value))
        j = int(rng.integers(12))
        xi = xi.copy()
        xi[j] ^= 1
        kernel.accept_flip(xi, j)
    assert worst <= REL_TOL


def near_twins(eps: float, seed: int = 4) -> Dataset:
    """p = 6, column 3 equal to column 2 plus eps times an independent column."""
    rng = np.random.default_rng(seed)
    y, X = random_instance(rng, 40, 6)
    extra = rng.standard_normal(40)
    X[:, 3] = X[:, 2] + eps * (extra - extra.mean())
    return Dataset(y=y, X=X)


@pytest.mark.parametrize("slab", [GSlab(40.0), FSlab(0.025), ISlab(4.0)], ids=SLAB_IDS[1:] + SLAB_IDS[:1])
@pytest.mark.parametrize("eps, admissible", [
    (0.0, False),
    (1e-8, False),
    (1e-6, False),  # s > 0 resolvably, but below the cut
    (1e-2, True),
    (1.0, True),
])
def test_add_cut_agrees_with_cholesky_route(slab, eps, admissible):
    """Around the add of column 3 next to its near twin, column 2, the
    neighbour route and a fresh kernel's Cholesky route agree on
    admissibility and, where admissible, on the value. The independence
    slab's ridge keeps every configuration admissible."""
    data = near_twins(eps)
    anchor = np.array([1, 0, 1, 0, 1, 0], dtype=np.uint8)
    kernel = SelectionKernel(data, slab)
    kernel.begin_sweep(anchor)
    for j in range(6):
        other = anchor.copy()
        other[j] ^= 1
        got = kernel.log_marginal(other)
        want = SelectionKernel(data, slab).log_marginal(other)
        if j == 3:
            expected = admissible or isinstance(slab, ISlab)
            assert math.isfinite(got) == math.isfinite(want) == expected
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=REL_TOL)
        else:
            assert got == -np.inf


def test_inadmissible_anchor_falls_back_to_full_route():
    """A sweep started at a singular configuration scores its neighbours
    by the Cholesky route."""
    data = near_twins(0.0)
    singular = np.array([0, 0, 1, 1, 0, 0], dtype=np.uint8)
    kernel = SelectionKernel(data, GSlab(40.0))
    kernel.begin_sweep(singular)
    for j in range(6):
        other = singular.copy()
        other[j] ^= 1
        assert kernel.log_marginal(other) == SelectionKernel(data, GSlab(40.0)).log_marginal(other)


@pytest.mark.parametrize("slab", [ISlab(4.0), GSlab(60.0)], ids=["islab", "gslab"])
def test_at_most_one_factorisation_per_sweep(slab, monkeypatch):
    """Neighbours are scored from the anchor: the only Cholesky factorisations
    of the evidence are the start's and one refactor at each sweep's first
    memo miss."""
    from bayesfuse import baseline

    calls = []
    original = baseline.dpotrf

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(baseline, "dpotrf", counting)
    misses = []
    evaluate = SelectionKernel._evaluate

    def counting_evaluate(kernel, xi):
        misses.append(1)
        return evaluate(kernel, xi)

    monkeypatch.setattr(SelectionKernel, "_evaluate", counting_evaluate)
    config = SamplerConfig(total_iterations=40, burn_in=0, seed=2)
    selection_gibbs(sparse_instance(), slab, HyperParams(g=1.0), config)
    assert len(misses) > 40 * 3
    assert len(calls) <= 1 + 40
