"""Gibbs sampler for the variable-fusion model.

The boundary indicators are updated one at a time from their Bernoulli
full conditionals, driven by the closed-form log marginal likelihood of
the response given a fusion configuration. The error variance, the
inclusion probability and the block coefficients then follow from their
conjugate full conditionals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri
from scipy.special import gammaln

from .model import (
    Chain,
    Dataset,
    DegenerateScale,
    EmptyChain,
    FusionIndicator,
    GibbsState,
    HyperParams,
    InadmissibleState,
    PosteriorSummary,
    SingularDesign,
    SingularSystem,
    block_sizes,
    partition_from_delta,
)

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SamplerConfig:
    total_iterations: int = 10_000
    burn_in: int = 2_000
    seed: int = 20_230_815

    def __post_init__(self):
        if self.total_iterations <= 0:
            raise ValueError("total_iterations must be positive")
        if not 0 <= self.burn_in < self.total_iterations:
            raise ValueError("need 0 <= burn_in < total_iterations")


#: A merged column whose residual norm, after projection on the other
#: merged columns, is at most RANK_TOL times the sum of its member columns'
#: norms makes the configuration inadmissible (evidence -inf). This is the
#: Cholesky pivot of the full route and the square root of a split's Schur
#: complement s. Where the design is exactly singular, rounding in the
#: prefix tables leaves a residual of 1e-8 to 1e-7 of that sum at p = 4
#: to 300; random designs with equicorrelation 0.5 keep more than 0.17.
#: The selection kernel applies the same cut to a single column.
RANK_TOL = 1e-5

#: Memory budget of an evidence memo, in MB. An entry is counted as its key
#: (one byte per indicator) plus MEMO_ENTRY_BYTES for the key object, the
#: float and the dict slot (measured 86-126 bytes on CPython 3.11); the memo
#: is emptied when one more entry would pass the budget.
MEMO_MB = 64
MEMO_ENTRY_BYTES = 100


def memo_capacity(key_bytes: int) -> int:
    """Entries an evidence memo with keys of ``key_bytes`` bytes may hold."""
    return max(1, int(MEMO_MB * 2**20) // (key_bytes + MEMO_ENTRY_BYTES))


def constrained_update(C, beta, h, d, diff, drop):
    """Impose a'beta = 0 on a least-squares anchor and drop one index.

    ``C`` is the inverse gram, ``beta`` the fit's coefficients, h = C a,
    d = a'h and diff = a'beta. Returns (C', beta', fit decrease) with index
    ``drop`` removed, O(k^2): a fusion merge (a = e_b - e_{b+1}, whose rows
    b and b+1 then agree) and a selection drop (a = e_i) are both this step.
    """
    keep = np.arange(beta.shape[0] - 1)
    keep[drop:] += 1
    hk = h.take(keep)
    ginv = C.take(keep, axis=0).take(keep, axis=1)
    ginv -= np.outer(hk, hk / d)
    return ginv, beta.take(keep) - hk * (diff / d), diff * diff / d


def border_terms(C, beta, v, c, t):
    """(u, s, q) for bordering an anchor with one column w, O(k^2).

    ``v`` holds the cross products of w with the anchor's columns, ``c`` is
    w'w and ``t`` is w'y; u = C v, the Schur complement s = c - v'u and
    q = t - v'beta. The fit grows by q^2 / s.
    """
    u = C @ v
    return u, c - float(v @ u), t - float(v @ beta)


class AnchoredKernel:
    """Memoised evidence with a lazily factored anchor; shared by the fusion
    and the selection kernel.

    The flip loop tells the kernel where its sweep is: :meth:`begin_sweep`
    at a sweep's start and :meth:`accept_flip` after each accepted flip. A
    memo miss one flip away from that current configuration is scored from
    an *anchor*, the current configuration's factorisation, by
    :meth:`_neighbour`. The anchor is refactored from scratch
    (:meth:`_refactor`) at the first miss of a sweep, which bounds drift and
    costs nothing on sweeps that only hit the memo; accepted flips are
    applied to it (:meth:`_move`) only when a later miss needs them. Any
    other configuration, and any configuration while the current one is
    inadmissible, takes :meth:`_evaluate_full`.

    Values are memoised per configuration (chains revisit configurations
    often: about 95% of calls at p = 20) within a budget of :data:`MEMO_MB`.
    A subclass calls ``super().__init__(width)`` with the indicator count
    and implements the four hooks; ``_refactor`` and ``_move`` return False
    when the configuration they reach is inadmissible.
    """

    def __init__(self, width: int):
        self._cache: dict[bytes, float] = {}
        self._cache_cap = memo_capacity(width)
        self._current: np.ndarray | None = None
        self._stale = True
        self._anchored = False
        self._pending: list[int] = []

    def begin_sweep(self, x: np.ndarray) -> None:
        """Mark ``x`` as the current configuration at a sweep's start."""
        self._current = x.copy()
        self._stale = True
        self._pending.clear()

    def accept_flip(self, x: np.ndarray, j: int) -> None:
        """Mark ``x``, the previous configuration with bit j flipped, as current."""
        self._current = x.copy()
        if not self._stale:
            self._pending.append(j)

    def log_marginal(self, x: np.ndarray) -> float:
        key = x.tobytes()
        try:
            return self._cache[key]
        except KeyError:
            pass
        value = self._evaluate(x)
        if len(self._cache) >= self._cache_cap:
            self._cache.clear()
        self._cache[key] = value
        return value

    def _evaluate(self, x: np.ndarray) -> float:
        j = self._flip_from_anchor(x)
        if j is None:
            return self._evaluate_full(x)
        return self._neighbour(j)

    def _flip_from_anchor(self, x: np.ndarray) -> int | None:
        """The one bit in which ``x`` differs from the current configuration,
        with the anchor brought up to date; None when the full route must be
        taken."""
        if self._current is None:
            return None
        diff = np.flatnonzero(x != self._current)
        if diff.shape[0] != 1:
            return None
        if self._stale:
            self._anchored = self._refactor(self._current)
            self._stale = False
        elif self._anchored:
            for j in self._pending:
                if not self._move(j):
                    self._anchored = False
                    break
        self._pending.clear()
        if not self._anchored:
            return None
        return int(diff[0])

    def _evaluate_full(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _refactor(self, x: np.ndarray) -> bool:
        raise NotImplementedError

    def _move(self, j: int) -> bool:
        raise NotImplementedError

    def _neighbour(self, j: int) -> float:
        raise NotImplementedError


class FusionKernel(AnchoredKernel):
    """Marginal-likelihood evaluator for one dataset.

    Under the g-prior the evidence of a configuration depends only on its
    block count and on the fit r'G^{-1}r of the merged design, with G the
    merged gram and r the merged X'y; the posterior precision is G plus a
    rank-one correction. Two prefix tables, built once, give any block-pair
    gram entry or block X'y in O(1): a (p+1)x(p+1) 2-D prefix sum of X'X
    and a cumulative sum of X'y.

    The anchor (see :class:`AnchoredKernel`) holds the current
    configuration's block edges, G^{-1}, beta = G^{-1} r and the fit r'beta.
    A configuration one flip away is then scored without a factorisation:

    - merging blocks b and b+1 costs O(1): the fit drops by
      (beta_b - beta_{b+1})^2 / (a'G^{-1}a) with a = e_b - e_{b+1};
    - splitting block b adds one column w (the columns after the split),
      O(k^2): with v = X_f'w, s = w'w - v'G^{-1}v the fit grows by
      (w'y - v'beta)^2 / s, and sqrt(s) <= RANK_TOL times the sum of w's
      column norms is inadmissible.

    Refactoring costs an O(k^2) gather from the prefix table plus an O(k^3)
    Cholesky; an accepted flip moves the anchor in O(k^2). Configurations
    that are not one flip from the sweep's current one (a fresh kernel's
    first call, :func:`delta_conditional_prob`, enumeration) take the full
    route: gather plus Cholesky.
    """

    def __init__(self, data: Dataset, hyper: HyperParams):
        data.validate()
        self.data = data
        self.hyper = hyper
        X = data.X
        y = data.y
        self.n, self.p = X.shape
        self.gram = X.T @ X
        self.xty = X.T @ y
        self.yty = float(y @ y)
        # Both are invariant under block merging: the all-ones direction.
        self.total_xty = float(self.xty.sum())
        self.total_gram = float(self.gram.sum())
        self.g = float(hyper.g)
        self._const = gammaln(0.5 * self.n) - 0.5 * (self.n - 1) * LOG_2PI
        p = self.p
        super().__init__(p - 1)
        self._gram_prefix = np.zeros((p + 1, p + 1))
        self._gram_prefix[1:, 1:] = self.gram.cumsum(axis=0).cumsum(axis=1)
        self._xty_prefix = np.concatenate(([0.0], self.xty.cumsum()))
        self._norm_prefix = np.concatenate(([0.0], np.sqrt(np.diagonal(self.gram)).cumsum()))
        self._bounds = np.ones(p + 1, dtype=np.uint8)  # 1, delta, 1
        # Anchor: block edges, G^{-1}, beta and fit.
        self._edges: np.ndarray | None = None
        self._ginv = self._beta = None
        self._fit = 0.0

    def _merged(self, delta: np.ndarray):
        boundaries = np.flatnonzero(delta) + 1
        starts = np.concatenate(([0], boundaries))
        gram = np.add.reduceat(np.add.reduceat(self.gram, starts, axis=0), starts, axis=1)
        rhs = np.add.reduceat(self.xty, starts)
        return starts, gram, rhs

    def posterior(self, delta: np.ndarray):
        """(blocks, precision_chol, mean, scale) for drawing sigma2/beta."""
        g = self.g
        starts, gram, rhs = self._merged(delta)
        v = gram.sum(axis=1)
        precision = ((g + 1.0) / g) * gram - np.outer(v, v) / (g * self.total_gram)
        try:
            L, _ = cho_factor(precision, lower=True)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(
                f"posterior precision not PD for delta={delta}"
            ) from exc
        mean = cho_solve((L, True), rhs)
        scale = 0.5 * (self.yty - float(rhs @ mean))
        stops = np.concatenate((starts[1:], [self.p]))
        blocks = tuple(zip(starts.tolist(), stops.tolist()))
        return blocks, L, mean, scale

    def _neighbour(self, j: int) -> float:
        b, merge = self._locate(j)
        k = self._edges.shape[0] - 1
        if merge:
            C, beta = self._ginv, self._beta
            d = C[b, b] + C[b + 1, b + 1] - 2.0 * C[b, b + 1]
            diff = beta[b] - beta[b + 1]
            return self._evidence(k - 2, self._fit - diff * diff / d)
        split = self._split(b, j)
        if split is None:
            return -np.inf
        _, s, q = split
        return self._evidence(k, self._fit + q * q / s)

    def _evidence(self, p1: int, fit: float) -> float:
        g = self.g
        shrunk = (g / (g + 1.0)) * fit + self.total_xty**2 / (self.total_gram * (g + 1.0))
        scale = 0.5 * (self.yty - shrunk)
        if scale <= 0.0:
            return -np.inf
        return (
            self._const
            - 0.5 * (p1 * math.log(g + 1.0) + math.log(self.total_gram))
            - 0.5 * self.n * math.log(scale)
        )

    def _evaluate_full(self, delta: np.ndarray) -> float:
        factor = self._factor(self._edges_of(delta))
        if factor is None:
            return -np.inf
        L, rhs = factor
        x, _ = dpotrs(L, rhs, lower=1)
        return self._evidence(int(delta.sum()), float(rhs @ x))

    def _edges_of(self, delta: np.ndarray) -> np.ndarray:
        """Block edges 0 = e_0 < e_1 < ... < e_k = p of a configuration."""
        self._bounds[1:-1] = delta
        return np.flatnonzero(self._bounds)

    def _factor(self, edges: np.ndarray):
        """(lower Cholesky factor of G, r) read from the prefix tables, or
        None when the configuration is inadmissible."""
        rows = self._gram_prefix.take(edges, axis=0)
        rows = rows[1:] - rows[:-1]
        Q = rows.take(edges, axis=1)
        L, info = dpotrf(Q[:, 1:] - Q[:, :-1], lower=1)
        if info != 0:
            return None
        norms = self._norm_prefix.take(edges)
        if (L.diagonal() <= RANK_TOL * (norms[1:] - norms[:-1])).any():
            return None
        rhs = self._xty_prefix.take(edges)
        return L, rhs[1:] - rhs[:-1]

    def _refactor(self, delta: np.ndarray) -> bool:
        edges = self._edges_of(delta)
        factor = self._factor(edges)
        if factor is None:
            return False
        L, rhs = factor
        Linv, _ = dtrtri(L, lower=1)
        self._edges = edges
        self._ginv = Linv.T @ Linv
        self._beta = self._ginv @ rhs
        self._fit = float(rhs @ self._beta)
        return True

    def _locate(self, j: int) -> tuple[int, bool]:
        """(b, True) when bit j separates blocks b and b+1 of the anchor,
        (b, False) when index j lies inside block b with j+1 in it too."""
        edges = self._edges
        i = int(edges.searchsorted(j + 1))
        return i - 1, bool(edges[i] == j + 1)

    def _split(self, b: int, j: int):
        """(G^{-1}v, s, w'y - v'beta) for splitting block b after index j,
        with w the sum of columns j+1 .. end of block and v = X_f'w; None
        when the split is inadmissible."""
        e, s0 = int(self._edges[b + 1]), j + 1
        P = self._gram_prefix
        x = (P[e] - P[s0]).take(self._edges)
        c = (P[e, e] - P[s0, e]) - (P[e, s0] - P[s0, s0])
        t = self._xty_prefix[e] - self._xty_prefix[s0]
        u, s, q = border_terms(self._ginv, self._beta, x[1:] - x[:-1], c, t)
        if s <= (RANK_TOL * (self._norm_prefix[e] - self._norm_prefix[s0])) ** 2:
            return None
        return u, s, q

    def _move(self, j: int) -> bool:
        """Apply the flip of bit j to the anchor in O(k^2)."""
        b, merge = self._locate(j)
        C, beta, edges = self._ginv, self._beta, self._edges
        k = edges.shape[0] - 1
        if merge:
            # Constrained least squares with beta_b = beta_{b+1}; the rows
            # b and b+1 of the updated inverse agree, so b+1 is dropped.
            h = C[:, b] - C[:, b + 1]
            ginv, self._beta, drop = constrained_update(
                C, beta, h, h[b] - h[b + 1], beta[b] - beta[b + 1], b + 1
            )
            self._fit -= drop
            self._edges = np.concatenate((edges[:b + 1], edges[b + 2:]))
        else:
            split = self._split(b, j)
            if split is None:
                return False
            u, s, q = split
            # Bordered inverse for [X_f, w], then the change of basis
            # x_b -> x_b - w, w -> the new block b+1 whose coefficient is
            # beta_b + gamma: index b is duplicated and w folded into b+1.
            gamma = q / s
            dup = np.arange(k + 1)
            dup[b + 1:] -= 1
            ginv = (C + np.outer(u, u / s)).take(dup, axis=0).take(dup, axis=1)
            border = (u / -s).take(dup)
            ginv[:, b + 1] += border
            ginv[b + 1, :] += border
            ginv[b + 1, b + 1] += 1.0 / s
            self._beta = (beta - u * gamma).take(dup)
            self._beta[b + 1] += gamma
            self._fit += q * q / s
            self._edges = np.concatenate((edges[:b + 1], [j + 1], edges[b + 1:]))
        self._ginv = ginv
        return True


def log_marginal_likelihood(
    data: Dataset, delta: FusionIndicator | np.ndarray, hyper: HyperParams
) -> float:
    """Log evidence of the response given a fusion configuration.

    A one-shot call into :class:`FusionKernel`, so it follows the rule the
    sampler runs: -inf for a configuration whose merged design fails the
    :data:`RANK_TOL` cut, and for a degenerate zero response.
    """
    if not isinstance(delta, FusionIndicator):
        delta = FusionIndicator(np.asarray(delta))
    if delta.p != data.p:
        raise ValueError(f"delta has length {delta.p - 1}, expected {data.p - 1}")
    return FusionKernel(data, hyper).log_marginal(delta.delta)


# ---------------------------------------------------------------------------
# Conditional draws
# ---------------------------------------------------------------------------

def _bernoulli_prob_one(log_ml_one: float, log_ml_zero: float, omega: float) -> float:
    """P(indicator = 1) from the two branch evidences, in log space."""
    if omega <= 0.0:
        return 0.0
    if omega >= 1.0:
        return 1.0
    one_ok = log_ml_one > -np.inf
    zero_ok = log_ml_zero > -np.inf
    if not one_ok and not zero_ok:
        raise InadmissibleState("both branches have zero evidence")
    if not zero_ok:
        return 1.0
    if not one_ok:
        return 0.0
    logit = math.log(omega / (1.0 - omega)) + log_ml_one - log_ml_zero
    if logit >= 0.0:
        return 1.0 / (1.0 + math.exp(-min(logit, 700.0)))
    return math.exp(max(logit, -700.0)) / (1.0 + math.exp(max(logit, -700.0)))


def delta_conditional_prob(
    data: Dataset,
    delta: FusionIndicator | np.ndarray,
    j: int,
    omega: float,
    hyper: HyperParams,
) -> float:
    """Full conditional P(delta_j = 1 | rest of delta, y, omega)."""
    d = (delta.delta if isinstance(delta, FusionIndicator) else np.asarray(delta)).astype(np.uint8)
    if not 0 <= j < d.shape[0]:
        raise IndexError(f"index {j} out of range for {d.shape[0]} boundaries")
    kernel = FusionKernel(data, hyper)
    one = d.copy()
    one[j] = 1
    zero = d.copy()
    zero[j] = 0
    return _bernoulli_prob_one(kernel.log_marginal(one), kernel.log_marginal(zero), omega)


def sample_omega(rng: np.random.Generator, p1: int, p: int, hyper: HyperParams) -> float:
    """One Beta draw of the boundary inclusion probability."""
    return float(rng.beta(hyper.a_omega + p1, hyper.b_omega + (p - 1) - p1))


def sample_sigma2(rng: np.random.Generator, n: int, scale: float) -> float:
    """One inverse-gamma draw of the error variance, shape n/2."""
    if scale <= 0.0:
        raise DegenerateScale(f"inverse-gamma scale must be positive, got {scale}")
    return float(scale / rng.gamma(0.5 * n))


def sample_beta(
    rng: np.random.Generator,
    blocks,
    precision_chol: np.ndarray,
    mean: np.ndarray,
    sigma2: float,
) -> np.ndarray:
    """Draw the block coefficients and expand to the full length-p vector.

    The pieces are those :meth:`FusionKernel.posterior` returns; only the
    lower triangle of ``precision_chol`` is read. Expansion copies each
    block value to every index of its block, so fused coefficients are
    bit-identical within a draw.
    """
    z = rng.standard_normal(precision_chol.shape[0])
    draw = mean + math.sqrt(sigma2) * solve_triangular(precision_chol, z, lower=True, trans="T")
    return np.repeat(draw, block_sizes(blocks))


def flip_loop(x: np.ndarray, omega: float, kernel: AnchoredKernel, rng: np.random.Generator) -> np.ndarray:
    """Single-site Gibbs pass over the bits of ``x`` in a random order.

    Each bit is drawn from its Bernoulli full conditional, prior odds
    omega / (1 - omega) times the evidence ratio of the two configurations
    that differ in it. Stream order: the permutation, then one uniform per
    bit. ``x`` is not modified; the returned array is the new configuration.
    """
    order = rng.permutation(x.shape[0])
    kernel.begin_sweep(x)
    cur = kernel.log_marginal(x)
    for j in order:
        flipped = x.copy()
        flipped[j] ^= 1
        other = kernel.log_marginal(flipped)
        if x[j] == 1:
            ml_one, ml_zero = cur, other
        else:
            ml_one, ml_zero = other, cur
        prob_one = _bernoulli_prob_one(ml_one, ml_zero, omega)
        new_bit = 1 if rng.random() < prob_one else 0
        if new_bit != x[j]:
            x = flipped
            cur = other
            kernel.accept_flip(x, j)
    return x


def _sweep(
    delta: np.ndarray,
    omega: float,
    kernel: FusionKernel,
    hyper: HyperParams,
    rng: np.random.Generator,
) -> GibbsState:
    """One full Gibbs sweep; returns a fresh state.

    Stream order: boundary permutation, per-boundary uniforms, sigma2,
    omega, beta.
    """
    delta = flip_loop(delta, omega, kernel, rng)
    blocks, L, mean, scale = kernel.posterior(delta)
    sigma2 = sample_sigma2(rng, kernel.n, scale)
    omega = sample_omega(rng, int(delta.sum()), kernel.p, hyper)
    beta = sample_beta(rng, blocks, L, mean, sigma2)
    return GibbsState(delta=delta, omega=omega, sigma2=sigma2, beta=beta)


def gibbs_sweep(
    state: GibbsState,
    data: Dataset,
    hyper: HyperParams,
    rng: np.random.Generator,
    kernel: FusionKernel | None = None,
) -> GibbsState:
    """Advance the chain by one sweep from the given state."""
    if kernel is None:
        kernel = FusionKernel(data, hyper)
    return _sweep(np.asarray(state.delta, dtype=np.uint8).copy(), state.omega, kernel, hyper, rng)


def initial_state(data: Dataset, hyper: HyperParams, kernel: FusionKernel | None = None) -> GibbsState:
    """Deterministic start: no fusion, prior-mean omega, posterior-mean beta.

    When the unfused design is singular the chain starts fully fused
    instead; the sweep's anchor needs an admissible start.
    """
    if kernel is None:
        kernel = FusionKernel(data, hyper)
    delta = np.ones(data.p - 1, dtype=np.uint8)
    if kernel.log_marginal(delta) == -np.inf:
        delta = np.zeros(data.p - 1, dtype=np.uint8)
        if kernel.log_marginal(delta) == -np.inf:
            raise SingularDesign("design matrix is singular at the no-fusion and fully fused starts")
    blocks, _, mean, _ = kernel.posterior(delta)
    beta = np.repeat(mean, block_sizes(blocks))
    return GibbsState(
        delta=delta,
        omega=hyper.a_omega / (hyper.a_omega + hyper.b_omega),
        sigma2=float(np.var(data.y)) or 1.0,
        beta=beta,
    )


def run_chain(data: Dataset, hyper: HyperParams, config: SamplerConfig) -> Chain:
    """Run the fusion Gibbs sampler and return the post-burn-in draws."""
    kernel = FusionKernel(data, hyper)
    rng = np.random.default_rng(config.seed)
    state = initial_state(data, hyper, kernel)
    kept = config.total_iterations - config.burn_in
    p = data.p
    delta_draws = np.empty((kept, p - 1), dtype=np.uint8)
    beta_draws = np.empty((kept, p))
    sigma2_draws = np.empty(kept)
    omega_draws = np.empty(kept)
    delta = state.delta.copy()
    omega = state.omega
    for it in range(config.total_iterations):
        state = _sweep(delta, omega, kernel, hyper, rng)
        delta, omega = state.delta, state.omega
        keep = it - config.burn_in
        if keep >= 0:
            delta_draws[keep] = state.delta
            beta_draws[keep] = state.beta
            sigma2_draws[keep] = state.sigma2
            omega_draws[keep] = state.omega
    meta = {
        "seed": config.seed,
        "total_iterations": config.total_iterations,
        "burn_in": config.burn_in,
        "n": data.n,
        "p": data.p,
        "g": hyper.g,
        "a_omega": hyper.a_omega,
        "b_omega": hyper.b_omega,
        "kind": "fusion",
    }
    return Chain(
        delta=delta_draws,
        beta=beta_draws,
        sigma2=sigma2_draws,
        omega=omega_draws,
        meta=meta,
    )


def summarize(chain: Chain, threshold: float = 0.5) -> PosteriorSummary:
    """Posterior means, boundary probabilities and thresholded partition."""
    if len(chain) == 0:
        raise EmptyChain("cannot summarize an empty chain")
    delta_prob = chain.delta.mean(axis=0)
    partition = partition_from_delta((delta_prob > threshold).astype(np.uint8))
    return PosteriorSummary(
        beta_mean=chain.beta.mean(axis=0),
        delta_prob=delta_prob,
        partition_est=partition,
        sigma2_mean=float(chain.sigma2.mean()),
        omega_mean=float(chain.omega.mean()),
        threshold=threshold,
    )
