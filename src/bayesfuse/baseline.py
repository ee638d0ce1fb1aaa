"""Classical spike-and-slab variable selection sampler.

Dirac spike at zero with one of three conjugate slab families on the
active coefficients. Serves as a comparison baseline for the fusion
sampler and as a cross-check on the shared conjugate machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri
from scipy.special import gammaln

from .model import (
    Chain,
    Dataset,
    EmptyChain,
    HyperParams,
    SingularDesign,
)
from .sampler import (
    LOG_2PI,
    RANK_TOL,
    AnchoredKernel,
    SamplerConfig,
    border_terms,
    constrained_update,
    flip_loop,
    sample_sigma2,
)


@dataclass(frozen=True)
class ISlab:
    """Independence slab: prior covariance scale * identity."""

    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("i-slab scale must be positive and finite")


@dataclass(frozen=True)
class GSlab:
    """Zellner g-prior slab: covariance scale * (X'X)^-1."""

    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("g-slab scale must be positive and finite")


@dataclass(frozen=True)
class FSlab:
    """Fractional slab: data-centered prior with covariance (1/fraction) * (X'X)^-1.

    The prior mean is the least-squares estimate of the active block.
    The conjugate update then gives posterior covariance
    (1/(1+fraction)) (X'X)^-1, not (X'X)^-1; the latter drops the
    shrinkage factor and breaks the evidence identity.
    """

    fraction: float

    def __post_init__(self):
        if not (math.isfinite(self.fraction) and self.fraction > 0):
            raise ValueError("f-slab fraction must be positive and finite")


Slab = Union[ISlab, GSlab, FSlab]


@dataclass(frozen=True)
class SelectionFactors:
    """Posterior pieces for one inclusion configuration."""

    precision_chol: np.ndarray
    mean: np.ndarray
    scale: float
    active: np.ndarray


class SelectionKernel(AnchoredKernel):
    """Evidence evaluator for the selection model, on the fusion kernel's core.

    With A the active set, every slab's evidence depends on the configuration
    only through p0 = |A| and the fit r_A'M^{-1}r_A of M = G_A + lambda*I
    (lambda = 1/c for ``ISlab``, 0 otherwise), plus log|M| for ``ISlab``:

        const - p0/2 * pi - [ISlab] log|M| / 2 - n/2 * log((y'y - kappa*fit) / 2)

    with (pi, kappa) = (log c, 1) for ``ISlab``, (log(g+1), g/(g+1)) for
    ``GSlab`` and (log((1+b)/b), 1) for ``FSlab``; the log|G_A| terms of the
    g and fractional slabs cancel.

    :class:`~bayesfuse.sampler.AnchoredKernel` supplies the memo, the sweep
    position and the lazy anchor. The anchor holds the current active set,
    C = M^{-1}, beta = C r_A, the fit r_A'beta and log|M| (weighted 0 in the
    evidence of the g and fractional slabs). A configuration one flip away
    is scored without a factorisation:

    - dropping the predictor at position i costs O(1): the fit drops by
      beta_i^2 / C_ii and log|M| grows by log C_ii (the fusion merge's
      constrained step with a = e_i);
    - adding predictor j costs O(k^2): with v = M[A, j], u = Cv and the Schur
      complement s = M_jj - v'u, the fit grows by (x_j'y - v'beta)^2 / s and
      log|M| by log s (the fusion split's bordered column).

    For ``GSlab`` and ``FSlab`` a column whose residual norm after
    projection on the active ones is at most ``RANK_TOL`` times its own norm
    makes the configuration inadmissible (-inf): sqrt(s) on an add, the
    Cholesky pivot on the full route. Refactoring (once per sweep, at its
    first memo miss) and the full route cost an O(k^2) gather plus an O(k^3)
    Cholesky; an accepted flip moves the anchor in O(k^2).

    :meth:`factors` gives the posterior pieces the sweep draws beta from.
    """

    def __init__(self, data: Dataset, slab: Slab):
        data.validate()
        self.data = data
        self.slab = slab
        self.n, self.p = data.X.shape
        self.gram = data.X.T @ data.X
        self.xty = data.X.T @ data.y
        self.yty = float(data.y @ data.y)
        self._const = gammaln(0.5 * self.n) - 0.5 * self.n * LOG_2PI
        super().__init__(self.p)
        if isinstance(slab, ISlab):
            self._ridge, self._penalty, self._kappa = 1.0 / slab.scale, math.log(slab.scale), 1.0
            self._det_weight = 1.0
            self._tol = np.zeros(self.p)
        else:
            if isinstance(slab, GSlab):
                g = slab.scale
                self._penalty, self._kappa = math.log(g + 1.0), g / (g + 1.0)
            else:
                b = slab.fraction
                self._penalty, self._kappa = math.log((1.0 + b) / b), 1.0
            self._ridge = self._det_weight = 0.0
            self._tol = RANK_TOL * np.sqrt(np.diagonal(self.gram))
        # Anchor: active set, M^{-1}, beta, fit and log|M|.
        self._active = self._ginv = self._beta = None
        self._fit = self._logdet = 0.0

    def factors(self, xi: np.ndarray) -> SelectionFactors:
        active = np.flatnonzero(xi)
        p0 = active.shape[0]
        if p0 == 0:
            return SelectionFactors(
                precision_chol=np.zeros((0, 0)),
                mean=np.zeros(0),
                scale=0.5 * self.yty,
                active=active,
            )
        gram = self.gram[np.ix_(active, active)]
        rhs = self.xty[active]
        slab = self.slab
        if isinstance(slab, ISlab):
            precision = gram + np.eye(p0) / slab.scale
            full_rhs = rhs
            prior_quad = 0.0
        elif isinstance(slab, GSlab):
            precision = gram * (1.0 + 1.0 / slab.scale)
            full_rhs = rhs
            prior_quad = 0.0
        else:
            try:
                gram_factor = cho_factor(gram, lower=True)
            except np.linalg.LinAlgError as exc:
                raise SingularDesign("active design is rank deficient") from exc
            b = slab.fraction
            # Prior mean is the least-squares fit; its precision-weighted
            # contribution is b * X'y, so the combined rhs is (1+b) X'y.
            precision = gram * (1.0 + b)
            full_rhs = (1.0 + b) * rhs
            ls = cho_solve(gram_factor, rhs)
            prior_quad = b * float(rhs @ ls)
        try:
            L, _ = cho_factor(precision, lower=True)
        except np.linalg.LinAlgError as exc:
            raise SingularDesign("posterior precision not PD") from exc
        mean = cho_solve((L, True), full_rhs)
        scale = 0.5 * (self.yty + prior_quad - float(full_rhs @ mean))
        return SelectionFactors(precision_chol=L, mean=mean, scale=scale, active=active)

    def _evidence(self, p0: int, fit: float, logdet: float) -> float:
        scale = 0.5 * (self.yty - self._kappa * fit)
        if scale <= 0.0:
            return -np.inf
        return (
            self._const
            - 0.5 * (p0 * self._penalty + self._det_weight * logdet)
            - 0.5 * self.n * math.log(scale)
        )

    def _factor(self, active: np.ndarray):
        """(lower Cholesky factor of M, r_A) for a non-empty active set, or
        None when the configuration is inadmissible."""
        M = self.gram.take(active, axis=0).take(active, axis=1)
        M.flat[:: active.shape[0] + 1] += self._ridge
        L, info = dpotrf(M, lower=1)
        if info != 0 or (L.diagonal() <= self._tol.take(active)).any():
            return None
        return L, self.xty.take(active)

    @staticmethod
    def _logdet_of(L: np.ndarray) -> float:
        return 2.0 * float(np.log(L.diagonal()).sum())

    def _evaluate_full(self, xi: np.ndarray) -> float:
        active = np.flatnonzero(xi)
        if active.shape[0] == 0:
            return self._evidence(0, 0.0, 0.0)
        factor = self._factor(active)
        if factor is None:
            return -np.inf
        L, rhs = factor
        x, _ = dpotrs(L, rhs, lower=1)
        return self._evidence(active.shape[0], float(rhs @ x), self._logdet_of(L))

    def _refactor(self, xi: np.ndarray) -> bool:
        active = np.flatnonzero(xi)
        if active.shape[0] == 0:
            self._ginv, self._beta = np.zeros((0, 0)), np.zeros(0)
            self._fit = self._logdet = 0.0
        else:
            factor = self._factor(active)
            if factor is None:
                return False
            L, rhs = factor
            Linv, _ = dtrtri(L, lower=1)
            self._ginv = Linv.T @ Linv
            self._beta = self._ginv @ rhs
            self._fit = float(rhs @ self._beta)
            self._logdet = self._logdet_of(L)
        self._active = active
        return True

    def _locate(self, j: int) -> tuple[int, bool]:
        """(i, True) when predictor j is active at position i of the anchor,
        (i, False) when it is inactive and would be inserted at position i."""
        active = self._active
        i = int(active.searchsorted(j))
        return i, i < active.shape[0] and active[i] == j

    def _add(self, j: int):
        """(C v, s, x_j'y - v'beta) for adding predictor j, or None when the
        add is inadmissible."""
        v = self.gram[j].take(self._active)
        u, s, q = border_terms(self._ginv, self._beta, v, self.gram[j, j] + self._ridge, self.xty[j])
        if s <= self._tol[j] ** 2:
            return None
        return u, s, q

    def _neighbour(self, j: int) -> float:
        i, drop = self._locate(j)
        p0 = self._active.shape[0]
        if drop:
            d = self._ginv[i, i]
            b = self._beta[i]
            return self._evidence(p0 - 1, self._fit - b * b / d, self._logdet + math.log(d))
        add = self._add(j)
        if add is None:
            return -np.inf
        _, s, q = add
        return self._evidence(p0 + 1, self._fit + q * q / s, self._logdet + math.log(s))

    def _move(self, j: int) -> bool:
        """Apply the flip of predictor j to the anchor in O(k^2)."""
        i, drop = self._locate(j)
        C, beta, active = self._ginv, self._beta, self._active
        if drop:
            d = C[i, i]
            self._ginv, self._beta, dfit = constrained_update(C, beta, C[:, i], d, beta[i], i)
            self._fit -= dfit
            self._logdet += math.log(d)
            self._active = np.concatenate((active[:i], active[i + 1:]))
            return True
        add = self._add(j)
        if add is None:
            return False
        u, s, q = add
        # Bordered inverse with the new column last, then moved to its
        # sorted position i.
        k = active.shape[0]
        gamma = q / s
        border = u / -s
        ext = np.empty((k + 1, k + 1))
        ext[:k, :k] = C + np.outer(u, u / s)
        ext[:k, k] = border
        ext[k, :k] = border
        ext[k, k] = 1.0 / s
        order = np.concatenate((np.arange(i), [k], np.arange(i, k)))
        self._ginv = ext.take(order, axis=0).take(order, axis=1)
        self._beta = np.concatenate((beta - u * gamma, [gamma])).take(order)
        self._fit += q * q / s
        self._logdet += math.log(s)
        self._active = np.concatenate((active[:i], [j], active[i:]))
        return True


def selection_posterior_factors(data: Dataset, xi: np.ndarray, slab: Slab) -> SelectionFactors:
    """Posterior covariance factor, mean and error scale for one configuration."""
    return SelectionKernel(data, slab).factors(np.asarray(xi, dtype=np.uint8))


def selection_log_marginal(data: Dataset, xi: np.ndarray, slab: Slab) -> float:
    """Log evidence of the response given an inclusion configuration."""
    return SelectionKernel(data, slab).log_marginal(np.asarray(xi, dtype=np.uint8))


def _selection_sweep(
    xi: np.ndarray,
    omega: float,
    kernel: SelectionKernel,
    hyper: HyperParams,
    rng: np.random.Generator,
):
    """One sweep: the shared flip loop, then sigma2, omega and beta."""
    p = xi.shape[0]
    xi = flip_loop(xi, omega, kernel, rng)
    factors = kernel.factors(xi)
    sigma2 = sample_sigma2(rng, kernel.n, factors.scale)
    p0 = int(xi.sum())
    omega = float(rng.beta(hyper.a_omega + p0, hyper.b_omega + p - p0))
    beta = np.zeros(p)
    if p0 > 0:
        z = rng.standard_normal(p0)
        beta[factors.active] = factors.mean + math.sqrt(sigma2) * solve_triangular(
            factors.precision_chol, z, lower=True, trans="T"
        )
    return xi, omega, sigma2, beta


def selection_gibbs(
    data: Dataset, slab: Slab, hyper: HyperParams, config: SamplerConfig
) -> Chain:
    """Run the selection Gibbs sampler; inactive coefficients are exact zeros."""
    kernel = SelectionKernel(data, slab)
    rng = np.random.default_rng(config.seed)
    p = data.p
    xi = np.ones(p, dtype=np.uint8)
    if kernel.log_marginal(xi) == -np.inf:
        # Full model inadmissible (e.g. p > n with g/f-slab): start empty.
        xi = np.zeros(p, dtype=np.uint8)
    omega = hyper.a_omega / (hyper.a_omega + hyper.b_omega)
    kept = config.total_iterations - config.burn_in
    xi_draws = np.empty((kept, p), dtype=np.uint8)
    beta_draws = np.empty((kept, p))
    sigma2_draws = np.empty(kept)
    omega_draws = np.empty(kept)
    for it in range(config.total_iterations):
        xi, omega, sigma2, beta = _selection_sweep(xi, omega, kernel, hyper, rng)
        keep = it - config.burn_in
        if keep >= 0:
            xi_draws[keep] = xi
            beta_draws[keep] = beta
            sigma2_draws[keep] = sigma2
            omega_draws[keep] = omega
    meta = {
        "seed": config.seed,
        "total_iterations": config.total_iterations,
        "burn_in": config.burn_in,
        "n": data.n,
        "p": data.p,
        "a_omega": hyper.a_omega,
        "b_omega": hyper.b_omega,
        "slab": repr(slab),
        "kind": "selection",
    }
    return Chain(
        delta=xi_draws,
        beta=beta_draws,
        sigma2=sigma2_draws,
        omega=omega_draws,
        meta=meta,
    )


@dataclass(frozen=True)
class SelectionSummary:
    beta_mean: np.ndarray
    xi_prob: np.ndarray
    sigma2_mean: float
    omega_mean: float


def summarize_selection(chain: Chain) -> SelectionSummary:
    if len(chain) == 0:
        raise EmptyChain("cannot summarize an empty chain")
    return SelectionSummary(
        beta_mean=chain.beta.mean(axis=0),
        xi_prob=chain.delta.mean(axis=0),
        sigma2_mean=float(chain.sigma2.mean()),
        omega_mean=float(chain.omega.mean()),
    )
