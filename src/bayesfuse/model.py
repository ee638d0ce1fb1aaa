"""Core value types, preprocessing and partition utilities.

Everything in this module is a plain immutable value object or a pure
function; the MCMC machinery lives in :mod:`bayesfuse.sampler` and
:mod:`bayesfuse.baseline`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class BayesFuseError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(BayesFuseError):
    pass


class ConstantColumn(BayesFuseError):
    """A predictor column is constant (zero after centering)."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} is constant after centering")


class SingularDesign(BayesFuseError):
    """The merged design matrix does not have full column rank."""


class SingularSystem(BayesFuseError):
    """The posterior precision matrix failed its Cholesky factorization."""


class InadmissibleState(BayesFuseError):
    """No admissible configuration exists at the index being updated."""


class DegenerateScale(BayesFuseError):
    """Inverse-gamma scale is non-positive."""


class EmptyChain(BayesFuseError):
    pass


class EmptyInput(BayesFuseError):
    pass


class DegenerateGroups(BayesFuseError):
    """True grouping has as many groups as coefficients."""


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperParams:
    """Hyper-parameters shared by the fusion and selection samplers.

    ``g`` scales the g-prior covariance; ``a_omega``/``b_omega`` are the
    Beta parameters of the inclusion probability.
    """

    g: float
    a_omega: float = 1.0
    b_omega: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.g, self.a_omega, self.b_omega)):
            raise ValueError("g, a_omega and b_omega must all be positive and finite")


@dataclass(frozen=True)
class Dataset:
    """Response vector and design matrix, with preprocessing state.

    ``col_scale``/``col_mean``/``y_mean`` record the standardization
    transform so that estimates can be mapped back to the raw scale; they
    are identity values when ``standardized`` is False.
    """

    y: np.ndarray
    X: np.ndarray
    standardized: bool = False
    col_scale: np.ndarray | None = None
    col_mean: np.ndarray | None = None
    y_mean: float = 0.0

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def validate(self) -> None:
        y, X = self.y, self.X
        if y.ndim != 1 or X.ndim != 2:
            raise DimensionMismatch("y must be a vector and X a matrix")
        if y.shape[0] != X.shape[0]:
            raise DimensionMismatch(
                f"y has {y.shape[0]} rows but X has {X.shape[0]}"
            )
        n, p = X.shape
        if n < 2 or p < 2:
            raise DimensionMismatch("need n >= 2 and p >= 2")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise ValueError("non-finite entries in data")
        if self.standardized:
            col_sums = X.sum(axis=0)
            col_sq = (X * X).sum(axis=0)
            if np.any(np.abs(col_sums) > 1e-8 * n):
                raise ValueError("standardized columns must sum to zero")
            if np.any(np.abs(col_sq - n) > 1e-6 * n):
                raise ValueError("standardized columns must have sum of squares n")
            if abs(y.sum()) > 1e-8 * n:
                raise ValueError("standardized response must sum to zero")


@dataclass(frozen=True)
class FusionIndicator:
    """Bit vector over the p-1 adjacent coefficient pairs.

    A zero at position j fuses coefficients j and j+1; the ones mark the
    boundaries of a contiguous block partition of the p coefficients.
    """

    delta: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=np.uint8)
        if d.ndim != 1:
            raise DimensionMismatch("delta must be a vector")
        if not np.all((d == 0) | (d == 1)):
            raise ValueError("delta entries must be 0 or 1")
        object.__setattr__(self, "delta", d)

    @property
    def p(self) -> int:
        return self.delta.shape[0] + 1

    @property
    def p1(self) -> int:
        return int(self.delta.sum())


@dataclass(frozen=True)
class GibbsState:
    """One draw of (delta, omega, sigma2, beta)."""

    delta: np.ndarray
    omega: float
    sigma2: float
    beta: np.ndarray


@dataclass(frozen=True)
class Chain:
    """Post-burn-in draws, stored column-wise for compactness.

    ``delta`` holds the fusion indicators (one row per draw); for the
    selection sampler the same slot carries the length-p inclusion bits.
    """

    delta: np.ndarray
    beta: np.ndarray
    sigma2: np.ndarray
    omega: np.ndarray
    meta: dict

    def __len__(self) -> int:
        return self.beta.shape[0]

    @property
    def draws(self) -> Iterator[GibbsState]:
        for i in range(len(self)):
            yield GibbsState(
                delta=self.delta[i],
                omega=float(self.omega[i]),
                sigma2=float(self.sigma2[i]),
                beta=self.beta[i],
            )


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior means, per-boundary inclusion probabilities and the
    thresholded block partition."""

    beta_mean: np.ndarray
    delta_prob: np.ndarray
    partition_est: tuple[tuple[int, int], ...]
    sigma2_mean: float
    omega_mean: float
    threshold: float = 0.5


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def standardize(raw_y: np.ndarray, raw_X: np.ndarray) -> Dataset:
    """Center the response and scale predictors to sum-of-squares n.

    Each column is centered and divided by its root mean square, so the
    returned design satisfies sum(x_j) = 0 and sum(x_j^2) = n exactly
    (up to rounding). Raises :class:`ConstantColumn` if a centered
    column is identically zero.
    """
    y = np.asarray(raw_y, dtype=float).ravel()
    X = np.asarray(raw_X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("X must be a matrix")
    if y.shape[0] != X.shape[0]:
        raise DimensionMismatch(
            f"y has {y.shape[0]} rows but X has {X.shape[0]}"
        )
    n = X.shape[0]
    if n < 2:
        raise DimensionMismatch("need at least two observations")
    y_mean = y.mean()
    yc = y - y_mean
    col_mean = X.mean(axis=0)
    Xc = X - col_mean
    rms = np.sqrt((Xc * Xc).sum(axis=0) / n)
    ref = np.maximum(np.abs(X).max(axis=0), 1.0)
    for j, r in enumerate(rms):
        if r <= 1e-13 * ref[j]:
            raise ConstantColumn(j)
    ds = Dataset(
        y=yc,
        X=Xc / rms,
        standardized=True,
        col_scale=rms,
        col_mean=col_mean,
        y_mean=float(y_mean),
    )
    ds.validate()
    return ds


def partition_from_delta(delta: FusionIndicator | np.ndarray) -> tuple[tuple[int, int], ...]:
    """Map a fusion indicator to contiguous half-open index blocks.

    A block boundary sits after index j exactly when delta_j = 1.
    Indices are 0-based; each block is a (start, stop) pair.
    """
    d = delta.delta if isinstance(delta, FusionIndicator) else np.asarray(delta)
    boundaries = np.flatnonzero(d) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [d.shape[0] + 1]))
    return tuple(zip(starts.tolist(), stops.tolist()))


def delta_from_partition(blocks: Sequence[tuple[int, int]], p: int) -> FusionIndicator:
    """Inverse of :func:`partition_from_delta`."""
    d = np.ones(p - 1, dtype=np.uint8)
    covered = 0
    for start, stop in blocks:
        if start != covered or stop <= start:
            raise ValueError("blocks must be contiguous and ordered")
        d[start:stop - 1] = 0
        covered = stop
    if covered != p:
        raise ValueError("blocks must cover all p indices")
    return FusionIndicator(d)


def block_sizes(blocks: Sequence[tuple[int, int]]) -> np.ndarray:
    return np.array([stop - start for start, stop in blocks], dtype=np.intp)
