"""Difference operator and covariance of the fusion prior.

The g-prior on the block coefficients induces a normal prior on the
retained adjacent differences whose covariance is the second difference
of the g-prior covariance, D Z D^T for the difference operator D. The
sampler's evidence (:class:`bayesfuse.sampler.FusionKernel`) folds this
prior into a closed form and never builds these pieces.
"""
from __future__ import annotations

import numpy as np


def difference_matrix(k: int) -> np.ndarray:
    """First-difference operator, shape (k-1, k), rows (..., -1, 1, ...)."""
    D = np.zeros((k - 1, k))
    idx = np.arange(k - 1)
    D[idx, idx] = -1.0
    D[idx, idx + 1] = 1.0
    return D


def difference_covariance(coef_cov: np.ndarray) -> np.ndarray:
    """Covariance of adjacent differences of a random vector.

    For cov matrix Z of a length-k vector, entry (i, j) of the result is
    Z[i+1, j+1] - Z[i+1, j] - Z[i, j+1] + Z[i, j], which equals
    D Z D^T for the first-difference operator D.
    """
    Z = np.asarray(coef_cov, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError("coef_cov must be square")
    return Z[1:, 1:] - Z[1:, :-1] - Z[:-1, 1:] + Z[:-1, :-1]
