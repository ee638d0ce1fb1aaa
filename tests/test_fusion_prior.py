import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesfuse import Dataset, FusionKernel, HyperParams, difference_covariance, difference_matrix
from bayesfuse.model import SingularSystem


class TestDifferenceMatrix:
    def test_shape_and_rows(self):
        D = difference_matrix(4)
        assert D.shape == (3, 4)
        expected = np.array([
            [-1, 1, 0, 0],
            [0, -1, 1, 0],
            [0, 0, -1, 1],
        ], dtype=float)
        assert np.array_equal(D, expected)

    def test_applies_differences(self):
        v = np.array([1.0, 4.0, 9.0, 16.0])
        assert np.allclose(difference_matrix(4) @ v, [3.0, 5.0, 7.0])


def random_pd(rng, k):
    A = rng.standard_normal((k, k))
    return A @ A.T + k * np.eye(k)


class TestDifferenceCovariance:
    def test_matches_sandwich(self):
        rng = np.random.default_rng(3)
        for k in range(2, 8):
            Z = random_pd(rng, k)
            D = difference_matrix(k)
            assert np.allclose(difference_covariance(Z), D @ Z @ D.T, atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            difference_covariance(np.zeros((2, 3)))

    @given(st.integers(2, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_property_sandwich(self, k, seed):
        Z = random_pd(np.random.default_rng(seed), k)
        D = difference_matrix(k)
        ref = D @ Z @ D.T
        assert np.max(np.abs(difference_covariance(Z) - ref)) <= 1e-12 * max(1.0, np.abs(ref).max())


class TestBuildFusedDesign:
    """The fused design FusionKernel builds for one configuration."""

    def test_singular_design_raises(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 3))
        X[:, 2] = X[:, 0]  # duplicate column -> singular unfused gram
        data = Dataset(y=rng.standard_normal(10), X=X)
        delta = np.ones(2, dtype=np.uint8)
        kernel = FusionKernel(data, HyperParams(g=10.0))
        assert kernel.log_marginal(delta) == -np.inf
        with pytest.raises(SingularSystem):
            kernel.posterior(delta)
