import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bayesfuse import (
    ConstantColumn,
    Dataset,
    DimensionMismatch,
    FusionIndicator,
    HyperParams,
    delta_from_partition,
    partition_from_delta,
    standardize,
)
from bayesfuse.model import block_sizes


class TestHyperParams:
    def test_defaults(self):
        h = HyperParams(g=10.0)
        assert h.a_omega == 1.0 and h.b_omega == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"g": 0.0},
        {"g": -1.0},
        {"g": 1.0, "a_omega": 0.0},
        {"g": 1.0, "b_omega": -2.0},
        {"g": float("inf")},
        {"g": float("nan")},
        {"g": 1.0, "a_omega": float("inf")},
        {"g": 1.0, "b_omega": float("nan")},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)


class TestDataset:
    def test_validate_passes_on_plain_data(self, toy_data):
        toy_data.validate()

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Dataset(y=np.zeros(3), X=np.zeros((4, 2))).validate()

    def test_too_small(self):
        with pytest.raises(DimensionMismatch):
            Dataset(y=np.zeros(5), X=np.zeros((5, 1))).validate()

    def test_nonfinite(self):
        X = np.ones((4, 2))
        y = np.array([0.0, 1.0, np.nan, 2.0])
        with pytest.raises(ValueError):
            Dataset(y=y, X=X).validate()

    def test_standardized_flag_enforced(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 3)) + 5.0  # uncentered
        y = rng.standard_normal(10)
        with pytest.raises(ValueError):
            Dataset(y=y, X=X, standardized=True).validate()


class TestStandardize:
    def test_invariants(self):
        rng = np.random.default_rng(1)
        X = 3.0 + 2.0 * rng.standard_normal((25, 4))
        y = 10.0 + rng.standard_normal(25)
        data = standardize(y, X)
        n = data.n
        assert np.allclose(data.X.sum(axis=0), 0.0, atol=1e-10 * n)
        assert np.allclose((data.X**2).sum(axis=0), n, atol=1e-8 * n)
        assert abs(data.y.sum()) < 1e-10 * n
        assert data.standardized

    def test_transform_recorded(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 3)) * np.array([1.0, 10.0, 0.1]) + 7.0
        y = rng.standard_normal(30)
        data = standardize(y, X)
        back = data.X * data.col_scale + data.col_mean
        assert np.allclose(back, X)
        assert np.allclose(data.y + data.y_mean, y)

    def test_constant_column(self):
        X = np.ones((10, 3))
        X[:, 0] = np.arange(10)
        X[:, 2] = np.arange(10) ** 2
        with pytest.raises(ConstantColumn) as exc:
            standardize(np.zeros(10), X)
        assert exc.value.column == 1

    @given(
        arrays(np.float64, (12, 3), elements=st.floats(-50, 50)),
        st.floats(-10, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_sums(self, X, shift):
        X = X + shift * np.arange(3)  # break exact ties between columns
        X[:, 0] += np.arange(12) * 1e-3  # ensure non-constant
        X[:, 1] += np.arange(12) ** 2 * 1e-3
        X[:, 2] -= np.arange(12) * 1e-3
        y = X.sum(axis=1)
        try:
            data = standardize(y, X)
        except ConstantColumn:
            return
        data.validate()


class TestFusionIndicator:
    def test_counts(self):
        ind = FusionIndicator(np.array([1, 0, 0, 1]))
        assert ind.p == 5
        assert ind.p1 == 2

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            FusionIndicator(np.array([0, 2, 1]))

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatch):
            FusionIndicator(np.zeros((2, 2)))


class TestPartition:
    def test_all_ones_gives_singletons(self):
        blocks = partition_from_delta(np.ones(4, dtype=np.uint8))
        assert blocks == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))

    def test_all_zeros_gives_one_block(self):
        assert partition_from_delta(np.zeros(4, dtype=np.uint8)) == ((0, 5),)

    def test_mixed(self):
        blocks = partition_from_delta(np.array([0, 1, 0, 0, 1], dtype=np.uint8))
        assert blocks == ((0, 2), (2, 5), (5, 6))

    def test_inverse_rejects_gaps(self):
        with pytest.raises(ValueError):
            delta_from_partition([(0, 2), (3, 5)], 5)
        with pytest.raises(ValueError):
            delta_from_partition([(0, 2)], 5)

    def test_block_sizes(self):
        assert block_sizes([(0, 2), (2, 5)]).tolist() == [2, 3]

    @given(arrays(np.uint8, st.integers(1, 12), elements=st.integers(0, 1)))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, delta):
        blocks = partition_from_delta(delta)
        p = delta.shape[0] + 1
        # blocks are contiguous, ordered, cover 0..p
        assert blocks[0][0] == 0 and blocks[-1][1] == p
        for (a, b), (c, d) in zip(blocks[:-1], blocks[1:]):
            assert b == c and a < b
        back = delta_from_partition(blocks, p)
        assert np.array_equal(back.delta, delta)
