"""Window-sum pooling (``scoring.pool_rows``) and the row gather into a caller's buffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timekge.errors import ShapeError
from timekge.kernels import take_rows
from timekge.scoring import pool_rows


class TestSumPool:
    def test_hand_windows(self):
        np.testing.assert_array_equal(
            pool_rows(np.array([[1.0, 2.0, 3.0, 4.0]]), 2), [[3.0, 7.0]])

    def test_window_one_is_identity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 8))
        np.testing.assert_array_equal(pool_rows(x, 1), x)

    def test_zeros(self):
        np.testing.assert_array_equal(pool_rows(np.zeros((2, 6)), 3), np.zeros((2, 2)))

    def test_non_divisible_length(self):
        with pytest.raises(ShapeError, match="cannot pool width 7 with rank 2"):
            pool_rows(np.zeros((1, 7)), 2)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_linearity(self, window, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, window * d))
        y = rng.standard_normal((3, window * d))
        alpha, beta = rng.standard_normal(2)
        combined = pool_rows(alpha * x + beta * y, window)
        separate = alpha * pool_rows(x, window) + beta * pool_rows(y, window)
        np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_preserves_total(self, window, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, window * d))
        np.testing.assert_allclose(pool_rows(x, window).sum(axis=1), x.sum(axis=1),
                                   rtol=1e-12, atol=1e-12)


def test_take_rows_gathers_into_the_front_of_the_buffer():
    rng = np.random.default_rng(5)
    table = rng.standard_normal((6, 4))
    index = np.array([[5, 0, 5], [2, 2, 1]])
    scratch = np.full(30, np.nan)
    out = take_rows(table, index, scratch)
    np.testing.assert_array_equal(out, table[index])
    assert np.shares_memory(out, scratch)
    assert np.isnan(scratch[index.size * 4:]).all()
