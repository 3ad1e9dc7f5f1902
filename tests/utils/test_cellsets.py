"""Property tests for the vectorized cell-set engine.

Every kernel must agree exactly with the Python ``set`` algebra it replaces,
and the batch z-order codecs must match the scalar functions element-wise —
these are the invariants that make the ``vector`` backend a drop-in
replacement for the ``frozenset`` reference backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import cellsets
from repro.utils.zorder import (
    zorder_decode,
    zorder_decode_batch,
    zorder_encode,
    zorder_encode_batch,
)

cell_lists = st.lists(st.integers(min_value=0, max_value=2**40), max_size=200)


class TestAsCellArray:
    def test_sorts_and_dedups(self):
        array = cellsets.as_cell_array([5, 1, 5, 3, 1])
        assert array.tolist() == [1, 3, 5]
        assert array.dtype == cellsets.CELL_DTYPE

    def test_accepts_frozenset_and_generator(self):
        assert cellsets.as_cell_array(frozenset({2, 9, 4})).tolist() == [2, 4, 9]
        assert cellsets.as_cell_array(iter([3, 2, 2])).tolist() == [2, 3]

    def test_ndarray_input_is_defensively_copied(self):
        source = np.array([1, 4, 9], dtype=np.int64)
        result = cellsets.as_cell_array(source)
        assert result.tolist() == [1, 4, 9]
        source[0] = 99  # later mutation must not corrupt the result
        assert result.tolist() == [1, 4, 9]

    def test_empty(self):
        assert cellsets.as_cell_array([]).size == 0

    @given(cell_lists)
    @settings(max_examples=50, deadline=None)
    def test_matches_sorted_set(self, values):
        assert cellsets.as_cell_array(values).tolist() == sorted(set(values))


class TestSizeKernels:
    @given(cell_lists, cell_lists)
    @settings(max_examples=100, deadline=None)
    def test_sizes_match_set_algebra(self, left, right):
        a = cellsets.as_cell_array(left)
        b = cellsets.as_cell_array(right)
        set_a, set_b = set(left), set(right)
        assert cellsets.intersection_size(a, b) == len(set_a & set_b)
        assert cellsets.union_size(a, b) == len(set_a | set_b)
        assert cellsets.difference_size(a, b) == len(set_a - set_b)
        assert cellsets.contains_all(a, b) == set_b.issubset(set_a)

    @given(cell_lists, cell_lists)
    @settings(max_examples=100, deadline=None)
    def test_materializing_kernels_match_set_algebra(self, left, right):
        a = cellsets.as_cell_array(left)
        b = cellsets.as_cell_array(right)
        set_a, set_b = set(left), set(right)
        assert cellsets.intersect(a, b).tolist() == sorted(set_a & set_b)
        assert cellsets.union(a, b).tolist() == sorted(set_a | set_b)
        assert cellsets.difference(a, b).tolist() == sorted(set_a - set_b)

    def test_disjoint_and_identical(self):
        a = cellsets.as_cell_array([1, 2, 3])
        b = cellsets.as_cell_array([10, 20])
        assert cellsets.intersection_size(a, b) == 0
        assert cellsets.intersection_size(a, a) == 3
        assert cellsets.union_size(a, a) == 3
        assert cellsets.difference_size(a, a) == 0


class TestBatchZorder:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**31 - 1),
                st.integers(min_value=0, max_value=2**31 - 1),
            ),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_encode_matches_scalar(self, pairs):
        xs = np.array([p[0] for p in pairs], dtype=np.int64)
        ys = np.array([p[1] for p in pairs], dtype=np.int64)
        batch = zorder_encode_batch(xs, ys)
        assert batch.tolist() == [zorder_encode(x, y) for x, y in pairs]

    @given(st.lists(st.integers(min_value=0, max_value=2**62 - 1), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_decode_matches_scalar(self, codes):
        array = np.array(codes, dtype=np.int64)
        xs, ys = zorder_decode_batch(array)
        expected = [zorder_decode(code) for code in codes]
        assert list(zip(xs.tolist(), ys.tolist())) == expected

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**31 - 1),
                st.integers(min_value=0, max_value=2**31 - 1),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, pairs):
        xs = np.array([p[0] for p in pairs], dtype=np.int64)
        ys = np.array([p[1] for p in pairs], dtype=np.int64)
        dx, dy = zorder_decode_batch(zorder_encode_batch(xs, ys))
        assert dx.tolist() == xs.tolist()
        assert dy.tolist() == ys.tolist()

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError):
            zorder_encode_batch(np.array([-1]), np.array([0]))

    def test_oversized_coordinate_rejected(self):
        with pytest.raises(ValueError):
            zorder_encode_batch(np.array([2**31]), np.array([0]))

    def test_negative_code_rejected(self):
        with pytest.raises(ValueError):
            zorder_decode_batch(np.array([-1]))

    def test_empty_batches(self):
        assert zorder_encode_batch(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0
        xs, ys = zorder_decode_batch(np.array([], dtype=np.int64))
        assert xs.size == 0 and ys.size == 0
