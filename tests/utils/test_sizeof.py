"""Tests for wire-size and deep-size estimation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.distributed.messages import OverlapRequest
from repro.utils.sizeof import deep_size_of, encoded_size


class TestEncodedSize:
    def test_scalars(self):
        assert encoded_size(None) == 1
        assert encoded_size(True) == 1
        assert encoded_size(7) == 8
        assert encoded_size(3.14) == 8

    def test_string_counts_utf8_bytes(self):
        assert encoded_size("abc") == 4 + 3
        assert encoded_size("") == 4

    def test_containers_sum_elements(self):
        assert encoded_size([1, 2, 3]) == 4 + 3 * 8
        assert encoded_size({"a": 1}) == 4 + (4 + 1) + 8

    def test_longer_cell_list_costs_more(self):
        small = OverlapRequest(
            query_id="q", cells=np.array([1, 2], dtype=np.int64), query_rect=(0, 0, 1, 1), k=5
        )
        large = OverlapRequest(
            query_id="q", cells=np.arange(100, dtype=np.int64), query_rect=(0, 0, 1, 1), k=5
        )
        assert encoded_size(large) > encoded_size(small)

    def test_numpy_scalars_priced_like_python_numbers(self):
        assert encoded_size(np.int64(3)) == encoded_size(3) == 8
        assert encoded_size(np.int32(3)) == 8
        assert encoded_size(np.uint64(3)) == 8
        assert encoded_size(np.float32(0.5)) == encoded_size(0.5) == 8
        assert encoded_size(np.bool_(True)) == encoded_size(True) == 1

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.float64])
    def test_numeric_vector_priced_like_its_list(self, dtype):
        array = np.arange(5, dtype=dtype)
        assert encoded_size(array) == encoded_size(array.tolist()) == 4 + 5 * 8

    def test_other_arrays_priced_as_their_lists(self):
        flags = np.array([True, False, True])
        assert encoded_size(flags) == encoded_size([True, False, True]) == 4 + 3
        matrix = np.arange(6, dtype=np.int64).reshape(2, 3)
        assert encoded_size(matrix) == encoded_size([[0, 1, 2], [3, 4, 5]])
        objects = np.array(["ab", 7], dtype=object)
        assert encoded_size(objects) == encoded_size(["ab", 7])

    @given(st.lists(st.integers(min_value=0, max_value=2**62)))
    @example([])
    def test_int64_vector_priced_like_its_list(self, xs):
        assert encoded_size(np.asarray(xs, dtype=np.int64)) == encoded_size(list(xs))

    def test_wire_payload_hook_is_used(self):
        class Message:
            def wire_payload(self):
                return {"x": 1}

        assert encoded_size(Message()) == encoded_size({"x": 1})

    def test_object_without_payload_uses_dict(self):
        class Plain:
            def __init__(self):
                self.a = 1
                self.b = "zz"

        assert encoded_size(Plain()) == encoded_size({"a": 1, "b": "zz"})


class TestDeepSizeOf:
    def test_nested_structures_count_children(self):
        flat = [1, 2, 3]
        nested = [[1, 2, 3], [4, 5, 6]]
        assert deep_size_of(nested) > deep_size_of(flat)

    def test_shared_objects_counted_once(self):
        shared = list(range(100))
        duplicated = [list(range(100)), list(range(100))]
        aliased = [shared, shared]
        assert deep_size_of(aliased) < deep_size_of(duplicated)

    def test_handles_cycles(self):
        a: list = []
        a.append(a)
        assert deep_size_of(a) > 0

    def test_dict_counts_keys_and_values(self):
        assert deep_size_of({"key": "value"}) > deep_size_of({})
