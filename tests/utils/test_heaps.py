"""Tests for the bounded top-k heap."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.heaps import CanonicalTopK


class TestBasics:
    def test_rejects_non_positive_k(self):
        with pytest.raises(ValueError):
            CanonicalTopK(0)
        with pytest.raises(ValueError):
            CanonicalTopK(-3)

    def test_empty_heap(self):
        heap = CanonicalTopK(3)
        assert len(heap) == 0
        assert not heap
        assert not heap.is_full()
        assert heap.kth_score() == float("-inf")
        assert heap.items() == []

    def test_keeps_largest_k(self):
        heap = CanonicalTopK(3)
        for score in [5, 1, 9, 3, 7, 2]:
            heap.push(score, f"item-{score}")
        assert [score for score, _ in heap.items()] == [9, 7, 5]

    def test_kth_score_is_threshold(self):
        heap = CanonicalTopK(2)
        heap.push(4, "a")
        heap.push(6, "b")
        assert heap.kth_score() == 4
        assert not heap.push(3, "c")
        assert heap.push(5, "d")
        assert heap.kth_score() == 5

    def test_push_returns_whether_retained(self):
        heap = CanonicalTopK(1)
        assert heap.push(1, "a") is True
        assert heap.push(0, "b") is False
        assert heap.push(2, "c") is True

    def test_equal_score_smaller_item_displaces_largest_when_full(self):
        heap = CanonicalTopK(2)
        heap.push(2, "b")
        heap.push(2, "c")
        assert heap.push(2, "a") is True
        assert "c" not in heap
        assert heap.push(2, "d") is False
        assert heap.items() == [(2, "a"), (2, "b")]

    def test_iteration_matches_items(self):
        heap = CanonicalTopK(4)
        for i in range(10):
            heap.push(i, str(i))
        assert list(heap) == heap.items()


class TestProperties:
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=10))
    def test_matches_sorted_topk(self, scores, k):
        heap = CanonicalTopK(k)
        for index, score in enumerate(scores):
            heap.push(score, index)
        expected = sorted(scores, reverse=True)[:k]
        assert [score for score, _ in heap.items()] == expected

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                    min_size=1, max_size=40),
           st.integers(min_value=1, max_value=8))
    def test_never_exceeds_k(self, scores, k):
        heap = CanonicalTopK(k)
        for index, score in enumerate(scores):
            heap.push(score, index)
        assert len(heap) <= k
        assert heap.is_full() == (len(scores) >= k)

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
           st.integers(min_value=1, max_value=8))
    def test_kth_score_is_kth_largest_offered(self, scores, k):
        """The prune threshold does not depend on how ties are broken."""
        heap = CanonicalTopK(k)
        for index, score in enumerate(scores):
            heap.push(score, index)
        if len(scores) >= k:
            assert heap.kth_score() == sorted(scores, reverse=True)[k - 1]
        else:
            assert heap.kth_score() == float("-inf")

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                              st.integers(min_value=0, max_value=50)),
                    min_size=1, max_size=40, unique_by=lambda pair: pair[1]),
           st.integers(min_value=1, max_value=6))
    def test_membership_matches_items_after_evictions(self, pairs, k):
        heap = CanonicalTopK(k)
        for score, item in pairs:
            heap.push(score, item)
        retained = {item for _, item in heap.items()}
        for _, item in pairs:
            assert (item in heap) == (item in retained)


class TestCanonicalTopK:
    def test_rejects_non_positive_k(self):
        with pytest.raises(ValueError):
            CanonicalTopK(0)

    def test_ties_broken_by_item_not_insertion_order(self):
        heap = CanonicalTopK(2)
        heap.push(2.0, "zebra")
        heap.push(2.0, "alpha")
        heap.push(2.0, "mango")
        assert [item for _, item in heap.items()] == ["alpha", "mango"]

    def test_contains_tracks_retained_items(self):
        heap = CanonicalTopK(2)
        heap.push(1.0, "a")
        heap.push(3.0, "b")
        heap.push(2.0, "c")
        assert "a" not in heap
        assert "b" in heap and "c" in heap

    def test_items_ordered_score_desc_then_item_asc(self):
        heap = CanonicalTopK(4)
        for score, item in [(1.0, "d"), (2.0, "b"), (2.0, "a"), (1.0, "c")]:
            heap.push(score, item)
        assert heap.items() == [(2.0, "a"), (2.0, "b"), (1.0, "c"), (1.0, "d")]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=30),
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda pair: pair[1],
        ),
        st.integers(min_value=1, max_value=8),
        st.randoms(),
    )
    def test_insertion_order_invariance(self, pairs, k, rng):
        """The retained set is a pure function of the offered pairs."""
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        heap_a, heap_b = CanonicalTopK(k), CanonicalTopK(k)
        for score, item in pairs:
            heap_a.push(float(score), item)
        for score, item in shuffled:
            heap_b.push(float(score), item)
        expected = sorted(
            ((float(s), i) for s, i in pairs), key=lambda p: (-p[0], p[1])
        )[:k]
        assert heap_a.items() == expected
        assert heap_b.items() == expected
