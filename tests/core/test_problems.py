"""Tests for OJSP/CJSP problem definitions, scoring and brute-force solvers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connectivity import satisfies_spatial_connectivity
from repro.core.dataset import DatasetNode
from repro.core.errors import InvalidParameterError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.core.problems import (
    CoverageQuery,
    CoverageResult,
    OverlapQuery,
    OverlapResult,
    ScoredDataset,
    brute_force_coverage,
    brute_force_overlap,
    coverage_of,
    overlap_of,
)

GRID = Grid(theta=6, space=BoundingBox(0, 0, 64, 64))


def node(name: str, coords: set[tuple[int, int]]) -> DatasetNode:
    return DatasetNode.from_cells(name, {GRID.cell_id_from_coords(x, y) for x, y in coords}, GRID)


class TestScoring:
    def test_overlap_of(self):
        q = node("q", {(0, 0), (1, 1), (2, 2)})
        d = node("d", {(1, 1), (2, 2), (3, 3)})
        assert overlap_of(q, d) == 2

    def test_coverage_of(self):
        q = node("q", {(0, 0)})
        d1 = node("d1", {(0, 0), (1, 1)})
        d2 = node("d2", {(2, 2)})
        assert coverage_of(q, []) == 1
        assert coverage_of(q, [d1]) == 2
        assert coverage_of(q, [d1, d2]) == 3


class TestQueryValidation:
    def test_overlap_query_requires_positive_k(self):
        q = node("q", {(0, 0)})
        with pytest.raises(InvalidParameterError):
            OverlapQuery(query=q, k=0)

    def test_coverage_query_requires_valid_parameters(self):
        q = node("q", {(0, 0)})
        with pytest.raises(InvalidParameterError):
            CoverageQuery(query=q, k=0, delta=1.0)
        with pytest.raises(InvalidParameterError):
            CoverageQuery(query=q, k=3, delta=-1.0)


class TestResultContainers:
    def test_overlap_result_orders_by_score(self):
        result = OverlapResult.from_pairs([("b", 2.0), ("a", 5.0), ("c", 2.0)])
        assert result.dataset_ids == ["a", "b", "c"]
        assert result.scores == [5.0, 2.0, 2.0]
        assert len(result) == 3

    def test_coverage_result_container(self):
        result = CoverageResult(
            entries=(ScoredDataset("a", 3.0), ScoredDataset("b", 2.0)),
            total_coverage=10,
            query_coverage=5,
        )
        assert result.dataset_ids == ["a", "b"]
        assert len(list(result)) == 2


class TestBruteForceOverlap:
    def test_top_k_by_intersection(self):
        q = node("q", {(0, 0), (1, 1), (2, 2), (3, 3)})
        candidates = [
            node("full", {(0, 0), (1, 1), (2, 2), (3, 3)}),
            node("half", {(0, 0), (1, 1), (9, 9)}),
            node("none", {(8, 8)}),
        ]
        result = brute_force_overlap(q, candidates, k=2)
        assert result.dataset_ids == ["full", "half"]
        assert result.scores == [4.0, 2.0]

    def test_k_larger_than_corpus(self):
        q = node("q", {(0, 0)})
        result = brute_force_overlap(q, [node("only", {(0, 0)})], k=10)
        assert result.dataset_ids == ["only"]

    def test_invalid_k(self):
        q = node("q", {(0, 0)})
        with pytest.raises(InvalidParameterError):
            brute_force_overlap(q, [], k=0)


class TestBruteForceCoverage:
    def test_respects_connectivity(self):
        q = node("q", {(0, 0)})
        near = node("near", {(1, 0), (2, 0)})
        far = node("far", {(30, 30), (31, 31), (32, 32)})
        result = brute_force_coverage(q, [near, far], k=1, delta=1.0)
        # "far" has more cells but is unreachable; "near" must be chosen.
        assert result.dataset_ids == ["near"]
        assert result.total_coverage == 3

    def test_indirect_connection_allowed(self):
        q = node("q", {(0, 0)})
        bridge = node("bridge", {(1, 0)})
        island = node("island", {(2, 0), (2, 1), (3, 0)})
        result = brute_force_coverage(q, [bridge, island], k=2, delta=1.0)
        assert set(result.dataset_ids) == {"bridge", "island"}
        assert result.total_coverage == 5

    def test_empty_candidates(self):
        q = node("q", {(0, 0), (1, 1)})
        result = brute_force_coverage(q, [], k=3, delta=1.0)
        assert result.dataset_ids == []
        assert result.total_coverage == 2

    def test_invalid_k(self):
        q = node("q", {(0, 0)})
        with pytest.raises(InvalidParameterError):
            brute_force_coverage(q, [], k=0, delta=1.0)

    def test_selection_is_connected_to_query(self):
        q = node("q", {(5, 5)})
        candidates = [
            node("a", {(6, 5), (7, 5)}),
            node("b", {(8, 5), (9, 5)}),
            node("c", {(20, 20), (21, 21)}),
        ]
        result = brute_force_coverage(q, candidates, k=2, delta=1.0)
        chosen = [c for c in candidates if c.dataset_id in result.dataset_ids]
        assert satisfies_spatial_connectivity([q, *chosen], delta=1.0)
        assert "c" not in result.dataset_ids


class TestBruteForceProperties:
    coords = st.sets(
        st.tuples(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15)),
        min_size=1,
        max_size=5,
    )

    @settings(max_examples=30, deadline=None)
    @given(coords, st.lists(coords, min_size=1, max_size=5), st.integers(min_value=1, max_value=3))
    def test_overlap_scores_are_sorted_and_correct(self, query_coords, candidate_coords, k):
        query = node("q", query_coords)
        candidates = [node(f"d{i}", coords) for i, coords in enumerate(candidate_coords)]
        result = brute_force_overlap(query, candidates, k)
        assert result.scores == sorted(result.scores, reverse=True)
        for entry in result:
            candidate = next(c for c in candidates if c.dataset_id == entry.dataset_id)
            assert entry.score == overlap_of(query, candidate)

    @settings(max_examples=20, deadline=None)
    @given(coords, st.lists(coords, min_size=1, max_size=4), st.integers(min_value=1, max_value=3))
    def test_coverage_result_is_connected_and_at_most_k(self, query_coords, candidate_coords, k):
        query = node("q", query_coords)
        candidates = [node(f"d{i}", coords) for i, coords in enumerate(candidate_coords)]
        result = brute_force_coverage(query, candidates, k, delta=2.0)
        assert len(result) <= k
        chosen = [c for c in candidates if c.dataset_id in result.dataset_ids]
        assert satisfies_spatial_connectivity([query, *chosen], delta=2.0)
        assert result.total_coverage == coverage_of(query, chosen)
