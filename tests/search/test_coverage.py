"""Tests for CoverageSearch (Algorithm 3): connectivity, gains and approximation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connectivity import satisfies_spatial_connectivity
from repro.core.dataset import DatasetNode
from repro.core.errors import InvalidParameterError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.core.problems import CoverageQuery, brute_force_coverage
from repro.index.dits import DITSLocalIndex
from repro.search.coverage import CoverageSearch, find_connected_nodes

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))


def node(name: str, coords: set[tuple[int, int]]) -> DatasetNode:
    return DatasetNode.from_cells(name, {GRID.cell_id_from_coords(x, y) for x, y in coords}, GRID)


def random_nodes(count: int, seed: int = 0, spread: int = 60) -> list[DatasetNode]:
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        ox, oy = int(rng.integers(0, spread)), int(rng.integers(0, spread))
        coords = {
            (ox + int(rng.integers(0, 8)), oy + int(rng.integers(0, 8)))
            for _ in range(int(rng.integers(3, 10)))
        }
        nodes.append(node(f"ds-{i}", coords))
    return nodes


def build_index(nodes, capacity: int = 4) -> DITSLocalIndex:
    index = DITSLocalIndex(leaf_capacity=capacity)
    index.build(nodes)
    return index


class TestFindConnectSet:
    def test_finds_exactly_the_connected_datasets(self):
        nodes = random_nodes(40, seed=1)
        index = build_index(nodes)
        query = nodes[0]
        for delta in (0.0, 2.0, 5.0, 15.0):
            found = {n.dataset_id for n in find_connected_nodes(index.root, query, delta)}
            from repro.core.distance import exact_node_distance

            expected = {
                n.dataset_id for n in nodes if exact_node_distance(n, query) <= delta
            }
            assert found == expected, delta

    def test_exclusion_respected(self):
        nodes = random_nodes(20, seed=2)
        index = build_index(nodes)
        query = nodes[0]
        found = find_connected_nodes(index.root, query, 50.0, exclude={"ds-1", "ds-2"})
        ids = {n.dataset_id for n in found}
        assert "ds-1" not in ids and "ds-2" not in ids

    def test_negative_delta_rejected(self):
        nodes = random_nodes(5, seed=3)
        index = build_index(nodes, capacity=2)
        with pytest.raises(InvalidParameterError):
            find_connected_nodes(index.root, nodes[0], -1.0)


class TestCoverageSearchBasics:
    def test_empty_index(self):
        index = DITSLocalIndex()
        index.build([])
        result = CoverageSearch(index).search_node(node("q", {(0, 0)}), k=3, delta=1.0)
        assert len(result) == 0
        assert result.total_coverage == 1

    def test_invalid_k_rejected(self):
        index = build_index(random_nodes(5, seed=5), capacity=2)
        with pytest.raises(InvalidParameterError):
            CoverageSearch(index).search_node(node("q", {(0, 0)}), k=0, delta=1.0)

    def test_result_size_at_most_k(self):
        nodes = random_nodes(30, seed=6)
        search = CoverageSearch(build_index(nodes))
        result = search.search(CoverageQuery(query=nodes[0], k=4, delta=10.0))
        assert len(result) <= 4

    def test_total_coverage_consistent_with_selection(self):
        nodes = random_nodes(30, seed=7)
        search = CoverageSearch(build_index(nodes))
        query = nodes[0]
        result = search.search_node(query, k=5, delta=10.0)
        chosen = [n for n in nodes if n.dataset_id in result.dataset_ids]
        assert result.total_coverage == len(query.cells.union(*(n.cells for n in chosen)))
        assert result.query_coverage == len(query.cells)

    def test_marginal_gains_positive_and_recorded_in_order(self):
        nodes = random_nodes(30, seed=8)
        search = CoverageSearch(build_index(nodes))
        result = search.search_node(nodes[0], k=5, delta=15.0)
        assert all(entry.score > 0 for entry in result)
        # Gains must sum to the coverage added beyond the query.
        assert sum(entry.score for entry in result) == (
            result.total_coverage - result.query_coverage
        )

    def test_no_connected_candidates_returns_empty_selection(self):
        cluster = [node(f"c{i}", {(i, 0)}) for i in range(5)]
        search = CoverageSearch(build_index(cluster, capacity=2))
        faraway = node("q", {(200, 200)})
        result = search.search_node(faraway, k=3, delta=1.0)
        assert len(result) == 0
        assert result.total_coverage == 1

    def test_query_itself_not_required_in_index(self):
        nodes = random_nodes(20, seed=9)
        search = CoverageSearch(build_index(nodes))
        external = node("external", {(10, 10), (11, 11), (12, 12)})
        result = search.search_node(external, k=3, delta=8.0)
        assert result.query_coverage == 3


class TestConnectivityInvariant:
    @pytest.mark.parametrize("delta", [0.0, 1.0, 3.0, 8.0])
    def test_selection_always_connected_to_query(self, delta):
        nodes = random_nodes(40, seed=10)
        search = CoverageSearch(build_index(nodes))
        query = nodes[0]
        result = search.search_node(query, k=6, delta=delta)
        chosen = [n for n in nodes if n.dataset_id in result.dataset_ids]
        assert satisfies_spatial_connectivity([query, *chosen], delta)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=5, max_value=30),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.0, max_value=10.0),
        st.integers(min_value=0, max_value=5_000),
    )
    def test_connectivity_property(self, count, k, delta, seed):
        nodes = random_nodes(count, seed=seed, spread=40)
        search = CoverageSearch(build_index(nodes))
        query = nodes[0]
        result = search.search_node(query, k=k, delta=delta)
        chosen = [n for n in nodes if n.dataset_id in result.dataset_ids]
        assert len(chosen) == len(result)
        assert satisfies_spatial_connectivity([query, *chosen], delta)


class TestGreedyQuality:
    def test_never_worse_than_best_single_dataset(self):
        nodes = random_nodes(25, seed=11)
        search = CoverageSearch(build_index(nodes))
        query = nodes[0]
        result = search.search_node(query, k=3, delta=10.0)
        single_best = brute_force_coverage(query, nodes, k=1, delta=10.0)
        assert result.total_coverage >= single_best.total_coverage

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=2_000))
    def test_greedy_achieves_at_least_1_minus_1_over_e_of_optimum(self, count, seed):
        # Small instances where the optimum is enumerable.  The classic
        # (1 - 1/e) bound applies to the coverage *gain* over the query under
        # the paper's connectivity assumption; we check it against the
        # brute-force optimum on densely connected instances (large delta so
        # connectivity never blocks the optimum).
        nodes = random_nodes(count, seed=seed, spread=20)
        k = 3
        delta = 50.0
        query = nodes[0]
        search = CoverageSearch(build_index(nodes, capacity=3))
        greedy = search.search_node(query, k=k, delta=delta)
        optimum = brute_force_coverage(query, nodes, k=k, delta=delta)
        greedy_gain = greedy.total_coverage - len(query.cells)
        optimal_gain = optimum.total_coverage - len(query.cells)
        if optimal_gain == 0:
            assert greedy_gain == 0
        else:
            assert greedy_gain >= (1 - 1 / np.e) * optimal_gain - 1e-9

    def test_increasing_k_never_decreases_coverage(self):
        nodes = random_nodes(30, seed=12)
        search = CoverageSearch(build_index(nodes))
        query = nodes[0]
        coverages = [
            search.search_node(query, k=k, delta=10.0).total_coverage for k in (1, 2, 4, 8)
        ]
        assert coverages == sorted(coverages)

    def test_increasing_delta_never_decreases_coverage(self):
        nodes = random_nodes(30, seed=13)
        search = CoverageSearch(build_index(nodes))
        query = nodes[0]
        coverages = [
            search.search_node(query, k=4, delta=delta).total_coverage
            for delta in (0.0, 2.0, 5.0, 20.0)
        ]
        assert coverages == sorted(coverages)


class TestStats:
    def test_stats_populated_after_search(self):
        nodes = random_nodes(40, seed=14)
        search = CoverageSearch(build_index(nodes))
        search.search_node(nodes[0], k=4, delta=5.0)
        stats = search.last_stats
        assert stats.iterations >= 1
        assert stats.gain_evaluations + stats.gain_skips >= 0
