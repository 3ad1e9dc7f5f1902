"""Tests for direct/indirect connectivity and the connectivity graph."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connectivity import (
    ConnectivityGraph,
    connected_components,
    is_directly_connected,
    satisfies_spatial_connectivity,
)
from repro.core.dataset import DatasetNode
from repro.core.distance import exact_node_distance
from repro.core.errors import InvalidParameterError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid

GRID = Grid(theta=6, space=BoundingBox(0, 0, 64, 64))


def node(name: str, coords: set[tuple[int, int]]) -> DatasetNode:
    return DatasetNode.from_cells(name, {GRID.cell_id_from_coords(x, y) for x, y in coords}, GRID)


class TestDirectConnectivity:
    def test_overlapping_nodes_always_connected(self):
        a = node("a", {(0, 0), (1, 1)})
        b = node("b", {(1, 1), (5, 5)})
        assert is_directly_connected(a, b, delta=0.0)

    def test_adjacent_nodes_connected_at_delta_one(self):
        a = node("a", {(0, 0)})
        b = node("b", {(1, 0)})
        assert is_directly_connected(a, b, delta=1.0)
        assert not is_directly_connected(a, b, delta=0.5)

    def test_distant_nodes_need_large_delta(self):
        a = node("a", {(0, 0)})
        b = node("b", {(10, 0)})
        assert not is_directly_connected(a, b, delta=5.0)
        assert is_directly_connected(a, b, delta=10.0)

    def test_negative_delta_rejected(self):
        a = node("a", {(0, 0)})
        with pytest.raises(InvalidParameterError):
            is_directly_connected(a, a, delta=-1.0)

    def test_matches_exact_distance_predicate(self):
        a = node("a", {(0, 0), (3, 4)})
        b = node("b", {(8, 8), (9, 2)})
        for delta in (0.0, 2.0, 5.0, 8.0, 12.0):
            assert is_directly_connected(a, b, delta) == (exact_node_distance(a, b) <= delta)


class TestExample3:
    """Example 3 of the paper: D1-D2 direct, D1-D3 direct, D2-D3 indirect at delta=1."""

    def setup_method(self):
        grid = Grid(theta=2, space=BoundingBox(0, 0, 4, 4))
        self.d1 = DatasetNode.from_cells("D1", {9, 11}, grid)
        self.d2 = DatasetNode.from_cells("D2", {1, 3}, grid)
        self.d3 = DatasetNode.from_cells("D3", {12, 13}, grid)

    def test_direct_relations(self):
        assert is_directly_connected(self.d1, self.d2, delta=1.0)
        assert is_directly_connected(self.d1, self.d3, delta=1.0)
        assert not is_directly_connected(self.d2, self.d3, delta=1.0)

    def test_collection_satisfies_spatial_connectivity(self):
        assert satisfies_spatial_connectivity([self.d1, self.d2, self.d3], delta=1.0)

    def test_without_the_bridge_not_connected(self):
        assert not satisfies_spatial_connectivity([self.d2, self.d3], delta=1.0)


class TestConnectivityGraph:
    def test_add_node_reports_direct_neighbours(self):
        graph = ConnectivityGraph(delta=1.0)
        a = node("a", {(0, 0)})
        b = node("b", {(1, 0)})
        c = node("c", {(10, 10)})
        assert graph.add_node(a) == set()
        assert graph.add_node(b) == {"a"}
        assert graph.add_node(c) == set()

    def test_components_and_connectivity(self):
        graph = ConnectivityGraph(delta=1.0)
        for member in [node("a", {(0, 0)}), node("b", {(1, 0)}), node("c", {(10, 10)})]:
            graph.add_node(member)
        assert graph.components() == [{"a", "b"}, {"c"}]

    def test_indirect_connection_through_chain(self):
        graph = ConnectivityGraph(delta=1.0)
        for x, name in enumerate("abcd"):
            graph.add_node(node(name, {(x, 0)}))
        assert graph.components() == [{"a", "b", "c", "d"}]

    def test_duplicate_add_returns_existing_neighbours(self):
        graph = ConnectivityGraph(delta=1.0)
        a = node("a", {(0, 0)})
        b = node("b", {(1, 0)})
        graph.add_node(a)
        graph.add_node(b)
        assert graph.add_node(b) == {"a"}
        assert len(graph) == 2

    def test_negative_delta_rejected(self):
        with pytest.raises(InvalidParameterError):
            ConnectivityGraph(delta=-0.1)

    def test_empty_collection_is_connected(self):
        assert satisfies_spatial_connectivity([], delta=1.0)
        assert ConnectivityGraph(delta=1.0).components() == []


class TestConnectivityProperties:
    coords = st.sets(
        st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20)),
        min_size=1,
        max_size=6,
    )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(coords, min_size=2, max_size=5), st.floats(min_value=0, max_value=10))
    def test_components_partition_nodes(self, node_coords, delta):
        nodes = [node(f"n{i}", coords) for i, coords in enumerate(node_coords)]
        components = connected_components(nodes, delta)
        all_ids = {n.dataset_id for n in nodes}
        seen: set[str] = set()
        for component in components:
            assert not (component & seen)
            seen |= component
        assert seen == all_ids

    @settings(max_examples=40, deadline=None)
    @given(st.lists(coords, min_size=2, max_size=5))
    def test_larger_delta_never_splits_components(self, node_coords):
        nodes = [node(f"n{i}", coords) for i, coords in enumerate(node_coords)]
        small = len(connected_components(nodes, 1.0))
        large = len(connected_components(nodes, 10.0))
        assert large <= small

    @settings(max_examples=40, deadline=None)
    @given(st.lists(coords, min_size=2, max_size=6), st.floats(min_value=0, max_value=10))
    def test_components_match_the_pairwise_predicate(self, node_coords, delta):
        # The graph finds edges with one batched engine call per insert; its
        # components must be those of the pairwise Definition 8 relation.
        nodes = [node(f"n{i}", coords) for i, coords in enumerate(node_coords)]
        expected = [{n.dataset_id} for n in nodes]
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if is_directly_connected(a, b, delta):
                    left = next(c for c in expected if a.dataset_id in c)
                    right = next(c for c in expected if b.dataset_id in c)
                    if left is not right:
                        expected.remove(right)
                        left |= right
        actual = connected_components(nodes, delta)
        assert sorted(map(sorted, actual)) == sorted(map(sorted, expected))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(coords, min_size=2, max_size=6), st.floats(min_value=0, max_value=10))
    def test_components_do_not_depend_on_insertion_order(self, node_coords, delta):
        nodes = [node(f"n{i}", coords) for i, coords in enumerate(node_coords)]
        forward = connected_components(nodes, delta)
        backward = connected_components(nodes[::-1], delta)
        assert sorted(map(sorted, forward)) == sorted(map(sorted, backward))
