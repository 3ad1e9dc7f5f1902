"""Tests for the QuadTree, R-tree, STS3 and Josie baseline indexes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import DatasetNode
from repro.core.errors import DatasetNotFoundError, InvalidParameterError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.index.inverted import STS3Index
from repro.index.josie import JosieIndex
from repro.index.quadtree import QuadTreeIndex
from repro.index.rtree import RTreeIndex

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))


def node(name: str, coords: set[tuple[int, int]]) -> DatasetNode:
    return DatasetNode.from_cells(name, {GRID.cell_id_from_coords(x, y) for x, y in coords}, GRID)


def random_nodes(count: int, seed: int = 0) -> list[DatasetNode]:
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        ox, oy = int(rng.integers(0, 230)), int(rng.integers(0, 230))
        coords = {(ox + int(rng.integers(0, 15)), oy + int(rng.integers(0, 15))) for _ in range(8)}
        nodes.append(node(f"ds-{i}", coords))
    return nodes


class TestQuadTree:
    def test_invalid_capacity(self):
        with pytest.raises(InvalidParameterError):
            QuadTreeIndex(capacity=0)

    def test_build_and_occurrence_count(self):
        nodes = random_nodes(10, seed=1)
        index = QuadTreeIndex()
        index.build(nodes)
        assert index.total_occurrences() == sum(len(n.cells) for n in nodes)
        assert index.node_count() >= 1

    def test_occurrences_in_region(self):
        a = node("a", {(0, 0), (1, 1)})
        b = node("b", {(100, 100)})
        index = QuadTreeIndex()
        index.build([a, b])
        found = list(index.occurrences_in(BoundingBox(-1, -1, 5, 5)))
        assert {dataset_id for _, dataset_id in found} == {"a"}

    def test_insert_and_delete(self):
        nodes = random_nodes(8, seed=2)
        index = QuadTreeIndex()
        index.build(nodes[:5])
        for extra in nodes[5:]:
            index.insert(extra)
        assert len(index) == 8
        index.delete("ds-0")
        assert len(index) == 7
        found_ids = {dataset_id for _, dataset_id in index.occurrences_in(BoundingBox(0, 0, 256, 256))}
        assert "ds-0" not in found_ids

    def test_subdivision_respects_capacity_until_max_depth(self):
        dense = [node(f"dense-{i}", {(5, 5)}) for i in range(12)]
        index = QuadTreeIndex(capacity=2)
        index.build(dense)
        # All items share one cell so depth capping must terminate subdivision.
        assert index.node_count() >= 1
        assert len(list(index.occurrences_in(BoundingBox(0, 0, 10, 10)))) == 12

    def test_empty_build(self):
        index = QuadTreeIndex()
        index.build([])
        assert index.node_count() == 0
        assert list(index.occurrences_in(BoundingBox(0, 0, 1, 1))) == []


class TestRTree:
    def test_invalid_fanout(self):
        with pytest.raises(InvalidParameterError):
            RTreeIndex(max_entries=1)

    def test_bulk_load_contains_everything(self):
        nodes = random_nodes(40, seed=3)
        index = RTreeIndex(max_entries=4)
        index.build(nodes)
        found = {n.dataset_id for n in index.intersecting(BoundingBox(0, 0, 256, 256))}
        assert found == {n.dataset_id for n in nodes}

    def test_intersecting_filters_by_mbr(self):
        a = node("a", {(0, 0), (5, 5)})
        b = node("b", {(200, 200), (210, 210)})
        index = RTreeIndex()
        index.build([a, b])
        found = {n.dataset_id for n in index.intersecting(BoundingBox(0, 0, 10, 10))}
        assert found == {"a"}

    def test_mbr_invariant_after_bulk_load(self):
        nodes = random_nodes(30, seed=4)
        index = RTreeIndex(max_entries=4)
        index.build(nodes)

        def check(tree_node):
            if tree_node.is_leaf():
                for entry in tree_node.entries:
                    assert tree_node.rect.contains_box(entry.rect)
            else:
                for child in tree_node.children:
                    assert tree_node.rect.contains_box(child.rect)
                    check(child)

        assert index.root is not None
        check(index.root)

    def test_insert_overflow_splits(self):
        index = RTreeIndex(max_entries=3)
        index.build(random_nodes(3, seed=5))
        for extra in random_nodes(9, seed=6):
            renamed = DatasetNode(
                dataset_id="x-" + extra.dataset_id,
                rect=extra.rect,
                cells_array=extra.cells_array,
                point_count=extra.point_count,
            )
            index.insert(renamed)
        assert len(index) == 12
        found = {n.dataset_id for n in index.intersecting(BoundingBox(0, 0, 256, 256))}
        assert len(found) == 12

    def test_delete(self):
        nodes = random_nodes(10, seed=7)
        index = RTreeIndex(max_entries=4)
        index.build(nodes)
        index.delete("ds-3")
        found = {n.dataset_id for n in index.intersecting(BoundingBox(0, 0, 256, 256))}
        assert "ds-3" not in found
        assert len(found) == 9
        with pytest.raises(DatasetNotFoundError):
            index.delete("ds-3")

    def test_within_distance(self):
        a = node("a", {(0, 0)})
        b = node("b", {(50, 0)})
        index = RTreeIndex()
        index.build([a, b])
        near = {n.dataset_id for n in index.within_distance(BoundingBox(10, 0, 11, 1), 5.0)}
        assert near == set()
        near = {n.dataset_id for n in index.within_distance(BoundingBox(10, 0, 11, 1), 15.0)}
        assert near == {"a"}

    def test_update_changes_node(self):
        nodes = random_nodes(6, seed=8)
        index = RTreeIndex(max_entries=4)
        index.build(nodes)
        replacement = node("ds-2", {(250, 250)})
        index.update(replacement)
        found = {n.dataset_id for n in index.intersecting(BoundingBox(245, 245, 256, 256))}
        assert "ds-2" in found


class TestSTS3:
    def test_posting_lists(self):
        a = node("a", {(0, 0), (1, 1)})
        b = node("b", {(1, 1)})
        index = STS3Index()
        index.build([a, b])
        shared_cell = GRID.cell_id_from_coords(1, 1)
        assert index.posting_list(shared_cell) == {"a", "b"}
        assert index.posting_list(GRID.cell_id_from_coords(99, 99)) == set()

    def test_overlap_counts(self):
        a = node("a", {(0, 0), (1, 1), (2, 2)})
        b = node("b", {(1, 1), (9, 9)})
        index = STS3Index()
        index.build([a, b])
        counts = index.overlap_counts(a.cells)
        assert counts["a"] == 3
        assert counts["b"] == 1

    def test_insert_delete_round_trip(self):
        nodes = random_nodes(6, seed=9)
        index = STS3Index()
        index.build(nodes[:4])
        index.insert(nodes[4])
        index.insert(nodes[5])
        assert index.posting_count() == sum(len(n.cells) for n in nodes)
        index.delete("ds-5")
        assert "ds-5" not in index
        counts = index.overlap_counts(nodes[5].cells)
        assert "ds-5" not in counts

    def test_distinct_cells(self):
        a = node("a", {(0, 0)})
        b = node("b", {(0, 0), (1, 0)})
        index = STS3Index()
        index.build([a, b])
        assert index.distinct_cells() == 2
        assert index.posting_count() == 3


class TestJosie:
    def test_postings_sorted_by_size(self):
        small = node("small", {(0, 0)})
        big = node("big", {(0, 0), (1, 1), (2, 2)})
        index = JosieIndex()
        index.build([big, small])
        postings = index.posting_list(GRID.cell_id_from_coords(0, 0))
        assert [p.dataset_id for p in postings] == ["small", "big"]
        assert postings[1].size == 3

    def test_token_frequency(self):
        a = node("a", {(0, 0)})
        b = node("b", {(0, 0)})
        index = JosieIndex()
        index.build([a, b])
        assert index.token_frequency(GRID.cell_id_from_coords(0, 0)) == 2
        assert index.token_frequency(GRID.cell_id_from_coords(9, 9)) == 0

    def test_top_k_matches_brute_force(self):
        nodes = random_nodes(30, seed=10)
        index = JosieIndex()
        index.build(nodes)
        for query in nodes[:5]:
            expected = sorted(
                (
                    (n.dataset_id, len(n.cells & query.cells))
                    for n in nodes
                    if n.cells & query.cells
                ),
                key=lambda pair: (-pair[1], pair[0]),
            )[:5]
            got = index.top_k_overlap(query.cells, 5)
            assert [score for _, score in got] == [score for _, score in expected]

    def test_empty_query(self):
        index = JosieIndex()
        index.build(random_nodes(3, seed=11))
        assert index.top_k_overlap([], 3) == []

    def test_insert_and_delete_keep_results_exact(self):
        nodes = random_nodes(12, seed=12)
        index = JosieIndex()
        index.build(nodes[:8])
        for extra in nodes[8:]:
            index.insert(extra)
        index.delete("ds-1")
        remaining = [n for n in nodes if n.dataset_id != "ds-1"]
        query = nodes[2]
        expected = sorted(
            (
                (n.dataset_id, len(n.cells & query.cells))
                for n in remaining
                if n.cells & query.cells
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )[:4]
        assert [s for _, s in index.top_k_overlap(query.cells, 4)] == [s for _, s in expected]

    def test_posting_count(self):
        nodes = random_nodes(5, seed=13)
        index = JosieIndex()
        index.build(nodes)
        assert index.posting_count() == sum(len(n.cells) for n in nodes)


class TestCrossIndexConsistency:
    """All indexes must agree on membership-level bookkeeping."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=500))
    def test_all_indexes_report_same_len(self, count, seed):
        nodes = random_nodes(count, seed=seed)
        for index_cls in (QuadTreeIndex, RTreeIndex, STS3Index, JosieIndex):
            index = index_cls()
            index.build(nodes)
            assert len(index) == count
            assert sorted(index.dataset_ids()) == sorted(n.dataset_id for n in nodes)
