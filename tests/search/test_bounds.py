"""Tests for the leaf-level intersection bounds (Lemmas 2 and 3)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import DatasetNode
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.index.dits import LeafNode
from repro.search.bounds import leaf_intersection_bounds

GRID = Grid(theta=6, space=BoundingBox(0, 0, 64, 64))


def node(name: str, cells: set[int]) -> DatasetNode:
    return DatasetNode.from_cells(name, cells, GRID)


def make_leaf(entries: list[DatasetNode]) -> LeafNode:
    rect = BoundingBox.union_of(entry.rect for entry in entries)
    return LeafNode(rect, entries, capacity=len(entries))


def posting_bounds(leaf: LeafNode, query: set[int] | frozenset[int]) -> tuple[int, int]:
    """``(lower, upper)`` read off the leaf's posting lists one query cell at a time."""
    postings = [leaf.inverted.get(cell, {}) for cell in query]
    upper = sum(1 for posting in postings if posting)
    lower = sum(1 for posting in postings if len(posting) == len(leaf.entries))
    return lower, upper


class TestPaperExample:
    def test_fig5_bounds(self):
        # Fig. 5: a leaf with two datasets; the query shares cell 9 with both
        # and cell 3 with neither key of the inverted index beyond 9... build
        # an equivalent scenario: posting list of the shared cell is full, so
        # LB = 1; the query matches exactly one key, so UB = 1.
        d1 = node("d1", {9, 11, 13})
        d2 = node("d2", {9, 7, 12})
        leaf = make_leaf([d1, d2])
        query_cells = frozenset({9, 3})
        lower, upper = leaf_intersection_bounds(leaf, query_cells)
        assert upper == 1
        assert lower == 1


class TestBoundsSemantics:
    def test_upper_counts_query_cells_in_any_posting(self):
        leaf = make_leaf([node("a", {1, 2}), node("b", {2, 3})])
        assert leaf_intersection_bounds(leaf, {1, 2, 3, 4})[1] == 3

    def test_lower_counts_cells_shared_by_all_entries(self):
        leaf = make_leaf([node("a", {1, 2, 5}), node("b", {2, 3, 5})])
        assert leaf_intersection_bounds(leaf, {1, 2, 3, 5})[0] == 2  # cells 2 and 5

    def test_disjoint_query_gives_zero_bounds(self):
        leaf = make_leaf([node("a", {1, 2})])
        assert leaf_intersection_bounds(leaf, {40, 41}) == (0, 0)

    def test_single_entry_leaf_has_equal_bounds(self):
        leaf = make_leaf([node("a", {1, 2, 3})])
        lower, upper = leaf_intersection_bounds(leaf, {2, 3, 9})
        assert lower == upper == 2

    def test_bounds_match_the_posting_lists(self):
        leaf = make_leaf([node("a", {1, 2, 8}), node("b", {2, 8, 9})])
        query = frozenset({2, 8, 9, 30})
        assert leaf_intersection_bounds(leaf, query) == posting_bounds(leaf, query) == (2, 3)


class TestBoundCorrectnessProperty:
    cells_strategy = st.sets(st.integers(min_value=0, max_value=300), min_size=1, max_size=30)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(cells_strategy, min_size=1, max_size=6), cells_strategy)
    def test_bounds_sandwich_every_entry_overlap(self, entry_cells, query_cells):
        entries = [node(f"d{i}", cells) for i, cells in enumerate(entry_cells)]
        leaf = make_leaf(entries)
        query = frozenset(query_cells)
        lower, upper = leaf_intersection_bounds(leaf, query)
        assert (lower, upper) == posting_bounds(leaf, query)
        overlaps = [len(entry.cells & query) for entry in entries]
        # Lemma 2: no entry can overlap the query on more cells than UB.
        assert max(overlaps) <= upper
        # Lemma 3: every entry overlaps the query on at least LB cells.
        assert min(overlaps) >= lower

    @settings(max_examples=40, deadline=None)
    @given(st.lists(cells_strategy, min_size=1, max_size=5), cells_strategy)
    def test_upper_bound_never_exceeds_query_size(self, entry_cells, query_cells):
        entries = [node(f"d{i}", cells) for i, cells in enumerate(entry_cells)]
        leaf = make_leaf(entries)
        _, upper = leaf_intersection_bounds(leaf, frozenset(query_cells))
        assert upper <= len(query_cells)


class TestRandomisedAgainstDITSLeaves:
    def test_bounds_hold_on_real_index_leaves(self):
        rng = np.random.default_rng(5)
        nodes = []
        for i in range(40):
            ox, oy = int(rng.integers(0, 50)), int(rng.integers(0, 50))
            cells = {
                GRID.cell_id_from_coords(ox + int(rng.integers(0, 10)), oy + int(rng.integers(0, 10)))
                for _ in range(8)
            }
            nodes.append(node(f"ds-{i}", cells))
        from repro.index.dits import DITSLocalIndex

        index = DITSLocalIndex(leaf_capacity=5)
        index.build(nodes)
        query = nodes[0]
        for leaf in index.leaves():
            lower, upper = leaf_intersection_bounds(leaf, query.cells)
            overlaps = [len(entry.cells & query.cells) for entry in leaf.entries]
            assert min(overlaps) >= lower
            assert max(overlaps) <= upper
