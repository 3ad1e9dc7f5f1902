"""Tests for cell-based distances and the Lemma 4 node distance bounds."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import DatasetNode
from repro.core.distance import (
    cell_distance,
    cell_set_distance,
    exact_node_distance,
    node_distance_bounds,
)
from repro.core.errors import EmptyDatasetError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid

GRID = Grid(theta=6, space=BoundingBox(0, 0, 64, 64))


def cell(x: int, y: int) -> int:
    return GRID.cell_id_from_coords(x, y)


class TestCellDistance:
    def test_adjacent_cells(self):
        assert cell_distance(cell(0, 0), cell(1, 0)) == pytest.approx(1.0)
        assert cell_distance(cell(0, 0), cell(0, 1)) == pytest.approx(1.0)

    def test_diagonal_cells(self):
        assert cell_distance(cell(0, 0), cell(1, 1)) == pytest.approx(math.sqrt(2))

    def test_same_cell(self):
        assert cell_distance(cell(5, 5), cell(5, 5)) == 0.0

    def test_example3_distances(self):
        # Example 3 of the paper on the Fig. 2 grid: dist(S_D1, S_D2) = 1,
        # dist(S_D1, S_D3) = 1, dist(S_D2, S_D3) = sqrt(2).
        d1 = frozenset({9, 11})
        d2 = frozenset({1, 3})
        d3 = frozenset({12, 13})
        assert cell_set_distance(d1, d2) == pytest.approx(1.0)
        assert cell_set_distance(d1, d3) == pytest.approx(1.0)
        assert cell_set_distance(d2, d3) == pytest.approx(math.sqrt(2))


class TestCellSetDistance:
    def test_zero_when_sharing_a_cell(self):
        assert cell_set_distance({cell(0, 0), cell(3, 3)}, {cell(3, 3)}) == 0.0

    def test_minimum_over_pairs(self):
        a = {cell(0, 0), cell(10, 10)}
        b = {cell(0, 5), cell(20, 20)}
        assert cell_set_distance(a, b) == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            cell_set_distance(set(), {1})
        with pytest.raises(EmptyDatasetError):
            cell_set_distance({1}, set())

    def test_kdtree_path_matches_small_path(self):
        # Build two large, disjoint blocks so the KD-tree branch is taken and
        # compare against the obvious geometric answer.
        a = {cell(x, y) for x in range(0, 20) for y in range(0, 20)}
        b = {cell(x, y) for x in range(30, 50) for y in range(0, 20)}
        assert len(a) * len(b) > 2_048
        # Closest columns are x=19 and x=30, so the gap is 11 cells.
        assert cell_set_distance(a, b) == pytest.approx(11.0)

    def test_symmetry(self):
        a = {cell(1, 1), cell(2, 5)}
        b = {cell(9, 9), cell(4, 4)}
        assert cell_set_distance(a, b) == pytest.approx(cell_set_distance(b, a))


class TestNodeDistanceBounds:
    def make_node(self, name, cells):
        return DatasetNode.from_cells(name, cells, GRID)

    def test_paper_example6_style_bounds(self):
        # Example 6 of the paper: two 2x2 blocks of cells whose pivots are a
        # few cells apart; the exact distance must fall inside the Lemma 4
        # bounds computed from pivots and radii.
        query = self.make_node("q", {cell(0, 5), cell(1, 6), cell(0, 6), cell(1, 5)})
        data = self.make_node("d", {cell(5, 2), cell(6, 1), cell(5, 1), cell(6, 2)})
        lower, upper = node_distance_bounds(query, data)
        exact = exact_node_distance(query, data)
        assert lower <= exact <= upper
        pivot_distance = query.pivot.distance_to(data.pivot)
        assert lower == pytest.approx(max(pivot_distance - query.radius - data.radius, 0.0))
        assert upper == pytest.approx(pivot_distance + query.radius + data.radius)

    def test_bounds_sandwich_exact_distance(self):
        a = self.make_node("a", {cell(0, 0), cell(2, 1), cell(1, 3)})
        b = self.make_node("b", {cell(20, 20), cell(22, 25), cell(30, 21)})
        lower, upper = node_distance_bounds(a, b)
        exact = exact_node_distance(a, b)
        assert lower <= exact + 1e-9
        assert exact <= upper + 1e-9

    def test_lower_bound_clamped_at_zero(self):
        a = self.make_node("a", {cell(0, 0), cell(5, 5)})
        b = self.make_node("b", {cell(1, 1), cell(6, 6)})
        assert node_distance_bounds(a, b)[0] >= 0.0

    def test_bounds_follow_lemma_4(self):
        a = self.make_node("a", {cell(0, 0), cell(3, 3)})
        b = self.make_node("b", {cell(10, 10), cell(12, 14)})
        pivot_distance = a.pivot.distance_to(b.pivot)
        lower, upper = node_distance_bounds(a, b)
        assert lower == pytest.approx(pivot_distance - a.radius - b.radius)
        assert upper == pytest.approx(pivot_distance + a.radius + b.radius)


class TestBoundProperties:
    cells_strategy = st.sets(
        st.tuples(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63)),
        min_size=1,
        max_size=15,
    )

    @settings(max_examples=60, deadline=None)
    @given(cells_strategy, cells_strategy)
    def test_lemma4_sandwich(self, coords_a, coords_b):
        node_a = DatasetNode.from_cells("a", {cell(x, y) for x, y in coords_a}, GRID)
        node_b = DatasetNode.from_cells("b", {cell(x, y) for x, y in coords_b}, GRID)
        lower, upper = node_distance_bounds(node_a, node_b)
        exact = exact_node_distance(node_a, node_b)
        assert lower - 1e-9 <= exact <= upper + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(cells_strategy, cells_strategy)
    def test_exact_distance_symmetry(self, coords_a, coords_b):
        set_a = {cell(x, y) for x, y in coords_a}
        set_b = {cell(x, y) for x, y in coords_b}
        assert cell_set_distance(set_a, set_b) == pytest.approx(cell_set_distance(set_b, set_a))
