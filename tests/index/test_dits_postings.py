"""Tests for the counted posting lists, full-cell sets and leaf ordinals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import DatasetNode
from repro.core.errors import DatasetNotFoundError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.index.dits import DITSLocalIndex

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))


def node(name: str, coords: set[tuple[int, int]]) -> DatasetNode:
    cells = {GRID.cell_id_from_coords(x, y) for x, y in coords}
    return DatasetNode.from_cells(name, cells, GRID)


def random_nodes(count: int, seed: int = 0) -> list[DatasetNode]:
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        ox, oy = int(rng.integers(0, 200)), int(rng.integers(0, 200))
        coords = {
            (ox + int(rng.integers(0, 20)), oy + int(rng.integers(0, 20)))
            for _ in range(int(rng.integers(3, 15)))
        }
        nodes.append(node(f"ds-{i}", coords))
    return nodes


class TestCountedPostings:
    def test_posting_iteration_yields_dataset_ids(self):
        index = DITSLocalIndex(leaf_capacity=10)
        index.build([node("a", {(0, 0), (1, 0)}), node("b", {(0, 0)})])
        leaf = index.leaf_for("a")
        shared = GRID.cell_id_from_coords(0, 0)
        assert sorted(leaf.inverted[shared]) == ["a", "b"]
        assert len(leaf.inverted[shared]) == 2

    def test_remove_entry_shrinks_postings(self):
        index = DITSLocalIndex(leaf_capacity=10)
        index.build([node("a", {(0, 0), (1, 0)}), node("b", {(0, 0)})])
        leaf = index.leaf_for("a")
        removed = leaf.remove_entry("a")
        assert removed.dataset_id == "a"
        shared = GRID.cell_id_from_coords(0, 0)
        lone = GRID.cell_id_from_coords(1, 0)
        assert list(leaf.inverted[shared]) == ["b"]
        assert lone not in leaf.inverted

    def test_remove_missing_entry_raises(self):
        index = DITSLocalIndex(leaf_capacity=10)
        index.build([node("a", {(0, 0)})])
        with pytest.raises(DatasetNotFoundError):
            index.leaf_for("a").remove_entry("zzz")


class TestFullCells:
    def test_full_cells_are_cells_shared_by_every_entry(self):
        index = DITSLocalIndex(leaf_capacity=10)
        index.build(
            [
                node("a", {(0, 0), (1, 0), (2, 0)}),
                node("b", {(0, 0), (1, 0)}),
                node("c", {(0, 0), (3, 3)}),
            ]
        )
        leaf = index.leaf_for("a")
        assert leaf.full_cells == {GRID.cell_id_from_coords(0, 0)}

    def test_full_cells_track_additions_and_removals(self):
        index = DITSLocalIndex(leaf_capacity=10)
        index.build([node("a", {(0, 0), (1, 0)}), node("b", {(0, 0), (1, 0)})])
        leaf = index.leaf_for("a")
        assert leaf.full_cells == {
            GRID.cell_id_from_coords(0, 0),
            GRID.cell_id_from_coords(1, 0),
        }
        leaf.add_entry(node("c", {(0, 0)}))
        assert leaf.full_cells == {GRID.cell_id_from_coords(0, 0)}
        leaf.remove_entry("c")
        assert leaf.full_cells == {
            GRID.cell_id_from_coords(0, 0),
            GRID.cell_id_from_coords(1, 0),
        }

    def test_full_cells_match_definition_on_random_build(self):
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(random_nodes(30, seed=3))
        for leaf in index.leaves():
            expected = {
                cell
                for cell, postings in leaf.inverted.items()
                if len(postings) == len(leaf.entries)
            }
            assert leaf.full_cells == expected
