"""Tests for the DITS-L leaves' CSR postings against the frozenset oracle.

Every leaf's ``cells`` / ``indptr`` / ``owners`` / ``full`` arrays must equal
the inverted index of its entries' frozensets (``set_oracle``), after every
kind of mutation the tree performs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import DatasetNode
from repro.core.errors import DatasetNotFoundError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.index.dits import DITSLocalIndex

from set_oracle import assert_leaf_postings

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))


def node(name: str, coords: set[tuple[int, int]]) -> DatasetNode:
    cells = {GRID.cell_id_from_coords(x, y) for x, y in coords}
    return DatasetNode.from_cells(name, cells, GRID)


def random_nodes(count: int, seed: int = 0, prefix: str = "ds") -> list[DatasetNode]:
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        ox, oy = int(rng.integers(0, 200)), int(rng.integers(0, 200))
        coords = {
            (ox + int(rng.integers(0, 20)), oy + int(rng.integers(0, 20)))
            for _ in range(int(rng.integers(3, 15)))
        }
        nodes.append(node(f"{prefix}-{i}", coords))
    return nodes


def assert_all_leaves(index: DITSLocalIndex) -> None:
    leaves = list(index.leaves())
    assert sum(len(leaf) for leaf in leaves) == len(index)
    for leaf in leaves:
        assert_leaf_postings(leaf)


def cell(x: int, y: int) -> int:
    return GRID.cell_id_from_coords(x, y)


def owner_ids(leaf, cell_id: int) -> list[str]:
    position = int(np.searchsorted(leaf.cells, cell_id))
    assert leaf.cells[position] == cell_id
    owners = leaf.owners[leaf.indptr[position] : leaf.indptr[position + 1]]
    return [leaf.entries[ordinal].dataset_id for ordinal in owners.tolist()]


class TestPostings:
    def test_postings_name_the_datasets_holding_a_cell(self):
        index = DITSLocalIndex(leaf_capacity=10)
        index.build([node("a", {(0, 0), (1, 0)}), node("b", {(0, 0)})])
        leaf = index.leaf_for("a")
        assert sorted(owner_ids(leaf, cell(0, 0))) == ["a", "b"]
        assert owner_ids(leaf, cell(1, 0)) == ["a"]
        assert_leaf_postings(leaf)

    def test_remove_entry_shrinks_postings(self):
        index = DITSLocalIndex(leaf_capacity=10)
        index.build([node("a", {(0, 0), (1, 0)}), node("b", {(0, 0)})])
        leaf = index.leaf_for("a")
        removed = leaf.remove_entry("a")
        assert removed.dataset_id == "a"
        assert owner_ids(leaf, cell(0, 0)) == ["b"]
        assert cell(1, 0) not in leaf.cells.tolist()
        assert_leaf_postings(leaf)

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
        assert leaf.cells[leaf.full].tolist() == [cell(0, 0)]
        assert_leaf_postings(leaf)

    def test_full_cells_track_additions_and_removals(self):
        index = DITSLocalIndex(leaf_capacity=10)
        index.build([node("a", {(0, 0), (1, 0)}), node("b", {(0, 0), (1, 0)})])
        leaf = index.leaf_for("a")
        assert set(leaf.cells[leaf.full].tolist()) == {cell(0, 0), cell(1, 0)}
        leaf.add_entry(node("c", {(0, 0)}))
        assert leaf.cells[leaf.full].tolist() == [cell(0, 0)]
        assert_leaf_postings(leaf)
        leaf.remove_entry("c")
        assert set(leaf.cells[leaf.full].tolist()) == {cell(0, 0), cell(1, 0)}
        assert_leaf_postings(leaf)

    def test_full_cells_match_definition_on_random_build(self):
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(random_nodes(30, seed=3))
        assert_all_leaves(index)


class TestPostingsAfterEveryMutation:
    """Each mutation kind of the tree leaves every leaf equal to the oracle."""

    def test_build_insert_delete_update(self):
        nodes = random_nodes(40, seed=8)
        index = DITSLocalIndex(leaf_capacity=5)
        index.build(nodes[:30])
        assert_all_leaves(index)
        for fresh in nodes[30:]:
            index.insert(fresh)
            assert_all_leaves(index)
        for victim in nodes[:10]:
            index.delete(victim.dataset_id)
            assert_all_leaves(index)
        for target, moved in zip(nodes[10:20], random_nodes(10, seed=9)):
            index.update(DatasetNode.from_cells(target.dataset_id, moved.cells_array, GRID))
            assert_all_leaves(index)

    def test_in_place_update(self):
        index = DITSLocalIndex(leaf_capacity=10)
        index.build([node("a", {(0, 0), (1, 0)}), node("b", {(0, 0)}), node("c", {(2, 2)})])
        leaf = index.leaf_for("a")
        index.update(node("a", {(0, 0), (1, 1)}))
        assert index.leaf_for("a") is leaf
        assert sorted(owner_ids(leaf, cell(0, 0))) == ["a", "b"]
        assert cell(1, 0) not in leaf.cells.tolist()
        assert_all_leaves(index)

    def test_split(self):
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(random_nodes(4, seed=10))
        assert index.height() == 1
        index.insert(random_nodes(1, seed=11, prefix="new")[0])
        assert index.height() == 2
        assert_all_leaves(index)

    def test_underflow_merge(self):
        nodes = random_nodes(90, seed=5)
        index = DITSLocalIndex(leaf_capacity=16)
        index.build(nodes)
        for victim in nodes[:78]:
            index.delete(victim.dataset_id)
            assert_all_leaves(index)
        assert index.rebalance_stats.leaf_merges > 0

    def test_scapegoat_rebuild(self):
        index = DITSLocalIndex(leaf_capacity=2)
        for i in range(64):
            index.insert(node(f"d-{i:03d}", {(2 * i, 2 * i), (2 * i + 1, 2 * i)}))
            assert_all_leaves(index)
        assert index.rebalance_stats.rebalance_count > 0


@settings(max_examples=25, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=6),
    ops=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_postings_match_the_oracle_under_random_churn(capacity, ops, seed):
    """Random insert (0) / delete (1) / update (2) streams keep every leaf exact."""
    rng = np.random.default_rng(seed)
    pool = iter(random_nodes(len(ops) + 10, seed=seed))
    index = DITSLocalIndex(leaf_capacity=capacity)
    index.build([next(pool) for _ in range(10)])
    for op in ops:
        live = sorted(index.dataset_ids())
        if op == 0 or not live:
            index.insert(next(pool))
        elif op == 1:
            index.delete(live[int(rng.integers(len(live)))])
        else:
            target = live[int(rng.integers(len(live)))]
            moved = next(pool)
            index.update(DatasetNode.from_cells(target, moved.cells_array, GRID))
        assert_all_leaves(index)
