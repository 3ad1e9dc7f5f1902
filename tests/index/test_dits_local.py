"""Tests for the DITS-L local index (construction, structure, maintenance)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import DatasetNode
from repro.core.errors import (
    DatasetNotFoundError,
    IndexNotBuiltError,
    InvalidParameterError,
)
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.index.dits import DITSLocalIndex, InternalNode, LeafNode, _median_split

from set_oracle import assert_leaf_postings

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))


def node(name: str, coords: set[tuple[int, int]]) -> DatasetNode:
    return DatasetNode.from_cells(name, {GRID.cell_id_from_coords(x, y) for x, y in coords}, GRID)


def random_nodes(count: int, seed: int = 0, cells_per_node: int = 6) -> list[DatasetNode]:
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        origin_x = int(rng.integers(0, 240))
        origin_y = int(rng.integers(0, 240))
        coords = {
            (origin_x + int(rng.integers(0, 12)), origin_y + int(rng.integers(0, 12)))
            for _ in range(cells_per_node)
        }
        nodes.append(node(f"ds-{i}", coords))
    return nodes


def collect_leaf_ids(index: DITSLocalIndex) -> list[str]:
    ids: list[str] = []
    for leaf in index.leaves():
        ids.extend(leaf.dataset_ids())
    return ids


class TestConstruction:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            DITSLocalIndex(leaf_capacity=0)

    def test_empty_index(self):
        index = DITSLocalIndex()
        index.build([])
        assert len(index) == 0
        assert not index.is_built()
        with pytest.raises(IndexNotBuiltError):
            _ = index.root

    def test_single_dataset_is_single_leaf(self):
        index = DITSLocalIndex(leaf_capacity=4)
        index.build([node("only", {(1, 1)})])
        assert index.is_built()
        assert index.root.is_leaf()
        assert index.height() == 1
        assert index.node_count() == 1

    def test_every_dataset_lands_in_exactly_one_leaf(self):
        nodes = random_nodes(40, seed=1)
        index = DITSLocalIndex(leaf_capacity=5)
        index.build(nodes)
        leaf_ids = collect_leaf_ids(index)
        assert sorted(leaf_ids) == sorted(n.dataset_id for n in nodes)

    def test_leaf_capacity_respected_after_build(self):
        nodes = random_nodes(60, seed=2)
        index = DITSLocalIndex(leaf_capacity=7)
        index.build(nodes)
        for leaf in index.leaves():
            assert len(leaf) <= 7

    def test_internal_rects_enclose_children(self):
        nodes = random_nodes(50, seed=3)
        index = DITSLocalIndex(leaf_capacity=6)
        index.build(nodes)

        def check(tree_node):
            if isinstance(tree_node, InternalNode):
                assert tree_node.rect.contains_box(tree_node.left.rect)
                assert tree_node.rect.contains_box(tree_node.right.rect)
                check(tree_node.left)
                check(tree_node.right)
            else:
                assert isinstance(tree_node, LeafNode)
                for entry in tree_node.entries:
                    assert tree_node.rect.contains_box(entry.rect)

        check(index.root)

    def test_parent_pointers_consistent(self):
        nodes = random_nodes(30, seed=4)
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(nodes)

        def check(tree_node):
            if isinstance(tree_node, InternalNode):
                assert tree_node.left.parent is tree_node
                assert tree_node.right.parent is tree_node
                check(tree_node.left)
                check(tree_node.right)

        assert index.root.parent is None
        check(index.root)

    def test_height_logarithmic(self):
        nodes = random_nodes(64, seed=5)
        index = DITSLocalIndex(leaf_capacity=2)
        index.build(nodes)
        # 64 datasets with capacity 2 needs at least 32 leaves -> height >= 6,
        # and the median split keeps it close to balanced.
        assert 6 <= index.height() <= 12

    def test_leaf_inverted_index_matches_entries(self):
        nodes = random_nodes(25, seed=6)
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(nodes)
        for leaf in index.leaves():
            assert_leaf_postings(leaf)

    def test_root_summary(self):
        nodes = random_nodes(20, seed=7)
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(nodes)
        rect, pivot, radius, count = index.root_summary()
        assert count == 20
        assert rect.contains_point(pivot)
        assert radius == pytest.approx(rect.radius)


class TestMedianSplit:
    def test_split_is_non_trivial(self):
        nodes = random_nodes(9, seed=8)
        left, right = _median_split(nodes, 0)
        assert len(left) + len(right) == 9
        assert left and right

    def test_split_orders_by_dimension(self):
        nodes = random_nodes(10, seed=9)
        left, right = _median_split(nodes, 1)
        max_left = max(entry.pivot.y for entry in left)
        min_right = min(entry.pivot.y for entry in right)
        assert max_left <= min_right + 1e-9

    def test_split_single_entry_rejected(self):
        with pytest.raises(ValueError):
            _median_split(random_nodes(1), 0)

    def test_identical_pivots_still_split(self):
        same = [node(f"same-{i}", {(5, 5)}) for i in range(6)]
        left, right = _median_split(same, 0)
        assert left and right


class TestLookups:
    def test_get_and_contains(self):
        nodes = random_nodes(10, seed=10)
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(nodes)
        assert index.get("ds-3").dataset_id == "ds-3"
        assert "ds-3" in index
        assert "nope" not in index
        with pytest.raises(DatasetNotFoundError):
            index.get("nope")

    def test_leaf_for(self):
        nodes = random_nodes(10, seed=11)
        index = DITSLocalIndex(leaf_capacity=3)
        index.build(nodes)
        leaf = index.leaf_for("ds-0")
        assert "ds-0" in leaf.dataset_ids()
        with pytest.raises(DatasetNotFoundError):
            index.leaf_for("missing")

    def test_dataset_ids_sorted(self):
        nodes = random_nodes(10, seed=12)
        index = DITSLocalIndex(leaf_capacity=3)
        index.build(nodes)
        assert index.dataset_ids() == sorted(n.dataset_id for n in nodes)


class TestMaintenance:
    def test_insert_into_empty_index(self):
        index = DITSLocalIndex(leaf_capacity=4)
        index.build([])
        index.insert(node("first", {(0, 0)}))
        assert len(index) == 1
        assert index.is_built()

    def test_insert_duplicate_rejected(self):
        index = DITSLocalIndex(leaf_capacity=4)
        index.build([node("a", {(0, 0)})])
        with pytest.raises(ValueError):
            index.insert(node("a", {(1, 1)}))

    def test_insert_splits_overfull_leaf(self):
        index = DITSLocalIndex(leaf_capacity=2)
        index.build(random_nodes(2, seed=14))
        for extra in random_nodes(6, seed=15):
            renamed = DatasetNode(
                dataset_id="x-" + extra.dataset_id,
                rect=extra.rect,
                cells_array=extra.cells_array,
                point_count=extra.point_count,
            )
            index.insert(renamed)
        assert len(index) == 8
        for leaf in index.leaves():
            assert len(leaf) <= 2
        assert sorted(collect_leaf_ids(index)) == sorted(index.dataset_ids())

    def test_delete_reduces_and_keeps_structure(self):
        nodes = random_nodes(20, seed=16)
        index = DITSLocalIndex(leaf_capacity=3)
        index.build(nodes)
        for victim in ["ds-0", "ds-7", "ds-13"]:
            index.delete(victim)
            assert victim not in index
        assert len(index) == 17
        assert sorted(collect_leaf_ids(index)) == sorted(index.dataset_ids())

    def test_delete_unknown_rejected(self):
        index = DITSLocalIndex(leaf_capacity=3)
        index.build(random_nodes(5, seed=17))
        with pytest.raises(DatasetNotFoundError):
            index.delete("ghost")

    def test_delete_everything_empties_index(self):
        nodes = random_nodes(6, seed=18)
        index = DITSLocalIndex(leaf_capacity=2)
        index.build(nodes)
        for entry in nodes:
            index.delete(entry.dataset_id)
        assert len(index) == 0
        assert not index.is_built()

    def test_update_replaces_cells(self):
        nodes = random_nodes(12, seed=19)
        index = DITSLocalIndex(leaf_capacity=3)
        index.build(nodes)
        replacement = node("ds-4", {(200, 200), (201, 201)})
        index.update(replacement)
        assert index.get("ds-4").cells == replacement.cells
        leaf = index.leaf_for("ds-4")
        assert leaf.rect.contains_box(replacement.rect)

    def test_update_unknown_rejected(self):
        index = DITSLocalIndex(leaf_capacity=3)
        index.build(random_nodes(5, seed=20))
        with pytest.raises(DatasetNotFoundError):
            index.update(node("ghost", {(0, 0)}))

    def test_refit_after_insert_keeps_mbr_invariant(self):
        index = DITSLocalIndex(leaf_capacity=3)
        index.build(random_nodes(15, seed=21))
        index.insert(node("far-away", {(250, 250)}))

        def check(tree_node):
            if isinstance(tree_node, InternalNode):
                assert tree_node.rect.contains_box(tree_node.left.rect)
                assert tree_node.rect.contains_box(tree_node.right.rect)
                check(tree_node.left)
                check(tree_node.right)

        check(index.root)
        assert index.root.rect.contains_point(index.get("far-away").pivot)


class TestStructureProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=10_000))
    def test_build_preserves_all_datasets(self, count, capacity, seed):
        nodes = random_nodes(count, seed=seed)
        index = DITSLocalIndex(leaf_capacity=capacity)
        index.build(nodes)
        assert sorted(collect_leaf_ids(index)) == sorted(n.dataset_id for n in nodes)
        for leaf in index.leaves():
            assert len(leaf) <= max(capacity, 1)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=5, max_value=25), st.integers(min_value=0, max_value=1000))
    def test_insert_then_delete_round_trip(self, count, seed):
        nodes = random_nodes(count, seed=seed)
        index = DITSLocalIndex(leaf_capacity=3)
        index.build(nodes[: count // 2])
        for entry in nodes[count // 2:]:
            index.insert(entry)
        for entry in nodes[count // 2:]:
            index.delete(entry.dataset_id)
        assert sorted(index.dataset_ids()) == sorted(
            n.dataset_id for n in nodes[: count // 2]
        )
