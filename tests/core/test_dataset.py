"""Tests for spatial datasets, cell sets and dataset nodes."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dataset import CellSet, DatasetNode, SpatialDataset
from repro.core.errors import EmptyDatasetError
from repro.core.geometry import BoundingBox, Point
from repro.core.grid import Grid

GRID = Grid(theta=6, space=BoundingBox(0, 0, 64, 64))


class TestSpatialDataset:
    def test_from_coordinates(self):
        dataset = SpatialDataset.from_coordinates("d", [(1, 2), (3, 4)])
        assert len(dataset) == 2
        assert dataset.points[0] == Point(1.0, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            SpatialDataset(dataset_id="d", points=())

    def test_bounding_box(self):
        dataset = SpatialDataset.from_coordinates("d", [(1, 5), (4, 2)])
        assert dataset.bounding_box.as_tuple() == (1, 2, 4, 5)

    def test_iteration(self):
        dataset = SpatialDataset.from_coordinates("d", [(0, 0), (1, 1)])
        assert [p.as_tuple() for p in dataset] == [(0.0, 0.0), (1.0, 1.0)]

    def test_to_node_discretises_the_points(self):
        dataset = SpatialDataset.from_coordinates("d", [(0.5, 0.5), (0.6, 0.6), (10.5, 20.5)])
        node = dataset.to_node(GRID)
        assert node.dataset_id == "d"
        assert node.cells == {GRID.cell_id_of(point) for point in dataset}
        assert node.point_count == 3


class TestCellSet:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            CellSet(dataset_id="d", cells_array=np.array([], dtype=np.int64))

    def test_membership_and_length(self):
        cell_set = CellSet(dataset_id="d", cells_array=np.array([1, 2, 3]))
        assert 2 in cell_set
        assert 9 not in cell_set
        assert len(cell_set) == 3
        assert cell_set.coverage == 3


class TestDatasetNode:
    def test_from_cells_builds_mbr_in_grid_coordinates(self):
        cells = {GRID.cell_id_from_coords(1, 1), GRID.cell_id_from_coords(4, 3)}
        node = DatasetNode.from_cells("d", cells, GRID)
        assert node.rect.as_tuple() == (1, 1, 4, 3)
        assert node.pivot == Point(2.5, 2.0)
        assert node.radius == pytest.approx(node.rect.radius)

    def test_empty_cells_rejected(self):
        with pytest.raises(EmptyDatasetError):
            DatasetNode.from_cells("d", set(), GRID)

    def test_from_dataset(self):
        dataset = SpatialDataset.from_coordinates("d", [(0.5, 0.5), (10.5, 20.5)])
        node = DatasetNode.from_dataset(dataset, GRID)
        assert node.dataset_id == "d"
        assert node.point_count == 2
        assert node.coverage == 2

    def test_wire_payload_is_serialisable(self):
        node = DatasetNode.from_cells("a", {3, 1, 2}, GRID)
        payload = node.wire_payload()
        assert payload["id"] == "a"
        assert payload["cells"] == [1, 2, 3]
        assert len(payload["rect"]) == 4

    def test_merged_with_unions_everything(self):
        node_a = DatasetNode.from_cells("a", {GRID.cell_id_from_coords(0, 0)}, GRID)
        node_b = DatasetNode.from_cells("b", {GRID.cell_id_from_coords(5, 5)}, GRID)
        merged = node_a.merged_with(node_b, merged_id="m")
        assert merged.dataset_id == "m"
        assert merged.cells == node_a.cells | node_b.cells
        assert merged.rect.contains_box(node_a.rect)
        assert merged.rect.contains_box(node_b.rect)

    def test_cached_cell_vectors_are_read_only(self):
        # The cached vector is shipped on the wire as is; nobody may write into it.
        dataset = SpatialDataset.from_coordinates("d", [(1, 5), (4, 2)])
        direct = DatasetNode(
            dataset_id="l", rect=BoundingBox(0, 0, 1, 1), cells_array=np.array([3, 1])
        )
        arrays = (
            dataset.to_node(GRID).cells_array,
            DatasetNode.from_cells("c", {5, 2}, GRID).cells_array,
            direct.cells_array,
            CellSet(dataset_id="s", cells_array=np.array([4])).cells_array,
        )
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0


class TestDatasetNodeProperties:
    cells_strategy = st.sets(
        st.integers(min_value=0, max_value=GRID.total_cells - 1), min_size=1, max_size=40
    )

    @given(cells_strategy)
    def test_coverage_equals_cell_count(self, cells):
        node = DatasetNode.from_cells("d", cells, GRID)
        assert node.coverage == len(cells)

    @given(cells_strategy, cells_strategy)
    def test_merge_coverage_is_union_size(self, cells_a, cells_b):
        node_a = DatasetNode.from_cells("a", cells_a, GRID)
        node_b = DatasetNode.from_cells("b", cells_b, GRID)
        merged = node_a.merged_with(node_b)
        assert merged.coverage == len(set(cells_a) | set(cells_b))


class TestSingleStoredForm:
    """The sorted int64 array is the one stored form; ``.cells`` is a lazy view."""

    @pytest.mark.parametrize("cls", [CellSet, DatasetNode])
    def test_one_constructor_cell_field(self, cls):
        init_fields = [f.name for f in dataclasses.fields(cls) if f.init and "cell" in f.name]
        assert init_fields == ["cells_array"]

    def test_view_is_built_once_and_matches_the_array(self):
        node = DatasetNode.from_cells("a", {9, 3, 5}, GRID)
        cell_set = CellSet(dataset_id="s", cells_array=np.array([7, 2, 7]))
        for obj in (node, cell_set):
            assert obj._cells_view is None
            view = obj.cells
            assert obj.cells is view
            assert view == frozenset(obj.cells_array.tolist())

    def test_array_reads_do_not_build_the_view(self):
        node_a = DatasetNode.from_cells("a", {1, 2, 3}, GRID)
        node_b = DatasetNode.from_cells("b", {3, 4}, GRID)
        node_a.coverage, node_a.wire_payload()
        merged = node_a.merged_with(node_b)
        assert node_a._cells_view is None and node_b._cells_view is None
        assert merged._cells_view is None

    def test_constructor_canonicalises_without_touching_the_input(self):
        raw = np.array([5, 1, 5, 3])
        node = DatasetNode(dataset_id="d", rect=BoundingBox(0, 0, 1, 1), cells_array=raw)
        assert node.cells_array.tolist() == [1, 3, 5]
        assert raw.tolist() == [5, 1, 5, 3] and raw.flags.writeable
        # A canonical vector is adopted as is, so renamed copies share it.
        renamed = DatasetNode(dataset_id="r", rect=node.rect, cells_array=node.cells_array)
        assert renamed.cells_array is node.cells_array

    @given(TestDatasetNodeProperties.cells_strategy, TestDatasetNodeProperties.cells_strategy)
    def test_merged_with_is_the_frozenset_union(self, cells_a, cells_b):
        node_a = DatasetNode.from_cells("a", cells_a, GRID)
        node_b = DatasetNode.from_cells("b", cells_b, GRID)
        merged = node_a.merged_with(node_b)
        assert merged.cells == frozenset(cells_a) | frozenset(cells_b)
        assert merged.cells_array.tolist() == sorted(set(cells_a) | set(cells_b))


class TestValueSemantics:
    """Equality and hashing compare values, as they did when ``cells`` was stored."""

    def test_equal_nodes(self):
        a = DatasetNode.from_cells("a", {4, 1, 2}, GRID)
        b = DatasetNode.from_cells("a", [2, 4, 1, 1], GRID)
        c = DatasetNode(dataset_id="a", rect=a.rect, cells_array=np.array([1, 2, 4]), point_count=3)
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1

    @pytest.mark.parametrize(
        "other",
        [
            DatasetNode.from_cells("b", {1, 2, 4}, GRID),
            DatasetNode.from_cells("a", {1, 2, 5}, GRID),
            DatasetNode.from_cells("a", {1, 2, 4}, GRID, point_count=9),
            DatasetNode(
                dataset_id="a", rect=BoundingBox(0, 0, 9, 9), cells_array=np.array([1, 2, 4])
            ),
        ],
        ids=["id", "cells", "point_count", "rect"],
    )
    def test_unequal_nodes(self, other):
        node = DatasetNode.from_cells("a", {1, 2, 4}, GRID)
        assert node != other
        assert hash(node) != hash(other)
        assert len({node, other}) == 2

    def test_cell_sets(self):
        a = CellSet(dataset_id="a", cells_array=np.array([3, 1]))
        assert a == CellSet(dataset_id="a", cells_array=np.array([1, 3, 3]))
        assert hash(a) == hash(CellSet(dataset_id="a", cells_array=np.array([1, 3])))
        for other in (
            CellSet(dataset_id="b", cells_array=np.array([1, 3])),
            CellSet(dataset_id="a", cells_array=np.array([1, 4])),
        ):
            assert a != other and hash(a) != hash(other)

    def test_other_types_are_never_equal(self):
        node = DatasetNode.from_cells("a", {1}, GRID)
        cell_set = CellSet(dataset_id="a", cells_array=np.array([1]))
        assert node != cell_set and cell_set != node
        assert node != frozenset({1}) and cell_set != frozenset({1})
