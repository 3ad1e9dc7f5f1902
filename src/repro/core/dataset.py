"""Spatial datasets, cell-based datasets and DITS dataset nodes.

Three representations of the same data appear throughout the paper:

* :class:`SpatialDataset` — the raw collection of longitude/latitude points
  (Definition 2), identified by a string or integer ID.
* :class:`CellSet` — the *cell-based dataset* (Definition 5): the set of grid
  cell IDs touched by at least one point, produced by a :class:`Grid`.
* :class:`DatasetNode` — the per-dataset entry stored in DITS (Definition
  12): the dataset ID, its MBR, pivot, radius and its cell set.

All search algorithms consume :class:`DatasetNode` objects; the raw points
are only needed when building nodes or re-gridding at a different
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import EmptyDatasetError
from repro.core.geometry import BoundingBox, Point
from repro.core.grid import Grid
from repro.utils import cellsets

__all__ = ["SpatialDataset", "CellSet", "DatasetNode"]

DatasetId = str


def _cached_cells_array(obj: "CellSet | DatasetNode") -> np.ndarray:
    """Shared lazy cache: sorted read-only int64 vector of ``obj.cells``, computed once."""
    array = obj._cells_array
    if array is None:
        array = cellsets.as_cell_array(obj.cells)
        array.flags.writeable = False
        object.__setattr__(obj, "_cells_array", array)
    return array


@dataclass(frozen=True, slots=True)
class SpatialDataset:
    """A named collection of 2-D spatial points (Definition 2)."""

    dataset_id: DatasetId
    points: tuple[Point, ...]

    @classmethod
    def from_coordinates(
        cls, dataset_id: DatasetId, coordinates: "Iterable[Sequence[float]] | np.ndarray"
    ) -> "SpatialDataset":
        """Build a dataset from an iterable of ``(x, y)`` pairs."""
        if isinstance(coordinates, np.ndarray):
            # ``tolist`` yields native floats directly, avoiding a per-row
            # numpy scalar round-trip.
            points = tuple(Point(x, y) for x, y in coordinates.tolist())
        else:
            points = tuple(Point(float(x), float(y)) for x, y in coordinates)
        return cls(dataset_id=dataset_id, points=points)

    def __post_init__(self) -> None:
        if not self.points:
            raise EmptyDatasetError(f"dataset {self.dataset_id!r} has no points")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    @property
    def bounding_box(self) -> BoundingBox:
        """Minimum bounding rectangle of the points."""
        return BoundingBox.from_points(self.points)

    def to_cell_set(self, grid: Grid) -> "CellSet":
        """Discretise the dataset onto ``grid`` (Definition 5).

        Runs one vectorized discretisation pass over all points instead of a
        per-point Python loop; the resulting sorted cell vector is cached on
        the cell set so later set algebra can reuse it.
        """
        array = grid.cell_ids_of_batch(self.points)
        array.flags.writeable = False
        cell_set = CellSet(dataset_id=self.dataset_id, cells=frozenset(array.tolist()))
        object.__setattr__(cell_set, "_cells_array", array)
        return cell_set

    def to_node(self, grid: Grid) -> "DatasetNode":
        """Build the DITS dataset node for this dataset under ``grid``."""
        return DatasetNode.from_dataset(self, grid)


@dataclass(frozen=True, slots=True)
class CellSet:
    """A cell-based dataset: the set of grid cell IDs covered by a dataset."""

    dataset_id: DatasetId
    cells: frozenset[int]
    _cells_array: "np.ndarray | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.cells:
            raise EmptyDatasetError(f"cell set {self.dataset_id!r} is empty")

    @property
    def cells_array(self) -> np.ndarray:
        """Sorted int64 vector of the cell IDs (computed once, then cached)."""
        return _cached_cells_array(self)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[int]:
        return iter(self.cells)

    def __contains__(self, cell_id: int) -> bool:
        return cell_id in self.cells

    @property
    def coverage(self) -> int:
        """Spatial coverage: the number of distinct cells."""
        return len(self.cells)

    def overlap_with(self, other: "CellSet | frozenset[int] | set[int]") -> int:
        """Size of the intersection with another cell set."""
        if isinstance(other, CellSet):
            if cellsets.use_vector():
                return cellsets.intersection_size(self.cells_array, other.cells_array)
            other_cells = other.cells
        else:
            other_cells = other
        return len(self.cells & other_cells)

    def union_with(self, other: "CellSet | frozenset[int] | set[int]") -> frozenset[int]:
        """Union of the two cell sets."""
        other_cells = other.cells if isinstance(other, CellSet) else other
        return self.cells | other_cells


@dataclass(frozen=True, slots=True)
class DatasetNode:
    """A DITS dataset node (Definition 12).

    Attributes
    ----------
    dataset_id:
        Identifier of the underlying dataset.
    rect:
        Minimum bounding rectangle of the dataset in grid coordinates (the
        same coordinate system as the cell IDs, so distances are in cell
        units and directly comparable with the connectivity threshold
        ``delta``).
    pivot:
        Centre of ``rect``.
    radius:
        Half of the diagonal of ``rect``.
    cells:
        The cell-based dataset.
    point_count:
        Number of raw points, kept for statistics and size accounting.
    """

    dataset_id: DatasetId
    rect: BoundingBox
    cells: frozenset[int]
    point_count: int = 0
    pivot: Point = field(init=False)
    radius: float = field(init=False)
    _cells_array: "np.ndarray | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.cells:
            raise EmptyDatasetError(f"dataset node {self.dataset_id!r} has no cells")
        object.__setattr__(self, "pivot", self.rect.center)
        object.__setattr__(self, "radius", self.rect.radius)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dataset(cls, dataset: SpatialDataset, grid: Grid) -> "DatasetNode":
        """Build a node from raw points: discretise, then take the cell MBR."""
        array = grid.cell_ids_of_batch(dataset.points)
        return cls._from_cell_array(
            dataset.dataset_id, array, grid, point_count=len(dataset)
        )

    @classmethod
    def from_cells(
        cls,
        dataset_id: DatasetId,
        cells: Iterable[int],
        grid: Grid,
        point_count: int = 0,
    ) -> "DatasetNode":
        """Build a node directly from cell IDs under ``grid``."""
        array = cellsets.as_cell_array(cells)
        if array.size == 0:
            raise EmptyDatasetError(f"dataset node {dataset_id!r} has no cells")
        return cls._from_cell_array(dataset_id, array, grid, point_count)

    @classmethod
    def _from_cell_array(
        cls,
        dataset_id: DatasetId,
        array: np.ndarray,
        grid: Grid,
        point_count: int = 0,
    ) -> "DatasetNode":
        """Build a node from a sorted cell vector (one batch MBR computation)."""
        cols, rows = grid.cells_to_coords_batch(array)
        rect = BoundingBox(
            int(cols.min()), int(rows.min()), int(cols.max()), int(rows.max())
        )
        node = cls(
            dataset_id=dataset_id,
            rect=rect,
            cells=frozenset(array.tolist()),
            point_count=point_count or int(array.size),
        )
        array.flags.writeable = False
        object.__setattr__(node, "_cells_array", array)
        return node

    @property
    def cells_array(self) -> np.ndarray:
        """Sorted int64 vector of the cell IDs (computed once, then cached)."""
        return _cached_cells_array(self)

    @classmethod
    def from_cell_set(cls, cell_set: CellSet, grid: Grid, point_count: int = 0) -> "DatasetNode":
        """Build a node from an existing :class:`CellSet`."""
        return cls.from_cells(cell_set.dataset_id, cell_set.cells, grid, point_count)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def coverage(self) -> int:
        """Number of distinct cells covered by the dataset."""
        return len(self.cells)

    def overlap_with(self, other: "DatasetNode | frozenset[int] | set[int]") -> int:
        """Intersection size with another node or raw cell set."""
        if isinstance(other, DatasetNode):
            if cellsets.use_vector():
                return cellsets.intersection_size(self.cells_array, other.cells_array)
            other_cells = other.cells
        else:
            other_cells = other
        return len(self.cells & other_cells)

    def as_cell_set(self) -> CellSet:
        """The node's cell-based dataset as a :class:`CellSet`."""
        return CellSet(dataset_id=self.dataset_id, cells=self.cells)

    def wire_payload(self) -> dict[str, object]:
        """Compact representation used for communication-byte accounting."""
        return {
            "id": self.dataset_id,
            "rect": self.rect.as_tuple(),
            "cells": self.cells_array.tolist(),
        }

    def merged_with(self, other: "DatasetNode", merged_id: DatasetId = "merged") -> "DatasetNode":
        """Node covering the union of the two nodes' cells and MBRs.

        This is the *spatial merge* used by CoverageSearch: after a dataset is
        added to the result set, the query node is replaced by the merged node
        so only one connectivity search per iteration is required.
        """
        return DatasetNode(
            dataset_id=merged_id,
            rect=self.rect.union(other.rect),
            cells=self.cells | other.cells,
            point_count=self.point_count + other.point_count,
        )
