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


def _frozen_cell_array(cells: "Iterable[int] | np.ndarray") -> np.ndarray:
    """The one stored cell form: a sorted, unique, read-only int64 vector.

    An int64 vector that owns its data and is already sorted and unique is
    adopted (and frozen) in place, so nodes built from another node's vector
    share it; anything else is converted into a fresh vector.
    """
    if (
        isinstance(cells, np.ndarray)
        and cells.dtype == cellsets.CELL_DTYPE
        and cells.ndim == 1
        and cells.flags.owndata
        and bool(np.all(cells[1:] > cells[:-1]))
    ):
        array = cells
    else:
        array = cellsets.as_cell_array(cells)
    array.flags.writeable = False
    return array


def _cells_view(obj: "CellSet | DatasetNode") -> frozenset[int]:
    """Shared lazy cache: ``obj.cells_array`` as a frozenset, built on first access."""
    view = obj._cells_view
    if view is None:
        view = frozenset(obj.cells_array.tolist())
        object.__setattr__(obj, "_cells_view", view)
    return view


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

    def to_node(self, grid: Grid) -> "DatasetNode":
        """Build the DITS dataset node for this dataset under ``grid``."""
        return DatasetNode.from_dataset(self, grid)


@dataclass(frozen=True, slots=True, eq=False)
class CellSet:
    """A cell-based dataset: the set of grid cell IDs covered by a dataset.

    ``cells_array`` (sorted, unique, read-only int64) is the one stored form;
    ``cells`` is a frozenset view of it, built on first access and cached.
    """

    dataset_id: DatasetId
    cells_array: np.ndarray
    _cells_view: "frozenset[int] | None" = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        array = _frozen_cell_array(self.cells_array)
        if array.size == 0:
            raise EmptyDatasetError(f"cell set {self.dataset_id!r} is empty")
        object.__setattr__(self, "cells_array", array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellSet):
            return NotImplemented
        return self.dataset_id == other.dataset_id and np.array_equal(
            self.cells_array, other.cells_array
        )

    def __hash__(self) -> int:
        return hash((self.dataset_id, self.cells_array.tobytes()))

    @property
    def cells(self) -> frozenset[int]:
        """The cell IDs as a frozenset (a view built once, then cached)."""
        return _cells_view(self)

    def __len__(self) -> int:
        return self.cells_array.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.cells_array.tolist())

    def __contains__(self, cell_id: int) -> bool:
        return cell_id in self.cells

    @property
    def coverage(self) -> int:
        """Spatial coverage: the number of distinct cells."""
        return self.cells_array.size

@dataclass(frozen=True, slots=True, eq=False)
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
    cells_array:
        The cell-based dataset: sorted, unique, read-only int64 cell IDs, the
        one stored form.  ``cells`` is a frozenset view of it, built on first
        access and cached; the store, index and CJSP paths never build it.
    point_count:
        Number of raw points, kept for statistics and size accounting.
    """

    dataset_id: DatasetId
    rect: BoundingBox
    cells_array: np.ndarray
    point_count: int = 0
    pivot: Point = field(init=False)
    radius: float = field(init=False)
    _cells_view: "frozenset[int] | None" = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        array = _frozen_cell_array(self.cells_array)
        if array.size == 0:
            raise EmptyDatasetError(f"dataset node {self.dataset_id!r} has no cells")
        object.__setattr__(self, "cells_array", array)
        object.__setattr__(self, "pivot", self.rect.center)
        object.__setattr__(self, "radius", self.rect.radius)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatasetNode):
            return NotImplemented
        return (
            self.dataset_id == other.dataset_id
            and self.rect == other.rect
            and self.point_count == other.point_count
            and np.array_equal(self.cells_array, other.cells_array)
        )

    def __hash__(self) -> int:
        return hash((self.dataset_id, self.rect, self.point_count, self.cells_array.tobytes()))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dataset(cls, dataset: SpatialDataset, grid: Grid) -> "DatasetNode":
        """Build a node from raw points: discretise, then take the cell MBR."""
        array = grid.cell_ids_of_batch(dataset.points)
        return cls.from_cells(dataset.dataset_id, array, grid, point_count=len(dataset))

    @classmethod
    def from_cells(
        cls,
        dataset_id: DatasetId,
        cells: "Iterable[int] | np.ndarray",
        grid: Grid,
        point_count: int = 0,
    ) -> "DatasetNode":
        """Build a node from cell IDs under ``grid`` (one batch MBR computation)."""
        array = _frozen_cell_array(cells)
        if array.size == 0:
            raise EmptyDatasetError(f"dataset node {dataset_id!r} has no cells")
        cols, rows = grid.cells_to_coords_batch(array)
        rect = BoundingBox(
            int(cols.min()), int(rows.min()), int(cols.max()), int(rows.max())
        )
        return cls(
            dataset_id=dataset_id,
            rect=rect,
            cells_array=array,
            point_count=point_count or int(array.size),
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def cells(self) -> frozenset[int]:
        """The cell IDs as a frozenset (a view built once, then cached)."""
        return _cells_view(self)

    @property
    def coverage(self) -> int:
        """Number of distinct cells covered by the dataset."""
        return self.cells_array.size

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
            cells_array=cellsets.union(self.cells_array, other.cells_array),
            point_count=self.point_count + other.point_count,
        )
