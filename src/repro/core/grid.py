"""Grid partition of a 2-D space at resolution ``theta`` (Definition 4).

The grid divides a rectangular *data space* into ``2**theta x 2**theta``
equal-sized cells.  Each cell is identified by a single non-negative integer
obtained from the z-order (Morton) interleaving of its column/row
coordinates, which keeps nearby cells numerically close.

A :class:`Grid` is the bridge between raw spatial points (longitude /
latitude) and the *cell-based dataset* representation (Definition 5) that all
search algorithms operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.geometry import BoundingBox, Point
from repro.utils.zorder import (
    zorder_decode,
    zorder_decode_batch,
    zorder_encode,
    zorder_encode_batch,
)

__all__ = ["Grid", "WORLD_SPACE"]

#: The whole-globe data space used by default (longitude x latitude degrees).
WORLD_SPACE = BoundingBox(-180.0, -90.0, 180.0, 90.0)

_MAX_THETA = 20


@dataclass(frozen=True, slots=True)
class Grid:
    """A ``2**theta x 2**theta`` uniform grid over ``space``.

    Parameters
    ----------
    theta:
        Resolution exponent; the paper evaluates ``theta in {10, .., 14}``.
    space:
        The data space covered by the grid.  Points outside the space are
        clamped onto the boundary cells so that slightly out-of-range
        coordinates (a common artefact of real GPS data) never raise.
    """

    theta: int
    space: BoundingBox = WORLD_SPACE

    def __post_init__(self) -> None:
        if not 1 <= self.theta <= _MAX_THETA:
            raise InvalidParameterError(
                f"theta must be in [1, {_MAX_THETA}], got {self.theta}"
            )
        if self.space.width <= 0 or self.space.height <= 0:
            raise InvalidParameterError("grid space must have positive extent")

    # ------------------------------------------------------------------ #
    # Basic quantities
    # ------------------------------------------------------------------ #
    @property
    def cells_per_side(self) -> int:
        """Number of cells along each axis (``2**theta``)."""
        return 1 << self.theta

    @property
    def total_cells(self) -> int:
        """Total number of cells in the grid."""
        return self.cells_per_side * self.cells_per_side

    @property
    def cell_width(self) -> float:
        """Width ``nu`` of a single cell."""
        return self.space.width / self.cells_per_side

    @property
    def cell_height(self) -> float:
        """Height ``mu`` of a single cell."""
        return self.space.height / self.cells_per_side

    # ------------------------------------------------------------------ #
    # Point <-> cell conversions
    # ------------------------------------------------------------------ #
    def cell_id_of(self, point: Point | Sequence[float]) -> int:  # public-api: batch oracle
        """Z-order cell ID of the cell containing ``point``.

        Points outside the data space are clamped to the border cells so
        that the mapping is total.
        """
        x, y = (point.x, point.y) if isinstance(point, Point) else (point[0], point[1])
        side = self.cells_per_side
        col = int((x - self.space.min_x) / self.cell_width)
        row = int((y - self.space.min_y) / self.cell_height)
        return zorder_encode(min(max(col, 0), side - 1), min(max(row, 0), side - 1))

    def cell_ids_of(self, points: Iterable[Point | Sequence[float]]) -> set[int]:
        """Set of cell IDs covered by ``points`` (the cell-based dataset)."""
        return set(self.cell_ids_of_batch(points).tolist())

    # ------------------------------------------------------------------ #
    # Batch point <-> cell conversions (the discretisation hot path)
    # ------------------------------------------------------------------ #
    def cell_coords_of_batch(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Grid coordinates of points: ``(cols, rows)`` int64 vectors.

        Uses the same truncating division and border clamping as the scalar
        :meth:`cell_id_of`, so results are element-wise identical for finite
        coordinates.
        Non-finite coordinates raise (the scalar path's ``int()`` would),
        and clamping happens before the int64 cast so out-of-range values
        land on the border cells instead of overflowing.
        """
        side = self.cells_per_side
        cols_f = (xs - self.space.min_x) / self.cell_width
        rows_f = (ys - self.space.min_y) / self.cell_height
        if not (np.isfinite(cols_f).all() and np.isfinite(rows_f).all()):
            raise ValueError("point coordinates must be finite")
        cols = np.clip(cols_f, 0, side - 1).astype(np.int64)
        rows = np.clip(rows_f, 0, side - 1).astype(np.int64)
        return cols, rows

    def cell_ids_of_batch(
        self, points: "Iterable[Point | Sequence[float]] | np.ndarray"
    ) -> np.ndarray:
        """Sorted unique int64 vector of the cell IDs covered by ``points``.

        This is the batch form of :meth:`cell_ids_of` (one vectorized
        discretisation pass instead of a per-point Python loop) and the
        canonical way to build a cell-based dataset.
        """
        xs, ys = _points_to_arrays(points)
        if xs.size == 0:
            return np.empty(0, dtype=np.int64)
        cols, rows = self.cell_coords_of_batch(xs, ys)
        return np.unique(zorder_encode_batch(cols, rows))

    def cells_to_coords_batch(self, cell_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid coordinates ``(cols, rows)`` of a cell-ID vector, range-checked."""
        cell_ids = np.asarray(cell_ids)
        if cell_ids.size:
            lowest = int(cell_ids.min())
            highest = int(cell_ids.max())
            if lowest < 0 or highest >= self.total_cells:
                bad = lowest if lowest < 0 else highest
                raise InvalidParameterError(
                    f"cell id {bad} outside grid with {self.total_cells} cells"
                )
        return zorder_decode_batch(cell_ids)

    def cell_centers_of_batch(self, cell_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`cell_center`: geographic centres of a cell vector.

        Returns ``(xs, ys)`` float64 vectors computed with the exact same
        expression as the scalar path, so each element is bit-identical to
        ``cell_center(cell_id)``.  This is the decode step of the query-clipping
        hot path: the data center decodes a query's cells once and masks the
        centres against every candidate source rectangle with numpy.
        """
        cols, rows = self.cells_to_coords_batch(cell_ids)
        xs = self.space.min_x + (cols + 0.5) * self.cell_width
        ys = self.space.min_y + (rows + 0.5) * self.cell_height
        return xs, ys

    def cell_id_from_coords(self, col: int, row: int) -> int:
        """Z-order cell ID of grid coordinates ``(col, row)``."""
        side = self.cells_per_side
        if not (0 <= col < side and 0 <= row < side):
            raise InvalidParameterError(
                f"cell coordinates ({col}, {row}) outside grid of side {side}"
            )
        return zorder_encode(col, row)

    def cell_center(self, cell_id: int) -> Point:  # public-api: scalar oracle of the batch
        """Geographic centre of ``cell_id``."""
        self._validate_cell(cell_id)
        col, row = zorder_decode(cell_id)
        return Point(
            self.space.min_x + (col + 0.5) * self.cell_width,
            self.space.min_y + (row + 0.5) * self.cell_height,
        )

    # ------------------------------------------------------------------ #
    # Conversions between grids of different resolution
    # ------------------------------------------------------------------ #
    def rescale_cells_batch(self, cell_ids: np.ndarray, target: "Grid") -> np.ndarray:
        """Map each cell of this grid to the cell of ``target`` holding its centre.

        Used when sources build their local indexes at different resolutions
        (Section V-B): cells travel in geographic terms and are
        re-discretised on arrival.  Takes a sorted unique cell vector and
        equals ``sorted({target.cell_id_of(self.cell_center(c)) for c in
        cell_ids})`` (the batch decode and discretisation are element-wise
        identical to the scalar ones) as a read-only vector; ``cell_ids``
        itself when ``target`` is this grid.
        """
        if target == self:
            return cell_ids
        xs, ys = self.cell_centers_of_batch(cell_ids)
        rescaled = np.unique(zorder_encode_batch(*target.cell_coords_of_batch(xs, ys)))
        rescaled.flags.writeable = False
        return rescaled

    def _validate_cell(self, cell_id: int) -> None:
        if not 0 <= cell_id < self.total_cells:
            raise InvalidParameterError(
                f"cell id {cell_id} outside grid with {self.total_cells} cells"
            )


def _points_to_arrays(
    points: "Iterable[Point | Sequence[float]] | np.ndarray",
) -> tuple[np.ndarray, np.ndarray]:
    """Split points into ``(xs, ys)`` float64 vectors without a per-point branch."""
    if isinstance(points, np.ndarray):
        if points.size == 0:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
        array = points.astype(np.float64, copy=False).reshape(-1, 2)
        return np.ascontiguousarray(array[:, 0]), np.ascontiguousarray(array[:, 1])
    pts = points if isinstance(points, (list, tuple)) else list(points)
    count = len(pts)
    if count == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
    try:
        if isinstance(pts[0], Point):
            xs = np.fromiter((p.x for p in pts), dtype=np.float64, count=count)
            ys = np.fromiter((p.y for p in pts), dtype=np.float64, count=count)
        else:
            xs = np.fromiter((p[0] for p in pts), dtype=np.float64, count=count)
            ys = np.fromiter((p[1] for p in pts), dtype=np.float64, count=count)
    except (AttributeError, TypeError, IndexError):
        # Mixed Point/sequence input: fall back to a per-point branch.
        xs = np.empty(count, dtype=np.float64)
        ys = np.empty(count, dtype=np.float64)
        for i, p in enumerate(pts):
            xs[i], ys[i] = (p.x, p.y) if isinstance(p, Point) else (p[0], p[1])
    return xs, ys
