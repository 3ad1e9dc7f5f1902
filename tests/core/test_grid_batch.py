"""Property tests: the Grid batch APIs match the scalar conversion paths."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.core.geometry import BoundingBox, Point
from repro.core.grid import WORLD_SPACE, Grid
from repro.utils.zorder import zorder_decode

finite_lon = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)
finite_lat = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
point_lists = st.lists(st.tuples(finite_lon, finite_lat), min_size=1, max_size=100)


class TestCellIdsOfBatch:
    @given(point_lists, st.integers(min_value=2, max_value=14))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_path(self, pairs, theta):
        """The batch discretisation equals the per-point scalar loop, even
        for points outside the data space (clamped to border cells)."""
        grid = Grid(theta=theta)
        scalar = {grid.cell_id_of(pair) for pair in pairs}
        batch = grid.cell_ids_of_batch(pairs)
        assert batch.tolist() == sorted(scalar)
        assert grid.cell_ids_of(pairs) == scalar

    def test_accepts_points_sequences_and_arrays(self):
        grid = Grid(theta=10)
        raw = [(12.5, 42.1), (-170.0, -89.9), (0.0, 0.0)]
        as_points = [Point(x, y) for x, y in raw]
        as_array = np.array(raw, dtype=np.float64)
        expected = grid.cell_ids_of_batch(raw).tolist()
        assert grid.cell_ids_of_batch(as_points).tolist() == expected
        assert grid.cell_ids_of_batch(as_array).tolist() == expected

    def test_mixed_input_kinds(self):
        grid = Grid(theta=8)
        mixed = [Point(1.0, 2.0), (3.0, 4.0)]
        assert grid.cell_ids_of_batch(mixed).tolist() == sorted(
            {grid.cell_id_of(p) for p in mixed}
        )

    def test_empty_input(self):
        grid = Grid(theta=8)
        assert grid.cell_ids_of_batch([]).size == 0
        assert grid.cell_ids_of([]) == set()

    def test_result_is_sorted_unique(self):
        grid = Grid(theta=4, space=BoundingBox(0, 0, 16, 16))
        batch = grid.cell_ids_of_batch([(1.5, 1.5), (1.5, 1.5), (0.5, 0.5)])
        assert batch.tolist() == sorted(set(batch.tolist()))


class TestCellsToCoordsBatch:
    @given(
        st.lists(st.integers(min_value=0, max_value=2**20 - 1), min_size=1, max_size=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_decode(self, cells):
        grid = Grid(theta=10)
        cols, rows = grid.cells_to_coords_batch(np.array(cells, dtype=np.int64))
        expected = [zorder_decode(cell) for cell in cells]
        assert list(zip(cols.tolist(), rows.tolist())) == expected

    def test_rejects_out_of_grid_cells(self):
        grid = Grid(theta=4)
        with pytest.raises(InvalidParameterError):
            grid.cells_to_coords_batch(np.array([grid.total_cells], dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            grid.cells_to_coords_batch(np.array([-1], dtype=np.int64))


class TestNonFiniteAndExtremeCoordinates:
    def test_nan_coordinates_raise(self):
        grid = Grid(theta=10)
        with pytest.raises(ValueError):
            grid.cell_ids_of_batch([(float("nan"), 0.0)])
        with pytest.raises(ValueError):
            grid.cell_ids_of_batch([(0.0, float("inf"))])

    def test_astronomically_large_values_clamp_to_far_border(self):
        grid = Grid(theta=10)
        # Must match the scalar clamp (no int64 overflow to the wrong side).
        for point in [(1e300, 0.0), (-1e300, 0.0), (0.0, 1e300)]:
            assert grid.cell_ids_of_batch([point]).tolist() == [grid.cell_id_of(point)]


class TestWorldSpaceClamping:
    def test_out_of_range_points_clamp_to_borders(self):
        grid = Grid(theta=6)
        outside = [(-1000.0, 0.0), (1000.0, 0.0), (0.0, -1000.0), (0.0, 1000.0)]
        batch = set(grid.cell_ids_of_batch(outside).tolist())
        scalar = {grid.cell_id_of(p) for p in outside}
        assert batch == scalar
        assert WORLD_SPACE.width > 0  # sanity: default space in use


class TestCellCentersOfBatch:
    @given(point_lists, st.integers(min_value=2, max_value=14))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_cell_center(self, pairs, theta):
        """Batch-decoded centres are bit-identical to the scalar path."""
        grid = Grid(theta=theta)
        cell_ids = grid.cell_ids_of_batch(pairs)
        xs, ys = grid.cell_centers_of_batch(cell_ids)
        for cell_id, x, y in zip(cell_ids.tolist(), xs.tolist(), ys.tolist()):
            center = grid.cell_center(cell_id)
            assert (x, y) == (center.x, center.y)

    def test_empty_vector(self):
        grid = Grid(theta=6)
        xs, ys = grid.cell_centers_of_batch(np.empty(0, dtype=np.int64))
        assert xs.size == 0 and ys.size == 0

    def test_invalid_cell_rejected(self):
        grid = Grid(theta=2)
        with pytest.raises(InvalidParameterError):
            grid.cell_centers_of_batch(np.array([grid.total_cells], dtype=np.int64))
