"""Tests for the grid partition and cell encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.core.geometry import BoundingBox, Point
from repro.core.grid import WORLD_SPACE, Grid


class TestGridConstruction:
    def test_invalid_theta_rejected(self):
        with pytest.raises(InvalidParameterError):
            Grid(theta=0)
        with pytest.raises(InvalidParameterError):
            Grid(theta=25)

    def test_degenerate_space_rejected(self):
        with pytest.raises(InvalidParameterError):
            Grid(theta=4, space=BoundingBox(0, 0, 0, 1))

    def test_counts(self):
        grid = Grid(theta=3)
        assert grid.cells_per_side == 8
        assert grid.total_cells == 64

    def test_cell_dimensions(self):
        grid = Grid(theta=2, space=BoundingBox(0, 0, 8, 4))
        assert grid.cell_width == 2.0
        assert grid.cell_height == 1.0


class TestPointMapping:
    def test_bottom_left_is_cell_zero(self):
        grid = Grid(theta=2, space=BoundingBox(0, 0, 4, 4))
        assert grid.cell_id_of(Point(0.1, 0.1)) == 0

    def test_paper_example_cells(self):
        # Fig. 2: theta=2 over a square space; cell (1, 0) -> id 1, (0, 1) -> 2.
        grid = Grid(theta=2, space=BoundingBox(0, 0, 4, 4))
        assert grid.cell_id_of(Point(1.5, 0.5)) == 1
        assert grid.cell_id_of(Point(0.5, 1.5)) == 2
        assert grid.cell_id_of(Point(3.5, 3.5)) == grid.total_cells - 1

    def test_out_of_space_points_clamped(self):
        grid = Grid(theta=2, space=BoundingBox(0, 0, 4, 4))
        assert grid.cell_id_of(Point(-10, -10)) == 0
        assert grid.cell_id_of(Point(100, 100)) == grid.total_cells - 1

    def test_cell_ids_of_deduplicates(self):
        grid = Grid(theta=2, space=BoundingBox(0, 0, 4, 4))
        cells = grid.cell_ids_of([Point(0.1, 0.1), Point(0.2, 0.2), Point(3.9, 3.9)])
        assert len(cells) == 2

    def test_accepts_raw_sequences(self):
        grid = Grid(theta=4)
        assert grid.cell_id_of((0.0, 0.0)) == grid.cell_id_of(Point(0.0, 0.0))


class TestCellGeometry:
    def test_center_round_trips(self):
        grid = Grid(theta=6)
        for cell in [0, 17, 321, grid.total_cells - 1]:
            assert grid.cell_id_of(grid.cell_center(cell)) == cell

    def test_invalid_cell_rejected(self):
        grid = Grid(theta=2)
        with pytest.raises(InvalidParameterError):
            grid.coords_of_cell(grid.total_cells)
        with pytest.raises(InvalidParameterError):
            grid.coords_of_cell(-1)

    def test_cell_id_from_coords_bounds(self):
        grid = Grid(theta=2)
        with pytest.raises(InvalidParameterError):
            grid.cell_id_from_coords(4, 0)


class TestRescaling:
    def test_rescale_between_resolutions(self):
        coarse = Grid(theta=4)
        fine = Grid(theta=8)
        point = Point(12.3, 45.6)
        fine_cell = fine.cell_id_of(point)
        coarse_cell = coarse.cell_id_of(point)
        cells = np.array([fine_cell], dtype=np.int64)
        assert fine.rescale_cells_batch(cells, coarse).tolist() == [coarse_cell]

    def test_rescale_identity(self):
        grid = Grid(theta=5)
        cells = np.array([0, 7, 100], dtype=np.int64)
        assert grid.rescale_cells_batch(cells, grid) is cells

    @pytest.mark.parametrize(
        "thetas", [(12, 10), (10, 12), (12, 13), (14, 9), (9, 14), (6, 12), (12, 6)]
    )
    def test_batch_rescale_equals_per_cell_reference(self, thetas):
        center, source = (Grid(theta=theta) for theta in thetas)
        rng = np.random.default_rng(sum(thetas))
        region = BoundingBox(-77.5, 38.5, -76.5, 39.5)
        xs = rng.uniform(region.min_x, region.max_x, 400)
        ys = rng.uniform(region.min_y, region.max_y, 400)
        for grid, target in ((center, source), (source, center)):
            cells = grid.cell_ids_of_batch(np.column_stack([xs, ys]))
            expected = sorted({target.cell_id_of(grid.cell_center(int(cell))) for cell in cells})
            batch = grid.rescale_cells_batch(cells, target)
            assert batch.dtype == np.int64
            assert batch.tolist() == expected


    @pytest.mark.parametrize("levels", [1, 2, 4])
    def test_coarsening_keeps_the_parent_cell(self, levels):
        # Grids over one space nest: a cell's centre lies in the coarse cell
        # whose coordinates are its own shifted right by the level gap.
        fine = Grid(theta=10)
        coarse = Grid(theta=10 - levels)
        rng = np.random.default_rng(levels)
        cells = np.unique(rng.integers(0, fine.total_cells, 300, dtype=np.int64))
        cols, rows = fine.cells_to_coords_batch(cells)
        expected = sorted(
            {
                coarse.cell_id_from_coords(int(col) >> levels, int(row) >> levels)
                for col, row in zip(cols, rows)
            }
        )
        assert fine.rescale_cells_batch(cells, coarse).tolist() == expected


class TestCoordinateCodec:
    @pytest.mark.parametrize("theta", [1, 2, 5, 8, 12, 16])
    def test_corners_round_trip(self, theta):
        grid = Grid(theta=theta)
        last = grid.cells_per_side - 1
        for col, row in ((0, 0), (last, 0), (0, last), (last, last)):
            cell = grid.cell_id_from_coords(col, row)
            assert 0 <= cell < grid.total_cells
            assert grid.coords_of_cell(cell) == (col, row)
        assert grid.cell_id_from_coords(last, last) == grid.total_cells - 1
        with pytest.raises(InvalidParameterError):
            grid.cell_id_from_coords(grid.cells_per_side, 0)
        with pytest.raises(InvalidParameterError):
            grid.cell_id_from_coords(0, -1)


class TestGridProperties:
    @given(
        st.integers(min_value=2, max_value=10),
        st.floats(min_value=-179.9, max_value=179.9, allow_nan=False),
        st.floats(min_value=-89.9, max_value=89.9, allow_nan=False),
    )
    def test_point_maps_into_its_cell_box(self, theta, x, y):
        grid = Grid(theta=theta)
        col, row = grid.coords_of_cell(grid.cell_id_of(Point(x, y)))
        min_x = grid.space.min_x + col * grid.cell_width
        min_y = grid.space.min_y + row * grid.cell_height
        box = BoundingBox(min_x, min_y, min_x + grid.cell_width, min_y + grid.cell_height)
        # Allow for boundary rounding: the point is inside or on the border.
        assert box.expanded(1e-9).contains_point(Point(x, y))

    @given(st.integers(min_value=2, max_value=8))
    def test_world_space_cells_cover_range(self, theta):
        grid = Grid(theta=theta, space=WORLD_SPACE)
        assert grid.cell_id_of(Point(-180, -90)) == 0
        assert 0 <= grid.cell_id_of(Point(179.9, 89.9)) < grid.total_cells

    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=-170, max_value=170, allow_nan=False),
        st.floats(min_value=-80, max_value=80, allow_nan=False),
    )
    def test_center_roundtrip_property(self, theta, x, y):
        grid = Grid(theta=theta)
        cell = grid.cell_id_of(Point(x, y))
        assert grid.cell_id_of(grid.cell_center(cell)) == cell
