"""Tests for points and bounding boxes."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.geometry import BoundingBox, Point

finite = st.floats(min_value=-1000, max_value=1000, allow_nan=False)


class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_to_self_is_zero(self):
        point = Point(12.5, -7.25)
        assert point.distance_to(point) == 0.0

    def test_as_tuple_and_iter(self):
        point = Point(1.5, 2.5)
        assert point.as_tuple() == (1.5, 2.5)
        assert list(point) == [1.5, 2.5]

    @given(finite, finite, finite, finite)
    def test_distance_symmetry(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))


class TestBoundingBoxConstruction:
    def test_invalid_extents_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(1, 0, 0, 1)
        with pytest.raises(ValueError):
            BoundingBox(0, 1, 1, 0)

    def test_from_points(self):
        box = BoundingBox.from_points([Point(1, 5), Point(3, 2), Point(2, 4)])
        assert box.as_tuple() == (1, 2, 3, 5)

    def test_from_points_accepts_sequences(self):
        box = BoundingBox.from_points([(0, 0), (2, 3)])
        assert box.as_tuple() == (0, 0, 2, 3)

    def test_from_points_empty_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox.from_points([])

    def test_union_of(self):
        combined = BoundingBox.union_of([BoundingBox(0, 0, 1, 1), BoundingBox(2, 2, 3, 3)])
        assert combined.as_tuple() == (0, 0, 3, 3)

    def test_union_of_empty_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox.union_of([])


class TestBoundingBoxDerived:
    def test_dimensions(self):
        box = BoundingBox(0, 0, 4, 3)
        assert box.width == 4
        assert box.height == 3
        assert box.area == 12
        assert box.extent(0) == 4
        assert box.extent(1) == 3

    def test_extent_invalid_dimension(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 1, 1).extent(2)

    def test_center_and_radius(self):
        box = BoundingBox(0, 0, 6, 8)
        assert box.center == Point(3, 4)
        assert box.radius == pytest.approx(5.0)

    def test_degenerate_box_has_zero_radius(self):
        box = BoundingBox(2, 2, 2, 2)
        assert box.radius == 0.0
        assert box.area == 0.0


class TestBoundingBoxPredicates:
    def test_intersects_overlapping(self):
        assert BoundingBox(0, 0, 2, 2).intersects(BoundingBox(1, 1, 3, 3))

    def test_intersects_touching_edge(self):
        assert BoundingBox(0, 0, 1, 1).intersects(BoundingBox(1, 0, 2, 1))

    def test_disjoint_boxes_do_not_intersect(self):
        assert not BoundingBox(0, 0, 1, 1).intersects(BoundingBox(2, 2, 3, 3))

    def test_contains_point(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.contains_point(Point(1, 1))
        assert box.contains_point(Point(0, 2))
        assert not box.contains_point(Point(3, 1))

    def test_contains_box(self):
        outer = BoundingBox(0, 0, 10, 10)
        assert outer.contains_box(BoundingBox(1, 1, 2, 2))
        assert not outer.contains_box(BoundingBox(5, 5, 11, 6))


class TestBoundingBoxOperations:
    def test_union(self):
        assert BoundingBox(0, 0, 1, 1).union(BoundingBox(2, 2, 3, 3)).as_tuple() == (0, 0, 3, 3)

    def test_expanded(self):
        assert BoundingBox(1, 1, 2, 2).expanded(1).as_tuple() == (0, 0, 3, 3)

    def test_min_distance_to_point(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.min_distance_to_point(Point(4, 5)) == pytest.approx(5.0)
        assert box.min_distance_to_point(Point(0.5, 0.5)) == 0.0

    def test_enlargement(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.enlargement(BoundingBox(0, 0, 2, 1)) == pytest.approx(1.0)
        assert box.enlargement(BoundingBox(0.2, 0.2, 0.8, 0.8)) == 0.0


class TestBoundingBoxProperties:
    @given(finite, finite, finite, finite, finite, finite, finite, finite)
    def test_union_contains_both(self, ax1, ay1, ax2, ay2, bx1, by1, bx2, by2):
        a = BoundingBox(min(ax1, ax2), min(ay1, ay2), max(ax1, ax2), max(ay1, ay2))
        b = BoundingBox(min(bx1, bx2), min(by1, by2), max(bx1, bx2), max(by1, by2))
        union = a.union(b)
        assert union.contains_box(a)
        assert union.contains_box(b)

    @given(finite, finite, finite, finite, finite, finite)
    def test_zero_point_distance_iff_contained(self, x1, y1, x2, y2, px, py):
        box = BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        point = Point(px, py)
        assert (box.min_distance_to_point(point) == 0.0) == box.contains_point(point)

    @given(finite, finite, finite, finite, finite, finite, finite, finite)
    def test_intersects_is_symmetric(self, ax1, ay1, ax2, ay2, bx1, by1, bx2, by2):
        a = BoundingBox(min(ax1, ax2), min(ay1, ay2), max(ax1, ax2), max(ay1, ay2))
        b = BoundingBox(min(bx1, bx2), min(by1, by2), max(bx1, bx2), max(by1, by2))
        assert a.intersects(b) == b.intersects(a)

    @given(finite, finite, finite, finite, finite, finite, finite, finite)
    def test_enlargement_is_non_negative_and_zero_when_contained(
        self, ax1, ay1, ax2, ay2, bx1, by1, bx2, by2
    ):
        a = BoundingBox(min(ax1, ax2), min(ay1, ay2), max(ax1, ax2), max(ay1, ay2))
        b = BoundingBox(min(bx1, bx2), min(by1, by2), max(bx1, bx2), max(by1, by2))
        assert a.enlargement(b) >= 0.0
        assert a.union(b).enlargement(b) == 0.0

    @given(finite, finite, finite, finite, st.floats(min_value=0, max_value=100))
    def test_expanded_contains_the_original(self, x1, y1, x2, y2, margin):
        box = BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        assert box.expanded(margin).contains_box(box)


class TestMinDistanceToPointRegions:
    """The point-to-box distance in each of the regions around a box.

    R-tree and DITS pruning rely on this distance being exact outside the
    box: along an axis in the side regions, Euclidean in the corner regions.
    """

    BOX = BoundingBox(0, 0, 2, 1)

    @pytest.mark.parametrize(
        ("x", "y", "expected"),
        [
            (1.0, 0.5, 0.0),
            (2.0, 1.0, 0.0),
            (0.0, 0.3, 0.0),
            (-3.0, 0.5, 3.0),
            (5.0, 0.5, 3.0),
            (1.0, -2.0, 2.0),
            (1.0, 4.0, 3.0),
            (-3.0, -4.0, 5.0),
            (5.0, 5.0, 5.0),
            (-1.0, 2.0, 2**0.5),
            (2.5, -1.0, (0.5**2 + 1.0) ** 0.5),
        ],
        ids=[
            "inside",
            "on-corner",
            "on-edge",
            "left",
            "right",
            "below",
            "above",
            "lower-left",
            "upper-right",
            "upper-left",
            "lower-right",
        ],
    )
    def test_region(self, x, y, expected):
        assert self.BOX.min_distance_to_point(Point(x, y)) == pytest.approx(expected)
