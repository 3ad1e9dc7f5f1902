"""Planar geometry primitives: points and minimum bounding rectangles.

Spatial datasets in the paper are sets of longitude/latitude points
(Definition 1) and every index node carries a minimum bounding rectangle
(MBR), a pivot (the MBR centre) and a radius (half the diagonal) —
Definitions 12–14.  :class:`Point` and :class:`BoundingBox` provide those
primitives plus the handful of geometric predicates the indexes need
(intersection, containment, distances between boxes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = ["Point", "BoundingBox"]


@dataclass(frozen=True, slots=True)
class Point:
    """A 2-D spatial point with longitude ``x`` and latitude ``y``."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)``, handy for serialisation."""
        return (self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An axis-aligned minimum bounding rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"invalid bounding box: ({self.min_x}, {self.min_y}) - "
                f"({self.max_x}, {self.max_y})"
            )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_points(cls, points: Iterable[Point | Sequence[float]]) -> "BoundingBox":
        """Smallest box enclosing ``points``; raises on an empty iterable."""
        min_x = min_y = math.inf
        max_x = max_y = -math.inf
        seen = False
        for point in points:
            seen = True
            x, y = (point.x, point.y) if isinstance(point, Point) else (point[0], point[1])
            min_x = min(min_x, x)
            min_y = min(min_y, y)
            max_x = max(max_x, x)
            max_y = max(max_y, y)
        if not seen:
            raise ValueError("cannot build a bounding box from an empty point set")
        return cls(min_x, min_y, max_x, max_y)

    @classmethod
    def union_of(cls, boxes: Iterable["BoundingBox"]) -> "BoundingBox":
        """Smallest box enclosing every box in ``boxes``."""
        min_x = min_y = math.inf
        max_x = max_y = -math.inf
        seen = False
        for box in boxes:
            seen = True
            min_x = min(min_x, box.min_x)
            min_y = min(min_y, box.min_y)
            max_x = max(max_x, box.max_x)
            max_y = max(max_y, box.max_y)
        if not seen:
            raise ValueError("cannot union an empty collection of boxes")
        return cls(min_x, min_y, max_x, max_y)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def width(self) -> float:
        """Extent along the x axis."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along the y axis."""
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        """Area of the rectangle."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """The pivot: the centre of the rectangle."""
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    @property
    def radius(self) -> float:
        """Half of the diagonal, the node radius used by DITS."""
        return math.hypot(self.width, self.height) / 2.0

    def extent(self, dimension: int) -> float:
        """Width of the box along ``dimension`` (0 for x, 1 for y)."""
        if dimension == 0:
            return self.width
        if dimension == 1:
            return self.height
        raise ValueError(f"dimension must be 0 or 1, got {dimension}")

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    def intersects(self, other: "BoundingBox") -> bool:
        """Whether the two boxes share at least one point (closed boxes)."""
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    def contains_point(self, point: Point) -> bool:
        """Whether ``point`` lies inside the closed box."""
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        """Whether ``other`` lies completely inside this box."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest rectangle enclosing both boxes."""
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expanded(self, margin: float) -> "BoundingBox":
        """A copy enlarged by ``margin`` on every side (negative shrinks)."""
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def min_distance_to_point(self, point: Point) -> float:
        """Smallest Euclidean distance from the box to ``point``."""
        dx = max(self.min_x - point.x, point.x - self.max_x, 0.0)
        dy = max(self.min_y - point.y, point.y - self.max_y, 0.0)
        return math.hypot(dx, dy)

    def enlargement(self, other: "BoundingBox") -> float:
        """Area increase needed to also cover ``other`` (R-tree insertion metric)."""
        return self.union(other).area - self.area

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)``."""
        return (self.min_x, self.min_y, self.max_x, self.max_y)
