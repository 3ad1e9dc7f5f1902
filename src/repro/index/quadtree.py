"""QuadTree baseline index (Gargantini 1982, as used in Section VII-B).

The QuadTree indexes the *cells* of all datasets: every (cell, dataset)
occurrence is inserted as a point item, and a quadrant is subdivided once it
holds more than ``leaf_capacity`` items (the paper fixes the capacity to 4).
OJSP over the QuadTree therefore works like an exploded inverted index — all
cells intersecting the query region are visited and dataset occurrences are
counted — which is exactly why the paper finds it slower and bigger than
DITS-L: it stores ``N`` (total cell occurrences) items instead of ``n``
(datasets).

Construction is bulk-loaded: all cell occurrences are decoded to positions
in one vectorized Morton pass and the tree is built top-down, partitioning
the occurrence arrays with boolean masks at each quadrant.  The subdivision
rule depends only on the multiset of items in a quadrant (capacity, maximum
depth, positional distinctness), so the bulk-loaded tree is node-for-node
identical to one grown by sequential inserts — only orders of magnitude
cheaper than the seed's per-item recursive descent.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.dataset import DatasetNode
from repro.core.errors import InvalidParameterError
from repro.core.geometry import BoundingBox, Point
from repro.index.base import DatasetIndex
from repro.utils.zorder import zorder_decode, zorder_decode_batch

__all__ = ["QuadTreeIndex", "QuadTreeNode"]

DEFAULT_QUAD_CAPACITY = 4
_MAX_DEPTH = 32
#: Below this occurrence count a quadrant is finished with scalar inserts;
#: above it the vectorized mask partitioning wins.
_BULK_SCALAR_CUTOFF = 128


class QuadTreeNode:
    """One quadrant of the quadtree, holding (cell, dataset) items or 4 children.

    Quadrant bounds are stored as four plain floats instead of a
    :class:`BoundingBox`: construction creates one node per quadrant
    (hundreds of thousands at benchmark scale) and the region predicates in
    the hot paths inline the float comparisons.  :attr:`rect` materializes
    the equivalent box on demand for introspection.
    """

    __slots__ = (
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "items",
        "children",
        "depth",
        "capacity",
        "mid_x",
        "mid_y",
        "distinct",
    )

    def __init__(
        self,
        min_x: float,
        min_y: float,
        max_x: float,
        max_y: float,
        capacity: int,
        depth: int = 0,
    ) -> None:
        self.min_x = min_x
        self.min_y = min_y
        self.max_x = max_x
        self.max_y = max_y
        self.items: list[tuple[int, str, Point]] = []
        self.children: list["QuadTreeNode"] | None = None
        self.depth = depth
        self.capacity = capacity
        self.mid_x = (min_x + max_x) / 2.0
        self.mid_y = (min_y + max_y) / 2.0
        #: Whether the stored items span more than one distinct position.
        #: Maintained incrementally so the subdivision guard is O(1) instead
        #: of rescanning the leaf on every overflowing append.
        self.distinct = False

    @property
    def rect(self) -> BoundingBox:
        """The quadrant's bounding box (materialized on demand)."""
        return BoundingBox(self.min_x, self.min_y, self.max_x, self.max_y)

    def is_leaf(self) -> bool:
        """Whether this quadrant has not been subdivided."""
        return self.children is None

    # ------------------------------------------------------------------ #
    # Insertion / removal
    # ------------------------------------------------------------------ #
    def insert(self, cell_id: int, dataset_id: str, position: Point) -> None:
        """Insert one (cell, dataset) occurrence located at ``position``.

        The descent is iterative (no per-level Python call) using the
        quadrant midpoints cached on every node.
        """
        node = self
        while node.children is not None:
            node = node.children[
                (1 if position.x >= node.mid_x else 0)
                + (2 if position.y >= node.mid_y else 0)
            ]
        items = node.items
        if items and not node.distinct and position != items[0][2]:
            node.distinct = True
        items.append((cell_id, dataset_id, position))
        if len(items) > node.capacity and node.depth < _MAX_DEPTH and node.distinct:
            node._subdivide()

    def _has_distinct_positions(self) -> bool:
        """Whether subdividing can actually separate the stored items.

        Many datasets sharing one grid cell collapse onto the same position;
        subdividing such a leaf would only create chains of single-child
        quadrants, so the leaf is allowed to overflow instead.  Kept for
        introspection; the hot path uses the incremental ``distinct`` flag.
        """
        first = self.items[0][2]
        return any(item[2] != first for item in self.items[1:])

    def remove(self, cell_id: int, dataset_id: str, position: Point) -> bool:
        """Remove one occurrence; returns whether something was removed."""
        node = self
        while node.children is not None:
            node = node.children[
                (1 if position.x >= node.mid_x else 0)
                + (2 if position.y >= node.mid_y else 0)
            ]
        for index, (item_cell, item_dataset, _) in enumerate(node.items):
            if item_cell == cell_id and item_dataset == dataset_id:
                node.items.pop(index)
                if node.distinct:
                    node.distinct = len(node.items) > 1 and node._has_distinct_positions()
                return True
        return False

    def _subdivide(self) -> None:
        mid_x = self.mid_x
        mid_y = self.mid_y
        capacity = self.capacity
        child_depth = self.depth + 1
        self.children = [
            QuadTreeNode(self.min_x, self.min_y, mid_x, mid_y, capacity, child_depth),
            QuadTreeNode(mid_x, self.min_y, self.max_x, mid_y, capacity, child_depth),
            QuadTreeNode(self.min_x, mid_y, mid_x, self.max_y, capacity, child_depth),
            QuadTreeNode(mid_x, mid_y, self.max_x, self.max_y, capacity, child_depth),
        ]
        items, self.items = self.items, []
        for cell_id, dataset_id, position in items:
            self.insert(cell_id, dataset_id, position)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def query_region(self, region: BoundingBox) -> Iterator[tuple[int, str]]:
        """Yield (cell, dataset) occurrences whose position falls inside ``region``."""
        stack: list[QuadTreeNode] = [self]
        while stack:
            node = stack.pop()
            # Inline BoundingBox.intersects (closed boxes) on the float slots.
            if (
                node.max_x < region.min_x
                or region.max_x < node.min_x
                or node.max_y < region.min_y
                or region.max_y < node.min_y
            ):
                continue
            if node.children is None:
                for cell_id, dataset_id, position in node.items:
                    if region.contains_point(position):
                        yield cell_id, dataset_id
            else:
                stack.extend(reversed(node.children))

    def node_count(self) -> int:
        """Total number of quadtree nodes in this subtree."""
        count = 0
        stack: list[QuadTreeNode] = [self]
        while stack:
            node = stack.pop()
            count += 1
            if node.children is not None:
                stack.extend(node.children)
        return count


def _bulk_build(
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    capacity: int,
    depth: int,
    cells: np.ndarray,
    dataset_ids: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    positions: np.ndarray,
) -> QuadTreeNode:
    """Top-down bulk load of one quadrant from parallel occurrence arrays.

    Produces the same tree as inserting the items one by one: a quadrant is
    subdivided iff it overflows its capacity, is above the depth limit and
    holds at least two distinct positions — all properties of the item
    multiset, not of the insertion order.  Items keep their relative order,
    matching the stable order of sequential insertion.  ``dataset_ids`` and
    ``positions`` are object arrays so every partition step is one fancy
    indexing pass instead of a Python loop.
    """
    node = QuadTreeNode(min_x, min_y, max_x, max_y, capacity, depth)
    count = len(cells)
    if count <= capacity:
        if count:
            node.items = list(zip(cells.tolist(), dataset_ids.tolist(), positions.tolist()))
            node.distinct = count > 1 and bool(
                np.any(xs != xs[0]) or np.any(ys != ys[0])
            )
        return node
    if count <= _BULK_SCALAR_CUTOFF:
        # Small quadrants: per-element numpy masking costs more than the
        # iterative scalar inserts it replaces, so finish this subtree with
        # them (the resulting structure is the same either way).
        for item in zip(cells.tolist(), dataset_ids.tolist(), positions.tolist()):
            node.insert(*item)
        return node
    distinct = bool(np.any(xs != xs[0]) or np.any(ys != ys[0]))
    if depth >= _MAX_DEPTH or not distinct:
        node.items = list(zip(cells.tolist(), dataset_ids.tolist(), positions.tolist()))
        node.distinct = distinct
        return node

    east = xs >= node.mid_x
    north = ys >= node.mid_y
    quadrant_bounds = (
        (min_x, min_y, node.mid_x, node.mid_y),
        (node.mid_x, min_y, max_x, node.mid_y),
        (min_x, node.mid_y, node.mid_x, max_y),
        (node.mid_x, node.mid_y, max_x, max_y),
    )
    masks = (
        ~east & ~north,
        east & ~north,
        ~east & north,
        east & north,
    )
    node.children = [
        _bulk_build(
            *bounds,
            capacity,
            depth + 1,
            cells[mask],
            dataset_ids[mask],
            xs[mask],
            ys[mask],
            positions[mask],
        )
        for bounds, mask in zip(quadrant_bounds, masks)
    ]
    return node


class QuadTreeIndex(DatasetIndex):
    """Dataset index backed by a point quadtree over cell occurrences."""

    name = "QuadTree"

    def __init__(self, capacity: int = DEFAULT_QUAD_CAPACITY) -> None:
        super().__init__()
        if capacity <= 0:
            raise InvalidParameterError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._tree: QuadTreeNode | None = None
        self._space: BoundingBox | None = None

    # ------------------------------------------------------------------ #
    # DatasetIndex hooks
    # ------------------------------------------------------------------ #
    def _rebuild(self) -> None:
        if not self._nodes:
            self._tree = None
            self._space = None
            return
        self._space = BoundingBox.union_of(node.rect for node in self._nodes.values()).expanded(1.0)

        # One concatenated occurrence vector for all datasets, decoded to
        # positions in a single vectorized Morton pass; Point objects are
        # created once per *distinct* cell and shared between occurrences.
        per_node_cells = [node.cells_array for node in self._nodes.values()]
        cells = np.concatenate(per_node_cells)
        dataset_ids = np.empty(cells.size, dtype=object)
        offset = 0
        for node, node_cells in zip(self._nodes.values(), per_node_cells):
            dataset_ids[offset : offset + node_cells.size] = node.dataset_id
            offset += node_cells.size
        cols, rows = zorder_decode_batch(cells)
        xs = cols.astype(np.float64)
        ys = rows.astype(np.float64)

        unique_cells, inverse = np.unique(cells, return_inverse=True)
        unique_cols, unique_rows = zorder_decode_batch(unique_cells)
        unique_points = np.empty(unique_cells.size, dtype=object)
        for index, (col, row) in enumerate(
            zip(unique_cols.tolist(), unique_rows.tolist())
        ):
            unique_points[index] = Point(float(col), float(row))
        positions = unique_points[inverse]

        space = self._space
        self._tree = _bulk_build(
            space.min_x,
            space.min_y,
            space.max_x,
            space.max_y,
            self.capacity,
            0,
            cells,
            dataset_ids,
            xs,
            ys,
            positions,
        )

    def _insert_structure(self, node: DatasetNode) -> None:
        if self._tree is None or self._space is None or not self._space.contains_box(node.rect):
            self._rebuild()
            return
        for cell in node.cells_array.tolist():
            self._tree.insert(cell, node.dataset_id, _cell_position(cell))

    def _delete_structure(self, node: DatasetNode) -> None:
        if self._tree is None:
            return
        for cell in node.cells_array.tolist():
            self._tree.remove(cell, node.dataset_id, _cell_position(cell))

    # ------------------------------------------------------------------ #
    # Query helpers used by the OJSP baseline
    # ------------------------------------------------------------------ #
    def occurrences_in(self, region: BoundingBox) -> Iterator[tuple[int, str]]:
        """All (cell, dataset) occurrences located inside ``region``."""
        if self._tree is None:
            return iter(())
        return self._tree.query_region(region)

    def node_count(self) -> int:
        """Number of quadtree nodes (for the memory comparison of Fig. 8)."""
        return self._tree.node_count() if self._tree is not None else 0

    def total_occurrences(self) -> int:
        """Total number of stored (cell, dataset) items."""
        return sum(node.coverage for node in self._nodes.values())


def _cell_position(cell_id: int) -> Point:
    """Representative position of a cell in grid coordinates (its corner)."""
    col, row = zorder_decode(cell_id)
    return Point(float(col), float(row))


def build_quadtree(nodes: Iterable[DatasetNode], capacity: int = DEFAULT_QUAD_CAPACITY) -> QuadTreeIndex:
    """Convenience constructor used by benchmarks."""
    index = QuadTreeIndex(capacity=capacity)
    index.build(nodes)
    return index
