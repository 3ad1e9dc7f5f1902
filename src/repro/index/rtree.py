"""R-tree baseline index (Guttman 1984, as used in Section VII-B).

The R-tree groups dataset MBRs into nodes of bounded fanout.  Construction
follows the cited baseline: datasets are inserted one by one with Guttman's
least-enlargement descent and quadratic node splitting, which is what makes
the paper's DITS-L "always slightly faster than Rtree" to build — the
balanced R-tree pays for split decisions on every overflow.  A
Sort-Tile-Recursive (STR) bulk-loading mode is also provided
(``bulk_load=True``) for users who only need a static index.  Deletion
condenses empty nodes.

The OJSP baseline built on this index finds every dataset whose MBR
intersects the query MBR and then computes exact cell intersections, which is
why the paper reports it as the second-best method: MBR filtering is
effective but there is no leaf-level intersection bound to prune with.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.core.dataset import DatasetNode
from repro.core.errors import DatasetNotFoundError, InvalidParameterError
from repro.core.geometry import BoundingBox
from repro.index.base import DatasetIndex

__all__ = ["RTreeIndex", "RTreeNode"]

DEFAULT_MAX_ENTRIES = 16


class RTreeNode:
    """An R-tree node: either a leaf with dataset entries or an internal node."""

    __slots__ = ("rect", "entries", "children", "parent")

    def __init__(
        self,
        rect: BoundingBox,
        entries: list[DatasetNode] | None = None,
        children: list["RTreeNode"] | None = None,
        parent: "RTreeNode | None" = None,
    ) -> None:
        self.rect = rect
        self.entries = entries if entries is not None else []
        self.children = children if children is not None else []
        self.parent = parent
        for child in self.children:
            child.parent = self

    def is_leaf(self) -> bool:
        """Whether this node stores entries rather than child nodes."""
        return not self.children

    def recompute_rect(self) -> None:
        """Re-tighten this node's MBR from its entries/children."""
        if self.is_leaf():
            if self.entries:
                self.rect = BoundingBox.union_of(entry.rect for entry in self.entries)
        elif self.children:
            self.rect = BoundingBox.union_of(child.rect for child in self.children)

    def node_count(self) -> int:
        """Number of nodes in this subtree."""
        if self.is_leaf():
            return 1
        return 1 + sum(child.node_count() for child in self.children)


class RTreeIndex(DatasetIndex):
    """R-tree over dataset MBRs (Guttman insertion build, optional STR bulk load)."""

    name = "Rtree"

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES, bulk_load: bool = False) -> None:
        super().__init__()
        if max_entries < 2:
            raise InvalidParameterError(f"max_entries must be >= 2, got {max_entries}")
        self.max_entries = max_entries
        self.bulk_load = bulk_load
        self._root: RTreeNode | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _rebuild(self) -> None:
        entries = list(self._nodes.values())
        if not entries:
            self._root = None
            return
        if self.bulk_load:
            self._root = self._pack_upwards(self._pack_leaves(entries))
            return
        self._root = None
        for entry in entries:
            self._insert_structure(entry)

    def _pack_leaves(self, entries: list[DatasetNode]) -> list[RTreeNode]:
        capacity = self.max_entries
        count = len(entries)
        leaf_count = math.ceil(count / capacity)
        slices = max(1, math.ceil(math.sqrt(leaf_count)))
        by_x = sorted(entries, key=lambda e: (e.pivot.x, e.dataset_id))
        slice_size = math.ceil(count / slices)
        leaves: list[RTreeNode] = []
        for start in range(0, count, slice_size):
            column = sorted(
                by_x[start : start + slice_size], key=lambda e: (e.pivot.y, e.dataset_id)
            )
            for leaf_start in range(0, len(column), capacity):
                chunk = column[leaf_start : leaf_start + capacity]
                rect = BoundingBox.union_of(entry.rect for entry in chunk)
                leaves.append(RTreeNode(rect, entries=list(chunk)))
        return leaves

    def _pack_upwards(self, nodes: list[RTreeNode]) -> RTreeNode:
        while len(nodes) > 1:
            capacity = self.max_entries
            count = len(nodes)
            parent_count = math.ceil(count / capacity)
            slices = max(1, math.ceil(math.sqrt(parent_count)))
            by_x = sorted(nodes, key=lambda n: n.rect.center.x)
            slice_size = math.ceil(count / slices)
            parents: list[RTreeNode] = []
            for start in range(0, count, slice_size):
                column = sorted(by_x[start : start + slice_size], key=lambda n: n.rect.center.y)
                for parent_start in range(0, len(column), capacity):
                    chunk = column[parent_start : parent_start + capacity]
                    rect = BoundingBox.union_of(node.rect for node in chunk)
                    parents.append(RTreeNode(rect, children=list(chunk)))
            nodes = parents
        return nodes[0]

    # ------------------------------------------------------------------ #
    # Incremental maintenance (Guttman insert / delete)
    # ------------------------------------------------------------------ #
    def _insert_structure(self, node: DatasetNode) -> None:
        if self._root is None:
            self._root = RTreeNode(node.rect, entries=[node])
            return
        leaf = self._choose_leaf(self._root, node.rect)
        leaf.entries.append(node)
        leaf.recompute_rect()
        self._handle_overflow(leaf)
        self._adjust_upwards(leaf)

    def _delete_structure(self, node: DatasetNode) -> None:
        if self._root is None:
            raise DatasetNotFoundError(node.dataset_id)
        leaf = self._find_leaf(self._root, node.dataset_id)
        if leaf is None:
            raise DatasetNotFoundError(node.dataset_id)
        leaf.entries = [entry for entry in leaf.entries if entry.dataset_id != node.dataset_id]
        if leaf.entries:
            leaf.recompute_rect()
            self._adjust_upwards(leaf)
        else:
            self._condense(leaf)

    def _choose_leaf(self, node: RTreeNode, rect: BoundingBox) -> RTreeNode:
        current = node
        while not current.is_leaf():
            current = min(
                current.children,
                key=lambda child: (child.rect.enlargement(rect), child.rect.area),
            )
        return current

    def _handle_overflow(self, node: RTreeNode) -> None:
        while len(node.entries) > self.max_entries or len(node.children) > self.max_entries:
            sibling = self._split(node)
            parent = node.parent
            if parent is None:
                new_root = RTreeNode(
                    node.rect.union(sibling.rect), children=[node, sibling]
                )
                self._root = new_root
                return
            parent.children.append(sibling)
            sibling.parent = parent
            parent.recompute_rect()
            node = parent

    def _split(self, node: RTreeNode) -> RTreeNode:
        """Quadratic split: seed with the pair wasting the most area."""
        if node.is_leaf():
            items = node.entries
            rect_of = lambda item: item.rect  # noqa: E731 - tiny local accessor
        else:
            items = node.children
            rect_of = lambda item: item.rect  # noqa: E731

        seed_a, seed_b = _pick_seeds(items, rect_of)
        group_a, group_b = [items[seed_a]], [items[seed_b]]
        rect_a, rect_b = rect_of(items[seed_a]), rect_of(items[seed_b])
        remaining = [item for idx, item in enumerate(items) if idx not in (seed_a, seed_b)]
        for item in remaining:
            rect = rect_of(item)
            if rect_a.enlargement(rect) <= rect_b.enlargement(rect):
                group_a.append(item)
                rect_a = rect_a.union(rect)
            else:
                group_b.append(item)
                rect_b = rect_b.union(rect)

        sibling = RTreeNode(rect_b)
        if node.is_leaf():
            node.entries = group_a
            sibling.entries = group_b
        else:
            node.children = group_a
            sibling.children = group_b
            for child in group_b:
                child.parent = sibling
        node.recompute_rect()
        sibling.recompute_rect()
        return sibling

    def _adjust_upwards(self, node: RTreeNode) -> None:
        current = node.parent
        while current is not None:
            current.recompute_rect()
            current = current.parent

    def _condense(self, leaf: RTreeNode) -> None:
        parent = leaf.parent
        if parent is None:
            self._root = None
            return
        parent.children.remove(leaf)
        orphans: list[DatasetNode] = []
        current = parent
        while current is not None and current.parent is not None and not current.children and not current.entries:
            grandparent = current.parent
            grandparent.children.remove(current)
            current = grandparent
        node = current
        while node is not None:
            node.recompute_rect()
            node = node.parent
        for orphan in orphans:
            self._insert_structure(orphan)

    def _find_leaf(self, node: RTreeNode, dataset_id: str) -> RTreeNode | None:
        if node.is_leaf():
            if any(entry.dataset_id == dataset_id for entry in node.entries):
                return node
            return None
        for child in node.children:
            found = self._find_leaf(child, dataset_id)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------ #
    # Query helpers
    # ------------------------------------------------------------------ #
    def intersecting(self, rect: BoundingBox) -> Iterator[DatasetNode]:
        """All dataset nodes whose MBR intersects ``rect``."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.rect.intersects(rect):
                continue
            if node.is_leaf():
                for entry in node.entries:
                    if entry.rect.intersects(rect):
                        yield entry
            else:
                stack.extend(node.children)

    def node_count(self) -> int:
        """Number of R-tree nodes (for the Fig. 8 memory comparison)."""
        return self._root.node_count() if self._root is not None else 0

    @property
    def root(self) -> RTreeNode | None:
        """The root node (``None`` when empty)."""
        return self._root


def _pick_seeds(items: list, rect_of) -> tuple[int, int]:
    """Pick the pair of items whose combined MBR wastes the most area."""
    best_waste = -math.inf
    best_pair = (0, min(1, len(items) - 1))
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            rect_i, rect_j = rect_of(items[i]), rect_of(items[j])
            waste = rect_i.union(rect_j).area - rect_i.area - rect_j.area
            if waste > best_waste:
                best_waste = waste
                best_pair = (i, j)
    return best_pair


def build_rtree(nodes: Iterable[DatasetNode], max_entries: int = DEFAULT_MAX_ENTRIES) -> RTreeIndex:
    """Convenience constructor used by benchmarks."""
    index = RTreeIndex(max_entries=max_entries)
    index.build(nodes)
    return index
