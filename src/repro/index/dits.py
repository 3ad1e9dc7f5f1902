"""DITS-L: the local DIstributed Tree-based Spatial index (Section V-A).

DITS-L is a binary tree over *dataset nodes* (one entry per dataset, not per
point) built top-down by recursively splitting on the widest dimension at the
median pivot (Algorithm 1).  The structure combines two classic indexes:

* like a ball tree / kd-tree, every tree node stores the MBR, pivot and
  radius enclosing its subtree, which enables MBR pruning and the Lemma 4
  distance bounds used by CoverageSearch;
* like an inverted index, every *leaf* stores posting lists mapping each cell
  ID to the dataset IDs in the leaf that contain it, which enables the
  Lemma 2/3 intersection bounds and fast verification used by OverlapSearch.

The tree keeps parent pointers (a bidirectional structure) so the incremental
insert/update/delete operations of Appendix IX-C touch one root-to-leaf path,
and it maintains a *weight-balance invariant* on top of them: every node
carries its subtree dataset count, the mutation path is rechecked after each
operation, and the highest ancestor whose heavier child exceeds ``alpha``
times its size is rebuilt with the bulk median split (a scapegoat-style
amortized partial rebuild — see :mod:`repro.index.dits_rebalance`).  Deletes
additionally merge underflowing leaves into their sibling, and a deferred
mode batches MBR re-tightening across mutation bursts until the next query.
Sustained churn therefore cannot skew the tree or inflate leaf MBRs, which
keeps the Lemma 2/3/4 pruning bounds as strong as on a freshly built tree.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.dataset import DatasetNode
from repro.core.errors import (
    DatasetNotFoundError,
    IndexNotBuiltError,
    InvalidParameterError,
)
from repro.core.geometry import BoundingBox, Point
from repro.index.base import DatasetIndex
from repro.index.dits_rebalance import RebalancePolicy, RebalanceStats, Rebalancer

__all__ = ["DITSLocalIndex", "TreeNode", "InternalNode", "LeafNode"]

DEFAULT_LEAF_CAPACITY = 30


class TreeNode:
    """Base class for DITS-L tree nodes: carries MBR, pivot, radius and parent.

    ``size`` is the number of datasets in the subtree (the weight the
    rebalancer's alpha-balance test runs on); ``refit_dirty`` marks nodes
    whose MBR re-tightening is deferred until the next query flush.
    """

    __slots__ = ("rect", "pivot", "radius", "parent", "size", "refit_dirty")

    def __init__(self, rect: BoundingBox, parent: "InternalNode | None" = None) -> None:
        self.rect = rect
        self.pivot = rect.center
        self.radius = rect.radius
        self.parent = parent
        self.size = 0
        self.refit_dirty = False

    def is_leaf(self) -> bool:
        """Whether this node is a leaf (overridden by subclasses)."""
        raise NotImplementedError

    def _set_rect(self, rect: BoundingBox) -> None:
        self.rect = rect
        self.pivot = rect.center
        self.radius = rect.radius


class InternalNode(TreeNode):
    """An internal DITS-L node with exactly two children (Definition 13)."""

    __slots__ = ("left", "right")

    def __init__(
        self,
        rect: BoundingBox,
        left: "TreeNode",
        right: "TreeNode",
        parent: "InternalNode | None" = None,
    ) -> None:
        super().__init__(rect, parent)
        self.left = left
        self.right = right
        left.parent = self
        right.parent = self
        self.size = left.size + right.size

    def is_leaf(self) -> bool:
        """An internal node is never a leaf."""
        return False

    def children(self) -> tuple["TreeNode", "TreeNode"]:
        """The two child nodes as ``(left, right)``."""
        return self.left, self.right

    def replace_child(self, old: "TreeNode", new: "TreeNode") -> None:
        """Swap ``old`` for ``new`` among the children."""
        if self.left is old:
            self.left = new
        elif self.right is old:
            self.right = new
        else:
            raise ValueError("node to replace is not a child of this internal node")
        new.parent = self


class LeafNode(TreeNode):
    """A DITS-L leaf holding dataset nodes and their inverted index (Definition 14).

    The posting list of each cell is a *counted* mapping ``dataset id -> 1``
    (an insertion-ordered set with O(1) membership and removal) rather than a
    plain list: iterating it yields the dataset IDs exactly like the list
    did, ``len()`` still gives the posting count, but ``remove_entry`` no
    longer pays an O(postings) ``list.remove`` per cell.

    Leaves additionally expose :attr:`full_cells` — the cells whose posting
    list contains *every* dataset of the leaf — so the Lemma 3 lower bound
    is one set intersection per query instead of a per-cell posting scan.
    """

    __slots__ = ("entries", "inverted", "capacity", "_full_cells")

    def __init__(
        self,
        rect: BoundingBox,
        entries: list[DatasetNode],
        capacity: int,
        parent: "InternalNode | None" = None,
    ) -> None:
        super().__init__(rect, parent)
        self.entries = list(entries)
        self.capacity = capacity
        self.size = len(self.entries)
        self.inverted: dict[int, dict[str, int]] = {}
        self._full_cells: set[int] | None = None
        self.rebuild_inverted()

    def is_leaf(self) -> bool:
        """A leaf stores dataset entries directly."""
        return True

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full_cells(self) -> set[int]:
        """Cells posted by every dataset of the leaf (Lemma 3 support set)."""
        cached = self._full_cells
        if cached is None:
            size = len(self.entries)
            cached = {
                cell
                for cell, postings in self.inverted.items()
                if len(postings) == size
            }
            self._full_cells = cached
        return cached

    def rebuild_inverted(self) -> None:
        """Recompute the cell-ID -> dataset-ID posting lists from the entries."""
        inverted: dict[int, dict[str, int]] = {}
        for entry in self.entries:
            dataset_id = entry.dataset_id
            for cell in entry.cells_array.tolist():
                postings = inverted.get(cell)
                if postings is None:
                    inverted[cell] = {dataset_id: 1}
                else:
                    postings[dataset_id] = 1
        self.inverted = inverted
        self._full_cells = None

    def add_entry(self, node: DatasetNode) -> None:
        """Append a dataset node and extend the posting lists."""
        self.entries.append(node)
        self.size = len(self.entries)
        dataset_id = node.dataset_id
        inverted = self.inverted
        for cell in node.cells_array.tolist():
            postings = inverted.get(cell)
            if postings is None:
                inverted[cell] = {dataset_id: 1}
            else:
                postings[dataset_id] = 1
        self._full_cells = None

    def remove_entry(self, dataset_id: str) -> DatasetNode:
        """Remove the entry with ``dataset_id`` and shrink the posting lists.

        O(cells of the removed dataset): the counted postings make each
        per-cell removal a hash delete instead of a list scan.
        """
        for position, entry in enumerate(self.entries):
            if entry.dataset_id == dataset_id:
                removed = self.entries.pop(position)
                self.size = len(self.entries)
                inverted = self.inverted
                for cell in removed.cells_array.tolist():
                    postings = inverted.get(cell)
                    if postings is None:
                        continue
                    postings.pop(dataset_id, None)
                    if not postings:
                        del inverted[cell]
                self._full_cells = None
                return removed
        raise DatasetNotFoundError(dataset_id)

    def dataset_ids(self) -> list[str]:
        """IDs of the datasets stored in the leaf."""
        return [entry.dataset_id for entry in self.entries]


class DITSLocalIndex(DatasetIndex):
    """The DITS-L local index (Algorithm 1).

    Parameters
    ----------
    leaf_capacity:
        Maximum number of dataset nodes per leaf (parameter ``f`` in the
        paper, default 30 to match the paper's mid-range setting).
    rebalance:
        Incremental rebalancing policy applied along every mutation path;
        ``None`` uses the default-enabled :class:`RebalancePolicy` (pass
        ``RebalancePolicy(enabled=False)`` for the legacy never-rebalance
        behaviour, e.g. to measure churn skew).
    """

    name = "DITS-L"

    def __init__(
        self,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        rebalance: RebalancePolicy | None = None,
    ) -> None:
        super().__init__()
        if leaf_capacity <= 0:
            raise InvalidParameterError(f"leaf capacity must be positive, got {leaf_capacity}")
        self.leaf_capacity = leaf_capacity
        self.rebalance_policy = rebalance if rebalance is not None else RebalancePolicy()
        self._rebalancer = Rebalancer(self, self.rebalance_policy)
        self._defer_refits = self.rebalance_policy.deferred_refit
        self._refit_pending = False
        self._root: TreeNode | None = None
        self._leaf_of: dict[str, LeafNode] = {}

    @property
    def rebalance_stats(self) -> RebalanceStats:
        """Cumulative maintenance counters (rebuilds, merges, deferred refits)."""
        return self._rebalancer.stats

    # ------------------------------------------------------------------ #
    # Construction (Algorithm 1, top-down median split)
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> TreeNode:
        """The root tree node; raises if the index is empty/unbuilt.

        Flushes any deferred MBR re-tightening first, so every consumer of
        the tree (the search algorithms, ``root_summary``) always observes
        exact MBRs.
        """
        self._service_pending()
        if self._root is None:
            raise IndexNotBuiltError("DITS-L index has not been built or is empty")
        return self._root

    def is_built(self) -> bool:
        """Whether the tree currently holds at least one dataset."""
        return self._root is not None

    def _rebuild(self) -> None:
        self._leaf_of = {}
        self._refit_pending = False
        entries = list(self._nodes.values())
        self._root = self._build_subtree(entries, parent=None) if entries else None

    def _build_subtree(
        self, entries: list[DatasetNode], parent: InternalNode | None
    ) -> TreeNode:
        rect = BoundingBox.union_of(entry.rect for entry in entries)
        if len(entries) <= self.leaf_capacity:
            leaf = LeafNode(rect, entries, self.leaf_capacity, parent)
            for entry in entries:
                self._leaf_of[entry.dataset_id] = leaf
            return leaf

        split_dim = 0 if rect.width >= rect.height else 1
        left_entries, right_entries = _median_split(entries, split_dim)
        node = InternalNode(
            rect,
            left=self._build_subtree(left_entries, parent=None),
            right=self._build_subtree(right_entries, parent=None),
            parent=parent,
        )
        return node

    # ------------------------------------------------------------------ #
    # Maintenance (Appendix IX-C + scapegoat-style rebalancing)
    # ------------------------------------------------------------------ #
    def _insert_structure(self, node: DatasetNode) -> None:
        if self._root is None:
            leaf = LeafNode(node.rect, [node], self.leaf_capacity, parent=None)
            self._root = leaf
            self._leaf_of[node.dataset_id] = leaf
            return
        leaf = self._choose_leaf(node)
        leaf.add_entry(node)
        leaf._set_rect(leaf.rect.union(node.rect))
        self._leaf_of[node.dataset_id] = leaf
        changed: TreeNode = leaf
        if len(leaf) > self.leaf_capacity:
            changed = self._split_leaf(leaf)
        # Inserts only enlarge MBRs, so growing each ancestor by the new
        # rect *is* the exact refit — there is nothing to re-tighten and
        # nothing to defer.
        self._grow_upwards(changed, node.rect)
        self._rebalancer.after_mutation(changed)

    def _delete_structure(self, node: DatasetNode) -> None:
        leaf = self._leaf_of.pop(node.dataset_id, None)
        if leaf is None:
            raise DatasetNotFoundError(node.dataset_id)
        leaf.remove_entry(node.dataset_id)
        if not leaf.entries:
            survivor = self._remove_empty_leaf(leaf)
            if survivor is None:
                return
            changed = survivor
        else:
            changed = self._rebalancer.absorb_underflow(leaf)
        self._tighten_or_defer(changed)
        self._rebalancer.after_mutation(changed)

    def _update_structure(self, old: DatasetNode, new: DatasetNode) -> None:
        leaf = self._leaf_of.get(old.dataset_id)
        if leaf is None:
            raise DatasetNotFoundError(old.dataset_id)
        if self._choose_leaf(new) is not leaf:
            # The dataset moved: keeping it in place would union the new
            # rect into a leaf it no longer belongs to, permanently bloating
            # that leaf's MBR and weakening the distance bounds.  Relocate.
            self._delete_structure(old)
            self._insert_structure(new)
            return
        leaf.remove_entry(old.dataset_id)
        leaf.add_entry(new)
        if self._defer_refits:
            # Keep the MBRs conservative now (the new rect may extend past
            # the leaf), defer the re-tightening to the next query flush.
            leaf._set_rect(leaf.rect.union(new.rect))
            self._grow_upwards(leaf, new.rect)
            self._mark_dirty_upwards(leaf)
            self._rebalancer.stats.deferred_refits += 1
        else:
            leaf._set_rect(BoundingBox.union_of(entry.rect for entry in leaf.entries))
            self._refit_upwards(leaf)

    def _choose_leaf(self, node: DatasetNode) -> LeafNode:
        """Descend from the root choosing the child whose pivot is closest."""
        current = self._root
        assert current is not None
        while not current.is_leaf():
            assert isinstance(current, InternalNode)
            left_distance = current.left.pivot.distance_to(node.pivot)
            right_distance = current.right.pivot.distance_to(node.pivot)
            current = current.left if left_distance <= right_distance else current.right
        assert isinstance(current, LeafNode)
        return current

    def _split_leaf(self, leaf: LeafNode) -> InternalNode:
        """Split an over-full leaf into two along its widest dimension."""
        rect = BoundingBox.union_of(entry.rect for entry in leaf.entries)
        split_dim = 0 if rect.width >= rect.height else 1
        left_entries, right_entries = _median_split(leaf.entries, split_dim)
        parent = leaf.parent
        left_leaf = LeafNode(
            BoundingBox.union_of(entry.rect for entry in left_entries),
            left_entries,
            self.leaf_capacity,
        )
        right_leaf = LeafNode(
            BoundingBox.union_of(entry.rect for entry in right_entries),
            right_entries,
            self.leaf_capacity,
        )
        for entry in left_entries:
            self._leaf_of[entry.dataset_id] = left_leaf
        for entry in right_entries:
            self._leaf_of[entry.dataset_id] = right_leaf
        replacement = InternalNode(rect, left_leaf, right_leaf, parent)
        if parent is None:
            self._root = replacement
        else:
            parent.replace_child(leaf, replacement)
        return replacement

    def _remove_empty_leaf(self, leaf: LeafNode) -> TreeNode | None:
        """Remove a leaf that lost its last entry, collapsing its parent.

        Returns the sibling promoted into the parent's place (the node to
        continue refit/size maintenance from), or ``None`` when the removed
        leaf was the root and the tree is now empty.
        """
        parent = leaf.parent
        if parent is None:
            self._root = None
            self._refit_pending = False
            return None
        sibling = parent.right if parent.left is leaf else parent.left
        grandparent = parent.parent
        if grandparent is None:
            self._root = sibling
            sibling.parent = None
        else:
            grandparent.replace_child(parent, sibling)
        return sibling

    # ------------------------------------------------------------------ #
    # MBR maintenance: eager refits, conservative grows, deferred flushes
    # ------------------------------------------------------------------ #
    def _refit_upwards(self, node: TreeNode) -> None:
        """Re-tighten MBRs from ``node``'s parent up to the root."""
        current = node.parent
        while current is not None:
            current._set_rect(current.left.rect.union(current.right.rect))
            current = current.parent

    def _grow_upwards(self, node: TreeNode, rect: BoundingBox) -> None:
        """Grow ancestor MBRs to cover ``rect`` (stop once it is contained).

        Ancestors are nested, so the first one already containing ``rect``
        ends the walk.  For inserts this *is* the exact refit; for deferred
        updates it is the cheap conservative step preceding the flush.
        """
        current = node.parent
        while current is not None and not current.rect.contains_box(rect):
            current._set_rect(current.rect.union(rect))
            current = current.parent

    def _tighten_or_defer(self, node: TreeNode) -> None:
        """Re-tighten MBRs from ``node`` up, or mark the path for a later flush."""
        if self._defer_refits:
            self._mark_dirty_upwards(node)
            self._rebalancer.stats.deferred_refits += 1
            return
        if node.is_leaf():
            assert isinstance(node, LeafNode)
            node._set_rect(BoundingBox.union_of(entry.rect for entry in node.entries))
        self._refit_upwards(node)

    def _mark_dirty_upwards(self, node: TreeNode) -> None:
        """Flag ``node`` and its ancestors for re-tightening at the next flush.

        The walk stops at the first already-dirty ancestor (its own path to
        the root is dirty by construction), so a burst of mutations in one
        region marks each path segment once.
        """
        current: TreeNode | None = node
        while current is not None and not current.refit_dirty:
            current.refit_dirty = True
            current = current.parent
        self._refit_pending = True

    def _service_pending(self) -> None:
        """Flush deferred MBR re-tightening before the tree is observed."""
        if self._refit_pending:
            self._flush_refits()

    def _flush_refits(self) -> None:
        """Re-tighten every dirty node bottom-up (one pass over the dirty region)."""
        self._refit_pending = False
        root = self._root
        if root is None or not root.refit_dirty:
            return
        stack: list[tuple[TreeNode, bool]] = [(root, False)]
        while stack:
            node, children_done = stack.pop()
            if not node.refit_dirty:
                continue
            if node.is_leaf():
                assert isinstance(node, LeafNode)
                node._set_rect(
                    BoundingBox.union_of(entry.rect for entry in node.entries)
                )
                node.refit_dirty = False
            elif children_done:
                assert isinstance(node, InternalNode)
                node._set_rect(node.left.rect.union(node.right.rect))
                node.refit_dirty = False
            else:
                assert isinstance(node, InternalNode)
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
        self._rebalancer.stats.refit_flushes += 1

    def _collect_entries(self, node: TreeNode) -> list[DatasetNode]:
        """All dataset nodes stored under ``node``, in left-to-right leaf order."""
        entries: list[DatasetNode] = []
        stack: list[TreeNode] = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf():
                assert isinstance(current, LeafNode)
                entries.extend(current.entries)
            else:
                assert isinstance(current, InternalNode)
                stack.append(current.right)
                stack.append(current.left)
        return entries

    # ------------------------------------------------------------------ #
    # Traversal helpers used by the search algorithms
    # ------------------------------------------------------------------ #
    def leaves(self) -> Iterator[LeafNode]:
        """Iterate over all leaves (left-to-right order)."""
        self._service_pending()
        if self._root is None:
            return
        stack: list[TreeNode] = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf():
                yield node  # type: ignore[misc]
            else:
                assert isinstance(node, InternalNode)
                stack.append(node.right)
                stack.append(node.left)

    def leaf_for(self, dataset_id: str) -> LeafNode:  # public-api: registry checks in tests
        """The leaf currently storing ``dataset_id``."""
        try:
            return self._leaf_of[dataset_id]
        except KeyError as exc:
            raise DatasetNotFoundError(dataset_id) from exc

    def height(self) -> int:
        """Height of the tree (a single leaf has height 1).

        Iterative: a churn-skewed (or simply very large) tree must not blow
        the interpreter recursion limit, which the previous per-level
        recursion did once the depth approached ~1000.
        """
        self._service_pending()
        if self._root is None:
            return 0
        deepest = 0
        stack: list[tuple[TreeNode, int]] = [(self._root, 1)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf():
                if depth > deepest:
                    deepest = depth
                continue
            assert isinstance(node, InternalNode)
            stack.append((node.right, depth + 1))
            stack.append((node.left, depth + 1))
        return deepest

    def node_count(self) -> int:
        """Total number of tree nodes (internal + leaves)."""
        self._service_pending()
        count = 0
        if self._root is None:
            return 0
        stack: list[TreeNode] = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf():
                assert isinstance(node, InternalNode)
                stack.extend(node.children())
        return count

    def root_summary(self) -> tuple[BoundingBox, Point, float, int]:
        """The ``(rect, pivot, radius, n_datasets)`` summary shipped to DITS-G."""
        root = self.root
        return root.rect, root.pivot, root.radius, len(self)


def _median_split(
    entries: Iterable[DatasetNode], dimension: int
) -> tuple[list[DatasetNode], list[DatasetNode]]:
    """Split ``entries`` at the median pivot coordinate along ``dimension``.

    Entries are first sorted by the chosen coordinate (ties broken by dataset
    ID for determinism) and then cut at the median position, which guarantees
    both halves are non-empty even when many pivots coincide.
    """
    ordered = sorted(
        entries,
        key=lambda entry: (
            entry.pivot.x if dimension == 0 else entry.pivot.y,
            entry.dataset_id,
        ),
    )
    if len(ordered) < 2:
        raise ValueError("cannot split fewer than two entries")
    midpoint = len(ordered) // 2
    return ordered[:midpoint], ordered[midpoint:]
