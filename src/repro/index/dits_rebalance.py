"""Churn-safe rebalancing for DITS-L (scapegoat-style amortized rebuilds).

The Appendix IX-C maintenance operations touch one root-to-leaf path per
mutation, which keeps them fast but lets sustained churn skew the tree: a
drifting insert workload grows a spine, deletes hollow out leaves, and the
degraded shape silently weakens the Lemma 2/3/4 bounds OverlapSearch and
CoverageSearch prune with.  This module restores the bulk-built shape
guarantees under churn with three cooperating mechanisms:

* **Weight balance (alpha-balance)** — every tree node carries the number of
  datasets in its subtree (``TreeNode.size``).  After a mutation the path
  from the touched leaf to the root is rescanned bottom-up; if any ancestor
  violates ``max(|left|, |right|) <= alpha * |node|`` the *highest* violating
  ancestor is rebuilt from scratch with the same top-down median split used
  by ``build()`` (:meth:`DITSLocalIndex._build_subtree`).  Because the
  bulk loader splits at the median, a rebuilt subtree is as balanced as a
  fresh build, and because only the highest violator is rebuilt, every node
  of the tree satisfies the invariant after every mutation.  Rebuilding is
  O(m log m) for a subtree of m datasets but amortizes to O(log n) per
  mutation exactly as in a scapegoat tree: a node must absorb
  Omega(alpha * size) unbalanced mutations before it can trigger again.

* **Leaf underflow merging** — deletes that leave a leaf below
  ``leaf_capacity // 4`` entries absorb the leaf into its sibling (when the
  sibling is also a leaf and the union fits in one leaf), so heavy deletion
  cannot fragment the tree into near-empty leaves whose posting lists and
  MBRs are all overhead.

* **Deferred refits** — with ``RebalancePolicy(deferred_refit=True)`` the
  per-mutation MBR *re-tightening* walk is skipped: shrinking mutations only
  mark their root-to-leaf path dirty and the tightening runs once, bottom-up
  over the dirty region, at the next query.  MBRs are kept
  *conservative* (never smaller than their content) throughout the burst —
  inserts still grow rects on the way down — so a flush restores exactly the
  rects an eager refit would have maintained.

The rebalancer never changes which datasets the index holds, and the search
algorithms are exact for any tree shape, so results are identical to a
freshly rebuilt tree after any mutation sequence (enforced by the
differential churn suites in ``tests/index/test_dits_churn.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.index.dits import DITSLocalIndex, LeafNode, TreeNode

__all__ = ["RebalancePolicy", "RebalanceStats", "Rebalancer"]

#: Weight-balance factor: a node is balanced while neither child holds more
#: than this fraction of the subtree's datasets.  0.65 keeps the worst-case
#: height within ~1.6x of a perfectly balanced tree while leaving enough
#: slack that ordinary insert/delete traffic rarely triggers a rebuild.
DEFAULT_ALPHA = 0.65

#: Subtrees smaller than this never trigger a scapegoat rebuild: their depth
#: contribution is bounded by a constant and rebuilding them would thrash
#: (a 3-dataset subtree at capacity 1 is *always* alpha-unbalanced).
DEFAULT_MIN_REBUILD_SIZE = 4


@dataclass(frozen=True, slots=True)
class RebalancePolicy:
    """Tuning knobs for DITS-L incremental rebalancing.

    Parameters
    ----------
    enabled:
        ``False`` restores the PR-4 behaviour: mutations only touch one
        root-to-leaf path and the tree is never reshaped.  Searches stay
        exact either way; only their pruning power degrades.
    alpha:
        Weight-balance factor in ``(0.5, 1.0)``; lower values keep the tree
        tighter at the cost of more frequent partial rebuilds.
    min_rebuild_size:
        Minimum subtree dataset count before a balance violation triggers a
        rebuild (see :data:`DEFAULT_MIN_REBUILD_SIZE`).
    merge_underflow:
        Absorb a leaf into its sibling leaf when a delete leaves it below
        ``leaf_capacity // 4`` entries and the union fits one leaf.
    deferred_refit:
        Batch MBR re-tightening across a mutation burst and flush it at the
        next query instead of walking the path on every shrinking mutation.
    """

    enabled: bool = True
    alpha: float = DEFAULT_ALPHA
    min_rebuild_size: int = DEFAULT_MIN_REBUILD_SIZE
    merge_underflow: bool = True
    deferred_refit: bool = False

    def __post_init__(self) -> None:
        if not 0.5 < self.alpha < 1.0:
            raise InvalidParameterError(
                f"alpha must be in (0.5, 1.0), got {self.alpha}"
            )
        if self.min_rebuild_size < 2:
            raise InvalidParameterError(
                f"min_rebuild_size must be at least 2, got {self.min_rebuild_size}"
            )


@dataclass(slots=True)
class RebalanceStats:
    """Counters describing the maintenance work a DITS-L index performed."""

    #: Scapegoat subtree rebuilds triggered by an alpha-balance violation.
    rebalance_count: int = 0
    #: Total datasets re-inserted by those rebuilds (the amortized cost).
    rebuilt_entries: int = 0
    #: Underflowing leaves absorbed into a sibling leaf.
    leaf_merges: int = 0
    #: Shrinking mutations whose MBR re-tightening was deferred.
    deferred_refits: int = 0
    #: Query-time flushes that re-tightened a dirty region.
    refit_flushes: int = 0

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for stats reporting and benchmark rows."""
        return {
            "rebalance_count": self.rebalance_count,
            "rebuilt_entries": self.rebuilt_entries,
            "leaf_merges": self.leaf_merges,
            "deferred_refits": self.deferred_refits,
            "refit_flushes": self.refit_flushes,
        }


class Rebalancer:
    """Maintains the alpha-balance invariant of one :class:`DITSLocalIndex`.

    The index calls :meth:`after_mutation` at the end of every structural
    mutation with the deepest node whose subtree changed; the rebalancer
    refreshes the subtree sizes along the path to the root, finds the highest
    alpha-violating ancestor and rebuilds it in place.  Delete paths
    additionally offer the shrunken leaf to :meth:`absorb_underflow` before
    the balance pass.
    """

    __slots__ = ("_index", "policy", "stats")

    def __init__(self, index: "DITSLocalIndex", policy: RebalancePolicy) -> None:
        self._index = index
        self.policy = policy
        self.stats = RebalanceStats()

    # ------------------------------------------------------------------ #
    # Balance maintenance
    # ------------------------------------------------------------------ #
    def after_mutation(self, node: "TreeNode") -> None:
        """Refresh sizes above ``node`` and rebuild the highest unbalanced ancestor.

        ``node`` is the deepest surviving node whose subtree content changed
        (the touched leaf, a split replacement, a merged leaf or a promoted
        sibling); its own ``size`` is already correct.  The walk recomputes
        every ancestor's size from its children — which must happen whether
        or not rebalancing is enabled, so the sizes stay trustworthy — and
        remembers the highest node violating the alpha-balance test.
        """
        policy = self.policy
        scapegoat = None
        current = node.parent
        while current is not None:
            current.size = current.left.size + current.right.size
            if (
                policy.enabled
                and current.size >= policy.min_rebuild_size
                and max(current.left.size, current.right.size)
                > policy.alpha * current.size
            ):
                scapegoat = current
            current = current.parent
        if scapegoat is not None:
            self.rebuild_subtree(scapegoat)

    def rebuild_subtree(self, node: "TreeNode") -> "TreeNode":
        """Rebuild the subtree rooted at ``node`` with the bulk median split.

        The rebuilt subtree covers exactly the same datasets, so ancestor
        sizes are untouched; its root MBR is the exact union of those
        datasets, so eager-mode ancestors keep their (identical) rects and
        deferred-mode ancestors stay conservatively large until the next
        flush.  Returns the replacement node.
        """
        index = self._index
        entries = index._collect_entries(node)
        parent = node.parent
        replacement = index._build_subtree(entries, parent)
        if parent is None:
            index._root = replacement
        else:
            parent.replace_child(node, replacement)
        self.stats.rebalance_count += 1
        self.stats.rebuilt_entries += len(entries)
        return replacement

    # ------------------------------------------------------------------ #
    # Leaf underflow merging
    # ------------------------------------------------------------------ #
    def absorb_underflow(self, leaf: "LeafNode") -> "TreeNode":
        """Merge ``leaf`` into its sibling when a delete left it underfull.

        Applies when the leaf holds fewer than ``leaf_capacity // 4``
        entries, its sibling is also a leaf, and the union fits within one
        leaf.  The merged leaf replaces the parent (one tree level
        disappears).  Returns the node the caller should continue refit /
        size maintenance from: the merged leaf, or ``leaf`` unchanged when
        no merge applies.
        """
        index = self._index
        policy = self.policy
        if not (policy.enabled and policy.merge_underflow):
            return leaf
        if len(leaf) >= index.leaf_capacity // 4:
            return leaf
        parent = leaf.parent
        if parent is None:
            return leaf
        sibling = parent.right if parent.left is leaf else parent.left
        if not sibling.is_leaf():
            return leaf
        if len(leaf) + len(sibling) > index.leaf_capacity:
            return leaf
        # Rebuild the two-leaf parent into a single leaf; keeping the
        # left-to-right entry order makes the merge deterministic.
        left, right = parent.children()
        entries = list(left.entries) + list(right.entries)  # type: ignore[union-attr]
        grandparent = parent.parent
        merged = index._build_subtree(entries, grandparent)
        if grandparent is None:
            index._root = merged
        else:
            grandparent.replace_child(parent, merged)
        self.stats.leaf_merges += 1
        return merged
