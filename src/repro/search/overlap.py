"""OverlapSearch: the exact OJSP algorithm over DITS-L (Algorithm 2).

The algorithm has a filter phase and a verification phase:

1. **Filter (BranchAndBound)** — recurse down the DITS-L tree, pruning every
   subtree whose MBR does not intersect the query MBR (datasets with disjoint
   MBRs cannot share a cell).  For each surviving leaf, read the Lemma 2
   upper and Lemma 3 lower intersection bounds off the leaf's inverted index
   (:meth:`~repro.index.dits.LeafNode.bounds`: one ``searchsorted`` of the
   query's sorted cell array); a leaf whose upper bound cannot beat the lower
   bounds of ``k`` already-collected leaves is discarded in batch.

2. **Verify** — candidate leaves are drained from a max-heap ordered by upper
   bound, so verification stops at the first leaf that provably cannot beat
   the current k-th best overlap (the incremental verification threshold).
   Within a leaf, exact per-dataset overlaps are one ``bincount`` over the
   shared query cells' postings
   (:meth:`~repro.index.dits.LeafNode.overlaps`), pushed into a
   *canonical* bounded top-``k`` result queue that breaks score ties by
   dataset ID (smallest first) — both for which tied dataset is retained at
   the ``k``-th position and for the final ordering.

The result is exact, and since every dataset tied with the k-th best score
is provably verified (its leaf's upper bound is at least that score), the
canonical tie-breaking makes the answer a pure function of the indexed
dataset set: identical to frozenset arithmetic *and* across tree shapes, so
an incrementally mutated (and rebalanced) DITS-L returns bit-identical
results to a freshly rebuilt one.  When fewer than ``k`` datasets overlap
the query but at least one does, the remainder is filled with zero-score
datasets in ascending-ID order (the seed filled from candidate leaves in
scan order, which leaked the tree shape into the answer).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.dataset import DatasetNode
from repro.core.problems import OverlapQuery, OverlapResult
from repro.index.dits import DITSLocalIndex, InternalNode, LeafNode
from repro.utils.heaps import CanonicalTopK

__all__ = ["OverlapSearch", "OverlapSearchStats"]


@dataclass(slots=True)
class OverlapSearchStats:
    """Counters describing how much work one overlap search performed."""

    visited_internal: int = 0
    visited_leaves: int = 0
    pruned_by_mbr: int = 0
    pruned_by_bounds: int = 0
    candidate_leaves: int = 0
    verified_datasets: int = 0


@dataclass(slots=True)
class _CandidateLeaf:
    """A leaf that survived filtering: its bounds and shared-cell positions."""

    leaf: LeafNode
    lower: int
    upper: int
    shared: np.ndarray


class OverlapSearch:
    """Exact top-k overlap joinable search over a :class:`DITSLocalIndex`."""

    name = "OverlapSearch"

    def __init__(self, index: DITSLocalIndex) -> None:
        self._index = index
        self.last_stats = OverlapSearchStats()

    @property
    def index(self) -> DITSLocalIndex:
        """The DITS-L index this search runs against."""
        return self._index

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def search(self, request: OverlapQuery) -> OverlapResult:
        """Run OJSP for ``request`` and return the top-k result."""
        return self.search_node(request.query, request.k)

    def search_node(self, query: DatasetNode, k: int) -> OverlapResult:  # parity-critical
        """Run OJSP for ``query`` with result size ``k``."""
        stats = OverlapSearchStats()
        self.last_stats = stats
        if not self._index.is_built() or len(self._index) == 0:
            return OverlapResult(entries=())

        candidates = self._filter_leaves(query, k, stats)
        results = self._verify(k, candidates, stats)
        return results

    # ------------------------------------------------------------------ #
    # Phase 1: branch-and-bound filtering
    # ------------------------------------------------------------------ #
    def _filter_leaves(
        self, query: DatasetNode, k: int, stats: OverlapSearchStats
    ) -> list[tuple[int, int, _CandidateLeaf]]:
        """Surviving candidate leaves as a ``(-upper, seq, candidate)`` heap."""
        query_rect = query.rect
        query_cells = query.cells_array
        candidates: list[_CandidateLeaf] = []

        stack = [self._index.root]
        while stack:
            node = stack.pop()
            if not node.rect.intersects(query_rect):
                stats.pruned_by_mbr += 1
                continue
            if node.is_leaf():
                assert isinstance(node, LeafNode)
                stats.visited_leaves += 1
                lower, upper, shared = node.bounds(query_cells)
                if upper == 0:
                    stats.pruned_by_bounds += 1
                    continue
                candidates.append(_CandidateLeaf(node, lower, upper, shared))
            else:
                assert isinstance(node, InternalNode)
                stats.visited_internal += 1
                stack.append(node.left)
                stack.append(node.right)

        # Batch pruning: keep candidate leaves whose upper bound can still
        # beat the k-th best lower bound achievable from other leaves.  Each
        # leaf can contribute up to ``len(leaf.entries)`` results with
        # overlap at least ``lower``.
        threshold = _kth_lower_bound(candidates, k)
        surviving = []
        for candidate in candidates:
            if candidate.upper < threshold:
                stats.pruned_by_bounds += 1
                continue
            surviving.append(candidate)
        stats.candidate_leaves = len(surviving)
        # Max-heap keyed by upper bound; the sequence number keeps ties in
        # discovery order, matching the stable sort the heap replaces, while
        # leaves pruned by the verification cutoff are never sorted at all.
        heap = [(-candidate.upper, seq, candidate) for seq, candidate in enumerate(surviving)]
        heapq.heapify(heap)
        return heap

    # ------------------------------------------------------------------ #
    # Phase 2: verification via the leaves' postings
    # ------------------------------------------------------------------ #
    def _verify(  # parity-critical
        self,
        k: int,
        candidates: list[tuple[int, int, _CandidateLeaf]],
        stats: OverlapSearchStats,
    ) -> OverlapResult:
        heap: CanonicalTopK[str] = CanonicalTopK(k)
        while candidates:
            _, _, candidate = heapq.heappop(candidates)
            # Candidates pop in decreasing upper-bound order, so once the
            # current leaf's upper bound cannot beat the established k-th
            # overlap, no later leaf can either.  (A leaf whose upper bound
            # *equals* the k-th score is still verified, so every dataset
            # tied at the boundary reaches the canonical heap and the tie is
            # settled by dataset ID, not by tree shape.)
            if heap.is_full() and candidate.upper < heap.kth_score():
                stats.pruned_by_bounds += 1
                break
            stats.verified_datasets += len(candidate.leaf.entries)
            for dataset_id, overlap in candidate.leaf.overlaps(candidate.shared):
                heap.push(float(overlap), dataset_id)
        # Fewer than k datasets overlap the query (the loop verified every
        # positive-overlap dataset, or the heap would be full): fill with
        # zero-score datasets in ascending-ID order, mirroring lines 6-7 of
        # Algorithm 2 but independent of the leaf layout.  A query that
        # overlaps nothing keeps returning an empty result.  ``nsmallest``
        # over the k smallest IDs (at most ``len(heap)`` of which are
        # already retained) finds the fillers in one O(n) scan instead of
        # sorting the whole corpus id list per query.
        if heap and not heap.is_full():
            smallest_ids = heapq.nsmallest(
                k, (entry.dataset_id for entry in self._index.nodes())
            )
            for dataset_id in smallest_ids:
                if dataset_id not in heap:
                    heap.push(0.0, dataset_id)
                    if heap.is_full():
                        break
        return OverlapResult.from_pairs((dataset_id, score) for score, dataset_id in heap.items())


def _kth_lower_bound(candidates: list[_CandidateLeaf], k: int) -> int:
    """The k-th largest lower bound achievable across candidate leaves.

    Every candidate leaf guarantees ``len(leaf.entries)`` datasets with
    overlap at least ``leaf.lower``.  Since every leaf holds at least one
    dataset, the k-th largest guaranteed overlap is found within the ``k``
    candidates with the largest lower bounds, so ``heapq.nlargest`` over the
    ``(lower, count)`` pairs replaces the seed's O(n·f) materialization of
    one list element per guaranteed dataset.
    """
    if not candidates:
        return 0
    if sum(len(candidate.leaf.entries) for candidate in candidates) < k:
        return 0
    remaining = k
    best_pairs = heapq.nlargest(
        min(k, len(candidates)),
        ((candidate.lower, len(candidate.leaf.entries)) for candidate in candidates),
    )
    for lower, count in best_pairs:
        remaining -= count
        if remaining <= 0:
            return lower
    return 0
