"""CoverageSearch: the greedy CJSP algorithm over DITS-L (Algorithm 3).

CJSP is NP-hard (reduction from Maximum Coverage), so the paper solves it
with a greedy algorithm that in each of ``k`` iterations adds the dataset
with the largest marginal coverage gain among those connected to the current
result set.  Two accelerations distinguish CoverageSearch from the plain
greedy baseline:

* **Spatial merge** — instead of checking connectivity against every dataset
  already in the result set, the result set (query included) is merged into a
  single *merged node* whose MBR/pivot/radius cover everything selected so
  far.  Each iteration then performs exactly one connectivity search in the
  tree.
* **Distance bounds (Lemma 4)** — ``FindConnectSet`` descends DITS-L using
  pivot/radius distance bounds: a subtree whose upper bound is within
  ``delta`` is accepted wholesale, a subtree whose lower bound exceeds
  ``delta`` is rejected wholesale, and only border cases fall through to
  exact per-dataset distance checks.

The greedy loop itself — covered set, marginal gains, tie-break — is
:class:`GreedyCover`, shared with the SG / SG+DITS baselines and the data
center's final pass, which differ from CoverageSearch only in how they find
each round's connected candidates.  It carries Algorithm 3's third
acceleration:

* **Coverage-size filter** — a candidate whose total cell count does not
  exceed the best marginal gain found so far in the current iteration cannot
  win it, so its exact marginal gain is never computed (Algorithm 3 line 6).

Three further accelerations are layered on top without changing any result:

* **Connectivity cache** — the merged node only ever *grows*, so the
  distance from any dataset to it is monotonically non-increasing across
  iterations.  A dataset found connected once therefore stays connected;
  its (potentially expensive) exact distance check is never repeated.
* **Merge-kernel gains** — the covered set is a sorted cell vector,
  marginal gains are ``difference_size`` merge kernels and the covered set
  is advanced with one vectorized union per iteration, instead of
  rebuilding Python set differences/unions.
* **Batched leaf verification** — the leaf entries whose Lemma 4 bounds are
  indecisive are accumulated during the tree traversal and resolved with one
  δ-bounded :class:`~repro.core.distance_engine.DistanceEngine` kernel call
  (a single KD-tree over the merged query answers the whole frontier),
  replacing the per-entry exact distance computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable

from repro.core.dataset import DatasetNode
from repro.core.distance import node_distance_bounds
from repro.core.distance_engine import get_engine
from repro.core.errors import InvalidParameterError
from repro.core.problems import CoverageQuery, CoverageResult, ScoredDataset
from repro.index.dits import DITSLocalIndex, InternalNode, LeafNode, TreeNode
from repro.utils import cellsets

__all__ = ["CoverageSearch", "CoverageSearchStats", "GreedyCover", "find_connected_nodes"]


@dataclass(slots=True)
class CoverageSearchStats:
    """Counters describing the work performed by one coverage search."""

    iterations: int = 0
    subtree_accepts: int = 0
    subtree_rejects: int = 0
    exact_distance_checks: int = 0
    gain_evaluations: int = 0
    gain_skips: int = 0


def find_connected_nodes(  # parity-critical
    root: TreeNode,
    query: DatasetNode,
    delta: float,
    exclude: set[str] | None = None,
    stats: CoverageSearchStats | None = None,
    known_connected: Container[str] | None = None,
) -> list[DatasetNode]:
    """FindConnectSet (Algorithm 3, lines 14-26): datasets within ``delta`` of ``query``.

    The DITS-L tree rooted at ``root`` is traversed with the Lemma 4 bounds:
    subtrees are accepted or rejected wholesale whenever the bounds are
    decisive and only the remaining datasets pay an exact distance
    computation.  ``exclude`` removes datasets already in the result set.

    ``known_connected`` names datasets already proven connected to a node
    whose cells are a subset of ``query``'s (CoverageSearch's previous merged
    node): their distance to ``query`` can only have shrunk, so they are
    accepted without re-checking.  Passing it never changes the result set,
    only the amount of distance work.

    Leaf entries whose bounds are indecisive are *not* verified one by one:
    they are collected during the traversal and resolved afterwards with a
    single δ-bounded batch kernel (one KD-tree over ``query``, one stacked
    candidate query), preserving the traversal order of the result list.
    """
    if delta < 0:
        raise InvalidParameterError(f"delta must be non-negative, got {delta}")
    excluded = exclude or set()
    known = known_connected if known_connected is not None else ()
    # ``None`` marks slots reserved for undecided entries, filled (or dropped)
    # after the batched verification so the output order matches the
    # entry-by-entry traversal exactly.
    slots: list[DatasetNode | None] = []
    pending_nodes: list[DatasetNode] = []
    pending_slots: list[int] = []
    stack: list[TreeNode] = [root]
    while stack:
        node = stack.pop()
        pivot_distance = node.pivot.distance_to(query.pivot)
        lower = max(pivot_distance - node.radius - query.radius, 0.0)
        upper = pivot_distance + node.radius + query.radius
        if upper <= delta:
            # Whole subtree is connected: collect every dataset it stores.
            if stats is not None:
                stats.subtree_accepts += 1
            _collect_datasets(node, excluded, slots)
            continue
        if lower > delta:
            if stats is not None:
                stats.subtree_rejects += 1
            continue
        if node.is_leaf():
            assert isinstance(node, LeafNode)
            for entry in node.entries:
                if entry.dataset_id in excluded:
                    continue
                if entry.dataset_id in known:
                    slots.append(entry)
                    continue
                entry_lower, entry_upper = node_distance_bounds(entry, query)
                if entry_lower > delta:
                    continue
                if entry_upper <= delta:
                    slots.append(entry)
                    continue
                pending_slots.append(len(slots))
                slots.append(None)
                pending_nodes.append(entry)
        else:
            assert isinstance(node, InternalNode)
            stack.append(node.left)
            stack.append(node.right)
    if pending_nodes:
        if stats is not None:
            stats.exact_distance_checks += len(pending_nodes)
        mask = get_engine().within_delta_many(query, pending_nodes, delta)
        for slot, entry, ok in zip(pending_slots, pending_nodes, mask):
            if ok:
                slots[slot] = entry
    return [entry for entry in slots if entry is not None]


def _collect_datasets(
    node: TreeNode, excluded: set[str], out: "list[DatasetNode | None]"
) -> None:
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf():
            assert isinstance(current, LeafNode)
            out.extend(entry for entry in current.entries if entry.dataset_id not in excluded)
        else:
            assert isinstance(current, InternalNode)
            stack.append(current.left)
            stack.append(current.right)


class GreedyCover:
    """Algorithm 3's greedy state: the covered set and each round's choice.

    The caller finds the round's connected candidates, :meth:`pick` chooses
    among them and :meth:`add` records the choice.  The covered set is a
    sorted cell vector: gains are ``difference_size`` merge kernels and each
    selection advances it with one vectorized union.
    """

    def __init__(self, query: DatasetNode) -> None:
        self._query_coverage = query.coverage
        self._covered_array = query.cells_array
        self._entries: list[ScoredDataset] = []

    def pick(  # parity-critical
        self, candidates: Iterable[DatasetNode], stats: CoverageSearchStats | None = None
    ) -> tuple[DatasetNode, int] | None:
        """The candidate with the largest positive marginal gain, and that gain.

        Gain ties go to the smaller ``dataset_id``.  A candidate whose total
        cell count does not exceed the best gain so far cannot beat it, so
        its gain is never computed (Algorithm 3 line 6); taken in ascending
        id order that filter can only drop candidates that would lose the
        tie anyway.  ``None`` when no candidate adds coverage.
        """
        best_node: DatasetNode | None = None
        best_gain = 0
        for candidate in candidates:
            if candidate.coverage <= best_gain:
                if stats is not None:
                    stats.gain_skips += 1
                continue
            if stats is not None:
                stats.gain_evaluations += 1
            gain = cellsets.difference_size(candidate.cells_array, self._covered_array)
            if gain > best_gain or (
                gain == best_gain
                and best_node is not None
                and candidate.dataset_id < best_node.dataset_id
            ):
                best_gain = gain
                best_node = candidate
        return None if best_node is None else (best_node, best_gain)

    def add(self, node: DatasetNode, gain: int, source_id: str | None = None) -> None:  # parity-critical
        """Record ``node`` as this round's selection and cover its cells."""
        self._covered_array = cellsets.union(self._covered_array, node.cells_array)
        self._entries.append(
            ScoredDataset(dataset_id=node.dataset_id, score=float(gain), source_id=source_id)
        )

    def result(self) -> CoverageResult:
        """The selections so far, in selection order, with the CJSP objective."""
        return CoverageResult(
            entries=tuple(self._entries),
            total_coverage=self._covered_array.size,
            query_coverage=self._query_coverage,
        )


class CoverageSearch:
    """Greedy coverage joinable search with spatial merge over DITS-L."""

    name = "CoverageSearch"

    def __init__(self, index: DITSLocalIndex) -> None:
        self._index = index
        self.last_stats = CoverageSearchStats()

    @property
    def index(self) -> DITSLocalIndex:
        """The DITS-L index this search runs against."""
        return self._index

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def search(self, request: CoverageQuery) -> CoverageResult:
        """Run CJSP for ``request``."""
        return self.search_node(request.query, request.k, request.delta)

    def search_node(self, query: DatasetNode, k: int, delta: float) -> CoverageResult:  # parity-critical
        """Run CJSP for ``query`` with result size ``k`` and threshold ``delta``."""
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        stats = CoverageSearchStats()
        self.last_stats = stats

        cover = GreedyCover(query)
        if not self._index.is_built() or len(self._index) == 0:
            return cover.result()

        merged = query
        chosen_ids: set[str] = set()
        # Datasets proven connected in an earlier iteration stay connected
        # (the merged node only grows), so their distance work is never paid
        # twice.
        connected_ids: set[str] = set()

        for _ in range(k):
            stats.iterations += 1
            candidates = find_connected_nodes(
                self._index.root,
                merged,
                delta,
                exclude=chosen_ids,
                stats=stats,
                known_connected=connected_ids,
            )
            connected_ids.update(candidate.dataset_id for candidate in candidates)
            # Sort by descending cell count so the size filter (|S_D| > tau)
            # triggers as early as possible.
            candidates.sort(key=lambda c: (-c.coverage, c.dataset_id))
            picked = cover.pick(candidates, stats)
            if picked is None:
                # Either nothing is connected or nothing adds new coverage;
                # if connected candidates exist but add no coverage we still
                # stop (no positive marginal gain remains), matching the
                # greedy objective.
                break
            best_node, best_gain = picked
            chosen_ids.add(best_node.dataset_id)
            cover.add(best_node, best_gain)
            merged = merged.merged_with(best_node, merged_id="__merged_query__")

        return cover.result()
