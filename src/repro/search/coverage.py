"""CoverageSearch: the greedy CJSP algorithm over DITS-L (Algorithm 3).

CJSP is NP-hard (reduction from Maximum Coverage), so the paper solves it
with a greedy algorithm that in each of ``k`` iterations adds the dataset
with the largest marginal coverage gain among those connected to the current
result set.  Two accelerations distinguish CoverageSearch from the plain
greedy baseline:

* **Spatial merge** — instead of checking connectivity against every dataset
  already in the result set, the result set (query included) is merged into a
  single *merged node* whose MBR/pivot/radius cover everything selected so
  far.  Each iteration then performs exactly one traversal of the tree.
* **Distance bounds (Lemma 4)** — the traversal descends DITS-L using
  pivot/radius distance bounds: a subtree whose upper bound is within
  ``delta`` is accepted wholesale, a subtree whose lower bound exceeds
  ``delta`` is rejected wholesale, and only border cases are left to exact
  distance checks.

The greedy loop itself — covered set, marginal gains, tie-break — is
:class:`GreedyCover`, shared with the SG / SG+DITS baselines and the data
center's final pass, which differ from CoverageSearch only in how they find
each round's connected candidates.  It carries Algorithm 3's third
acceleration:

* **Coverage-size filter** — a candidate whose total cell count is below the
  best marginal gain found so far in the current iteration (or equal to it,
  with a larger id) cannot win it, so its exact marginal gain is never
  computed (Algorithm 3 line 6).

Three further accelerations are layered on top without changing any result:

* **Gain first, connectivity last** — the traversal runs the Lemma 4 bounds
  only, and the exact check runs only for a candidate that would become the
  round's best (:meth:`GreedyCover.pick`'s ``connected``).  A candidate that
  fails it never changes the round's state, so the answer is that of "filter
  to connected, then pick": the lazy-evaluation idea of lazy greedy (Minoux
  1978; CELF, Leskovec et al. 2007) applied to the connectivity predicate.
* **Member-wise connectivity** — that check tests a candidate against each
  result-set member at most once (:class:`MemberConnectivity`), so every
  KD-tree it needs stays cached under a stable dataset id.
* **Merge-kernel gains** — the covered set is a sorted cell vector,
  marginal gains are ``difference_size`` merge kernels and the covered set
  is advanced with one vectorized union per iteration, instead of
  rebuilding Python set differences/unions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator

from repro.core.dataset import DatasetNode
from repro.core.distance import node_distance_bounds
from repro.core.distance_engine import get_engine
from repro.core.errors import InvalidParameterError
from repro.core.problems import CoverageQuery, CoverageResult, ScoredDataset
from repro.index.dits import DITSLocalIndex, InternalNode, LeafNode, TreeNode
from repro.utils import cellsets

__all__ = [
    "CoverageSearch",
    "CoverageSearchStats",
    "GreedyCover",
    "MemberConnectivity",
    "find_connected_nodes",
]


@dataclass(slots=True)
class CoverageSearchStats:
    """Counters describing the work performed by one coverage search.

    ``exact_distance_checks`` counts exact candidate-vs-member checks.
    """

    iterations: int = 0
    subtree_accepts: int = 0
    subtree_rejects: int = 0
    exact_distance_checks: int = 0
    gain_evaluations: int = 0
    gain_skips: int = 0


def _bounded_entries(  # parity-critical
    root: TreeNode,
    query: DatasetNode,
    delta: float,
    excluded: Container[str],
    stats: CoverageSearchStats | None,
) -> Iterator[tuple[DatasetNode, bool]]:
    """The Lemma 4 half of FindConnectSet, in traversal order.

    Yields every dataset under ``root`` outside ``excluded`` whose lower
    bound to ``query`` is within ``delta``, with ``True`` when the upper
    bound proves it connected and ``False`` when the bounds are indecisive
    and only an exact check can tell.
    """
    stack: list[TreeNode] = [root]
    while stack:
        node = stack.pop()
        pivot_distance = node.pivot.distance_to(query.pivot)
        lower = max(pivot_distance - node.radius - query.radius, 0.0)
        upper = pivot_distance + node.radius + query.radius
        if upper <= delta:
            # Whole subtree is connected: every dataset it stores.
            if stats is not None:
                stats.subtree_accepts += 1
            for entry in _datasets_under(node):
                if entry.dataset_id not in excluded:
                    yield entry, True
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
                entry_lower, entry_upper = node_distance_bounds(entry, query)
                if entry_lower <= delta:
                    yield entry, entry_upper <= delta
        else:
            assert isinstance(node, InternalNode)
            stack.append(node.left)
            stack.append(node.right)


def _datasets_under(node: TreeNode) -> Iterator[DatasetNode]:
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf():
            assert isinstance(current, LeafNode)
            yield from current.entries
        else:
            assert isinstance(current, InternalNode)
            stack.append(current.left)
            stack.append(current.right)


def find_connected_nodes(  # parity-critical
    root: TreeNode,
    query: DatasetNode,
    delta: float,
    exclude: set[str] | None = None,
) -> list[DatasetNode]:
    """FindConnectSet (Algorithm 3, lines 14-26): datasets within ``delta`` of ``query``.

    The DITS-L tree rooted at ``root`` is traversed with the Lemma 4 bounds:
    subtrees are accepted or rejected wholesale whenever the bounds are
    decisive and only the remaining datasets pay an exact distance
    computation.  ``exclude`` removes datasets already in the result set.

    Leaf entries whose bounds are indecisive are *not* verified one by one:
    they are collected during the traversal and resolved afterwards with a
    single δ-bounded batch kernel (one KD-tree over ``query``, one stacked
    candidate query), preserving the traversal order of the result list.
    """
    if delta < 0:
        raise InvalidParameterError(f"delta must be non-negative, got {delta}")
    # ``None`` marks slots reserved for undecided entries, filled (or dropped)
    # after the batched verification so the output order matches the
    # entry-by-entry traversal exactly.
    slots: list[DatasetNode | None] = []
    pending_nodes: list[DatasetNode] = []
    pending_slots: list[int] = []
    for entry, proven in _bounded_entries(root, query, delta, exclude or (), None):
        if not proven:
            pending_slots.append(len(slots))
            pending_nodes.append(entry)
        slots.append(entry if proven else None)
    if pending_nodes:
        mask = get_engine().within_delta_many(query, pending_nodes, delta)
        for slot, entry, ok in zip(pending_slots, pending_nodes, mask):
            if ok:
                slots[slot] = entry
    return [entry for entry in slots if entry is not None]


class MemberConnectivity:
    """Is a candidate within ``delta`` of any member of a growing result set?

    The members are the query and every dataset :meth:`add`-ed since.
    Definition 6 is a minimum over cell pairs, so a candidate is within
    ``delta`` of the members' union (the merged node) iff it is within
    ``delta`` of one member: testing member by member is exact.  The set
    only grows, so a connected candidate stays connected and a failed one is
    only ever tested against the members added after its last test.  Each
    test takes the Lemma 4 bounds first and one exact
    :meth:`~repro.core.distance_engine.DistanceEngine.within_delta` only
    when they are indecisive (counted in ``stats.exact_distance_checks``).
    """

    def __init__(
        self, query: DatasetNode, delta: float, stats: CoverageSearchStats | None = None
    ) -> None:
        if delta < 0:
            raise InvalidParameterError(f"delta must be non-negative, got {delta}")
        self._members = [query]
        self._delta = delta
        self._stats = stats
        self._connected: set[str] = set()
        # Dataset id -> how many leading members it has been tested against.
        self._tested: dict[str, int] = {}

    def add(self, member: DatasetNode) -> None:
        """Make ``member`` part of the result set."""
        self._members.append(member)

    def prove(self, dataset_id: str) -> None:
        """Record ``dataset_id`` as connected, shown some other way (bounds)."""
        self._connected.add(dataset_id)

    def __call__(self, candidate: DatasetNode) -> bool:  # parity-critical
        dataset_id = candidate.dataset_id
        if dataset_id in self._connected:
            return True
        delta = self._delta
        for member in self._members[self._tested.get(dataset_id, 0) :]:
            lower, upper = node_distance_bounds(member, candidate)
            if lower > delta:
                continue
            if upper > delta:
                if self._stats is not None:
                    self._stats.exact_distance_checks += 1
                if not get_engine().within_delta(member, candidate, delta):
                    continue
            self._connected.add(dataset_id)
            return True
        self._tested[dataset_id] = len(self._members)
        return False


class GreedyCover:
    """Algorithm 3's greedy state: the covered set and each round's choice.

    The caller finds the round's candidates, :meth:`pick` chooses among them
    and :meth:`add` records the choice.  The covered set is a sorted cell
    vector: gains are ``difference_size`` merge kernels and each selection
    advances it with one vectorized union.
    """

    def __init__(self, query: DatasetNode) -> None:
        self._query_coverage = query.coverage
        self._covered_array = query.cells_array
        self._entries: list[ScoredDataset] = []

    def pick(  # parity-critical
        self,
        candidates: Iterable[DatasetNode],
        stats: CoverageSearchStats | None = None,
        connected: Callable[[DatasetNode], bool] | None = None,
    ) -> tuple[DatasetNode, int] | None:
        """The connected candidate with the largest positive marginal gain, and that gain.

        Gain ties go to the smaller ``dataset_id``.  A candidate smaller than
        the best gain so far, or as large as it with a larger id, cannot
        beat it, so its gain is never computed (Algorithm 3 line 6); the
        choice does not depend on the order of ``candidates``, and
        descending size makes the filter skip the most.  ``connected`` is
        asked only about a candidate that would become the best, and one it
        rejects leaves the best unchanged: the answer equals filtering
        ``candidates`` to the connected ones first.  ``None`` when no
        candidate adds coverage.
        """
        best_node: DatasetNode | None = None
        best_gain = 0
        for candidate in candidates:
            size = candidate.coverage
            if size < best_gain or (
                size == best_gain
                and (best_node is None or candidate.dataset_id > best_node.dataset_id)
            ):
                if stats is not None:
                    stats.gain_skips += 1
                continue
            if stats is not None:
                stats.gain_evaluations += 1
            gain = cellsets.difference_size(candidate.cells_array, self._covered_array)
            if (
                gain > best_gain
                or (
                    gain == best_gain
                    and best_node is not None
                    and candidate.dataset_id < best_node.dataset_id
                )
            ) and (connected is None or connected(candidate)):
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

        # The traversal's bounds read only the merged node's pivot and radius;
        # exact checks go member by member.
        merged = query
        chosen_ids: set[str] = set()
        connectivity = MemberConnectivity(query, delta, stats)
        root = self._index.root

        for _ in range(k):
            stats.iterations += 1
            candidates = []
            for entry, proven in _bounded_entries(root, merged, delta, chosen_ids, stats):
                if proven:
                    connectivity.prove(entry.dataset_id)
                candidates.append(entry)
            # Descending cell count, so the size filter triggers as early as
            # possible (the choice itself does not depend on the order).
            candidates.sort(key=lambda c: (-c.coverage, c.dataset_id))
            picked = cover.pick(candidates, stats, connectivity)
            if picked is None:
                # Either nothing is connected or nothing adds new coverage;
                # if connected candidates exist but add no coverage we still
                # stop (no positive marginal gain remains), matching the
                # greedy objective.
                break
            best_node, best_gain = picked
            chosen_ids.add(best_node.dataset_id)
            cover.add(best_node, best_gain)
            connectivity.add(best_node)
            merged = merged.merged_with(best_node, merged_id="__merged_query__")

        return cover.result()
