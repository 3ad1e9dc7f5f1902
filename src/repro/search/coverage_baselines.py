"""CJSP baseline algorithms: standard greedy with and without DITS.

Section VII-D compares CoverageSearch against two baselines:

* **SG (StandardGreedy)** — the textbook greedy algorithm for maximum
  coverage, extended with the connectivity constraint: every iteration scans
  *all* datasets in the source, keeps those directly connected to any member
  of the current result set (query included), and adds the one with the
  largest marginal gain.  Connectivity checks use exact cell-set distances
  (no Lemma 4 bounds — that is what makes it the baseline).
* **SG+DITS (StandardGreedyWithDITS)** — the same greedy loop, but each
  round's connected-candidate discovery runs ``FindConnectSet`` over DITS-L,
  exploiting the Lemma 4 bounds.  It lacks CoverageSearch's spatial-merge
  trick, so connected sets are discovered per result-set member.

The greedy loop itself (covered set, marginal gains, tie-break) is the
shared :class:`~repro.search.coverage.GreedyCover`; what makes each class a
baseline is only how it finds a round's connected candidates.  Both keep that
state *incrementally* across rounds, which changes no result but removes the
quadratic rescans:

* Connectivity is monotone in the growing result set — once a candidate is
  connected to some member it stays connected forever.  SG therefore caches
  proven-connected candidates and only tests the remaining ones against the
  member added last round, dropping from ``O(k^2 * n)`` to ``O(k * n)`` exact
  distance computations.  SG+DITS likewise runs ``FindConnectSet`` only for
  the newest member and accumulates the union.
* Each SG round's exact-distance scan is one batched
  :meth:`~repro.core.distance_engine.DistanceEngine.within_delta_many` call:
  all untested candidates are stacked and answered by a single δ-bounded
  KD-tree query over the newest member, instead of a per-candidate KD-tree
  build.  The predicate stays exact (no Lemma 4 bounds are consulted — SG
  remains the bound-free baseline).

Selections, scores and tie-breaks are bit-identical to the original
exhaustive implementations; ``tests/search/test_incremental_greedy.py``
differential-tests both baselines against reference re-implementations of
the per-round rescans on randomized corpora.
"""

from __future__ import annotations

from repro.core.dataset import DatasetNode
from repro.core.distance_engine import get_engine
from repro.core.errors import InvalidParameterError
from repro.core.problems import CoverageQuery, CoverageResult
from repro.index.dits import DITSLocalIndex
from repro.search.coverage import GreedyCover, find_connected_nodes

__all__ = ["StandardGreedy", "StandardGreedyWithDITS"]


class StandardGreedy:
    """SG: greedy CJSP with exact-distance connectivity scans."""

    name = "SG"

    def __init__(self, nodes: list[DatasetNode]) -> None:
        # Ascending id, the order GreedyCover.pick takes its candidates in:
        # the answer does not depend on the order the caller listed them.
        self._nodes = sorted(nodes, key=lambda node: node.dataset_id)

    def search(self, request: CoverageQuery) -> CoverageResult:
        """Run greedy CJSP for ``request``."""
        return self.search_node(request.query, request.k, request.delta)

    def search_node(self, query: DatasetNode, k: int, delta: float) -> CoverageResult:
        """Run greedy CJSP for ``query`` with parameters ``k`` and ``delta``."""
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        if delta < 0:
            raise InvalidParameterError(f"delta must be non-negative, got {delta}")
        cover = GreedyCover(query)
        chosen_ids: set[str] = set()
        # Candidates proven connected to the growing result set.  The result
        # set only grows, so membership here is permanent; candidates outside
        # it have already failed against every member except the newest one.
        connected_ids: set[str] = set()
        last_member = query

        for _ in range(k):
            # One batched δ-bounded scan of the not-yet-connected candidates
            # against the newest member replaces the per-candidate exact
            # distance computations (same memberships, in the same round).
            untested = [
                candidate
                for candidate in self._nodes
                if candidate.dataset_id not in chosen_ids
                and candidate.dataset_id not in connected_ids
            ]
            if untested:
                mask = get_engine().within_delta_many(last_member, untested, delta)
                connected_ids.update(
                    candidate.dataset_id
                    for candidate, ok in zip(untested, mask)
                    if ok
                )
            picked = cover.pick(
                candidate
                for candidate in self._nodes
                if candidate.dataset_id in connected_ids
                and candidate.dataset_id not in chosen_ids
            )
            if picked is None:
                break
            last_member, gain = picked
            chosen_ids.add(last_member.dataset_id)
            cover.add(last_member, gain)

        return cover.result()


class StandardGreedyWithDITS:
    """SG+DITS: greedy CJSP using DITS-L to find connected candidates per member."""

    name = "SG+DITS"

    def __init__(self, index: DITSLocalIndex) -> None:
        self._index = index

    def search(self, request: CoverageQuery) -> CoverageResult:
        """Run greedy CJSP for ``request``."""
        return self.search_node(request.query, request.k, request.delta)

    def search_node(self, query: DatasetNode, k: int, delta: float) -> CoverageResult:
        """Run greedy CJSP for ``query`` with parameters ``k`` and ``delta``."""
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        cover = GreedyCover(query)
        if not self._index.is_built() or len(self._index) == 0:
            return cover.result()
        chosen_ids: set[str] = set()
        # The tree and earlier members never change, so each member's
        # FindConnectSet runs exactly once; the candidate pool is the
        # accumulated union minus the datasets already chosen.
        candidates: dict[str, DatasetNode] = {}
        last_member = query

        for _ in range(k):
            for candidate in find_connected_nodes(
                self._index.root, last_member, delta, exclude=chosen_ids
            ):
                candidates[candidate.dataset_id] = candidate
            picked = cover.pick(candidates[dataset_id] for dataset_id in sorted(candidates))
            if picked is None:
                break
            last_member, gain = picked
            chosen_ids.add(last_member.dataset_id)
            del candidates[last_member.dataset_id]
            cover.add(last_member, gain)

        return cover.result()
