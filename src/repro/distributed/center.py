"""The data center: global index, query distribution and result aggregation.

The :class:`DataCenter` implements both query-distribution strategies of
Section VI-A:

1. **Candidate-source routing** — DITS-G is consulted first and a request is
   only sent to sources whose region intersects the query MBR (OJSP) or whose
   distance lower bound to the query is within the connectivity threshold
   (CJSP).
2. **Query clipping** — the request carries only the query cells falling
   inside the candidate source's (slightly expanded) region instead of the
   whole cell set, cutting the bytes per message.

Both strategies can be disabled independently, which is what the
communication-cost benchmarks use to emulate the broadcast-everything
baselines.

Candidate sources answer independently (the framework of Fig. 3 is
inherently parallel), so per-source request execution fans out over a thread
pool governed by :class:`~repro.distributed.executor.ExecutionPolicy`.
Responses are aggregated in candidate order regardless of completion order,
so parallel and serial dispatch return bit-identical results and byte totals.
OJSP answers are merged canonically — score desc, then dataset id asc, the
order each DITS-L source already ranks by — so with unique dataset ids the
positive-score federated answer equals one DITS-L over the union corpus,
whatever the registration order.

DITS-G is :class:`~repro.index.dits_global.DITSGlobalIndex`: a source
registration appends, replaces or removes one row of its summary table.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, TypeVar

import numpy as np

from repro.core.dataset import DatasetNode
from repro.core.errors import SourceNotFoundError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.core.problems import CoverageResult, OverlapResult, ScoredDataset
from repro.distributed.channel import SimulatedChannel
from repro.distributed.executor import ExecutionPolicy, SourceDispatcher
from repro.distributed.messages import CoverageRequest, OverlapRequest
from repro.distributed.source import DataSource, grid_rect_to_geo
from repro.index.dits_global import DITSGlobalIndex, SourceSummary
from repro.search.coverage import GreedyCover, MemberConnectivity
from repro.utils.heaps import CanonicalTopK

__all__ = ["DataCenter", "DistributionPolicy"]

_Request = TypeVar("_Request", OverlapRequest, CoverageRequest)
_Response = TypeVar("_Response")


@dataclass(frozen=True, slots=True)
class DistributionPolicy:
    """Which query-distribution optimisations the data center applies."""

    route_to_candidates: bool = True
    clip_query: bool = True


class _QueryCellView:
    """Per-search cache of a query's decoded cell centres, for clipping.

    Requests carry the query's stored sorted cell vector (or a masked slice
    of it), read-only, with no per-candidate conversion.  The geographic
    centres of all query cells are batch-decoded lazily on the first clip so
    that every candidate rectangle costs one numpy mask instead of a per-cell
    Python ``cell_center``/``contains_point`` loop.
    """

    __slots__ = ("_grid", "_array", "_xs", "_ys")

    def __init__(self, query: DatasetNode, grid: Grid) -> None:
        self._grid = grid
        self._array = query.cells_array  # sorted unique read-only int64, stored on the node
        self._xs: np.ndarray | None = None
        self._ys: np.ndarray | None = None

    @property
    def full(self) -> np.ndarray:
        """All query cells in ascending order (the unclipped payload)."""
        return self._array

    def clipped_to(self, geo_rect: BoundingBox) -> np.ndarray:
        """Query cells whose geographic centre falls inside ``geo_rect``."""
        if self._xs is None:
            self._xs, self._ys = self._grid.cell_centers_of_batch(self._array)
        mask = (
            (geo_rect.min_x <= self._xs)
            & (self._xs <= geo_rect.max_x)
            & (geo_rect.min_y <= self._ys)
            & (self._ys <= geo_rect.max_y)
        )
        if mask.all():
            return self._array
        clipped = self._array[mask]
        clipped.flags.writeable = False
        return clipped


class DataCenter:
    """Coordinates multi-source joinable search over registered data sources."""

    def __init__(
        self,
        grid: Grid,
        channel: SimulatedChannel | None = None,
        policy: DistributionPolicy = DistributionPolicy(),
        execution: ExecutionPolicy | None = None,
    ) -> None:
        self.grid = grid
        self.channel = channel if channel is not None else SimulatedChannel()
        self.policy = policy
        self._sources: dict[str, DataSource] = {}  # guarded-by: _sources_lock
        self._sources_lock = threading.Lock()
        self._query_counter = itertools.count()
        self._dispatcher = SourceDispatcher(execution)
        self._global_index = DITSGlobalIndex()

    @property
    def execution(self) -> ExecutionPolicy:
        """The per-source dispatch policy in effect."""
        return self._dispatcher.policy

    def close(self) -> None:
        """Release the dispatch thread pool (the center stays usable)."""
        self._dispatcher.close()

    # ------------------------------------------------------------------ #
    # Source registration
    # ------------------------------------------------------------------ #
    def register_source(self, source: DataSource) -> None:
        """Register ``source``: receive its root upload and add it to DITS-G."""
        summary = self._receive_root_upload(source)
        # The source must be resolvable before it becomes routable: queries
        # racing this registration may see the summary as soon as it lands
        # in DITS-G and immediately dispatch a request to the source.  The
        # lock pairs that write with the reads on pool threads, which would
        # otherwise race the dict mutation itself.
        with self._sources_lock:
            self._sources[source.source_id] = source
        self._global_index.register(summary)

    def refresh_source(self, source_id: str) -> None:
        """Re-receive ``source_id``'s root summary after its datasets changed.

        Incremental inserts/updates at a source can grow or shrink its MBR;
        the source re-uploads its root summary and DITS-G is refreshed so
        query routing stays correct (Appendix IX-C applied at the global
        level).
        """
        self._global_index.register(self._receive_root_upload(self.source(source_id)))

    def _receive_root_upload(self, source: DataSource) -> SourceSummary:
        """Have ``source`` upload its root summary; the DITS-G entry it describes."""
        upload = source.root_upload()
        self.channel.send(upload, destination=source.source_id, to_center=True)
        return SourceSummary(
            source_id=upload.source_id,
            rect=BoundingBox(*upload.rect),
            dataset_count=upload.dataset_count,
        )

    def source_ids(self) -> list[str]:
        """IDs of all registered sources."""
        with self._sources_lock:
            return sorted(self._sources)

    def source(self, source_id: str) -> DataSource:
        """The registered source object for ``source_id``."""
        try:
            with self._sources_lock:
                return self._sources[source_id]
        except KeyError as exc:
            raise SourceNotFoundError(source_id) from exc

    @property
    def global_index(self) -> DITSGlobalIndex:
        """The DITS-G global index."""
        return self._global_index

    # ------------------------------------------------------------------ #
    # Overlap joinable search (OJSP)
    # ------------------------------------------------------------------ #
    def overlap_search(self, query: DatasetNode, k: int) -> OverlapResult:
        """Run multi-source OJSP for ``query`` (cells in the center's grid).

        Every candidate source returns its own canonical top-``k`` (score
        desc, dataset id asc), so the union's top-``k`` under that order lies
        inside the union of those lists: merging them in one
        :class:`~repro.utils.heaps.CanonicalTopK` keyed by
        ``(dataset_id, source_id)`` is exact and independent of source
        order.  ``source_id`` only settles equal dataset ids held by
        different sources.
        """
        answers = self._fan_out(
            query,
            0.0,
            lambda query_id, cells, rect: OverlapRequest(
                query_id=query_id, cells=cells, query_rect=rect, k=k
            ),
            lambda source, request: source.handle_overlap(request, self.grid),
        )

        heap: CanonicalTopK[tuple[str, str]] = CanonicalTopK(k)
        for source_id, response in answers:
            for dataset_id, score in response.results:
                heap.push(score, (dataset_id, source_id))

        entries = tuple(
            ScoredDataset(dataset_id=dataset_id, score=score, source_id=source_id)
            for score, (dataset_id, source_id) in heap.items()
        )
        return OverlapResult(entries=entries)

    # ------------------------------------------------------------------ #
    # Coverage joinable search (CJSP)
    # ------------------------------------------------------------------ #
    def coverage_search(self, query: DatasetNode, k: int, delta: float) -> CoverageResult:
        """Run multi-source CJSP for ``query``.

        Every candidate source runs its local greedy search and proposes up to
        ``k`` datasets (with their cell sets translated into the center grid);
        the data center then runs a final greedy pass over the union of
        proposals, enforcing connectivity against the merged result, so the
        returned set is connected and at most ``k`` large.
        """
        answers = self._fan_out(
            query,
            self._delta_to_geo(delta),
            lambda query_id, cells, rect: CoverageRequest(
                query_id=query_id, cells=cells, query_rect=rect, k=k, delta=delta
            ),
            lambda source, request: source.handle_coverage(request, self.grid),
        )

        proposals: dict[str, tuple[str, np.ndarray]] = {}
        for source_id, response in answers:
            for dataset_id, cells in response.selections:
                proposals[dataset_id] = (source_id, cells)

        return self._aggregate_coverage(query, k, delta, proposals)

    def _aggregate_coverage(  # parity-critical
        self,
        query: DatasetNode,
        k: int,
        delta: float,
        proposals: Mapping[str, tuple[str, Collection[int]]],
    ) -> CoverageResult:
        """Final greedy pass over the union of per-source proposals.

        The proposals are taken in descending size, so the size filter skips
        the most, and connectivity to the result set (query plus chosen) is
        checked only for a round's would-be winner, member by member
        (:class:`~repro.search.coverage.MemberConnectivity`).  Selections
        and tie-breaks equal those of filtering each round's proposals to
        the connected ones first.
        """
        remaining = sorted(
            (
                DatasetNode.from_cells(dataset_id, cells, self.grid)
                for dataset_id, (_, cells) in proposals.items()
                if len(cells)
            ),
            key=lambda node: (-node.coverage, node.dataset_id),
        )
        cover = GreedyCover(query)
        connectivity = MemberConnectivity(query, delta)

        for _ in range(k):
            picked = cover.pick(remaining, connected=connectivity)
            if picked is None:
                break
            member, gain = picked
            remaining = [node for node in remaining if node is not member]
            cover.add(member, gain, source_id=proposals[member.dataset_id][0])
            connectivity.add(member)

        return cover.result()

    # ------------------------------------------------------------------ #
    # Distribution strategy helpers
    # ------------------------------------------------------------------ #
    def _fan_out(
        self,
        query: DatasetNode,
        delta_geo: float,
        make_request: Callable[[str, np.ndarray, tuple[float, float, float, float]], _Request],
        handle: Callable[[DataSource, _Request], _Response],
    ) -> list[tuple[str, _Response]]:
        """Route, clip and dispatch one query; ``(source_id, response)`` in candidate order.

        ``delta_geo`` widens both the routing predicate and the clip window
        (CJSP reaches datasets within the connectivity threshold of a
        source's region; OJSP is ``delta_geo = 0``).  ``make_request`` builds
        the per-source message from the query id, the clipped cells and the
        query's geographic MBR; ``handle`` runs it at the source.
        """
        query_id = f"q{next(self._query_counter)}"
        query_geo_rect = grid_rect_to_geo(self.grid, query.rect)
        candidates = self._candidate_sources(query_geo_rect, delta_geo)
        cell_view = _QueryCellView(query, self.grid)
        rect = query_geo_rect.as_tuple()

        tasks: list[tuple[str, _Request]] = []
        for summary in candidates:
            cells = (
                cell_view.clipped_to(summary.rect.expanded(delta_geo))
                if self.policy.clip_query
                else cell_view.full
            )
            if len(cells) == 0:
                continue
            tasks.append((summary.source_id, make_request(query_id, cells, rect)))

        def execute(task: tuple[str, _Request]) -> _Response:
            source_id, request = task
            source = self.source(source_id)
            self.channel.send(request, destination=source_id)
            response = handle(source, request)
            self.channel.send(response, destination=source_id, to_center=True)
            return response

        responses = self._dispatcher.map(execute, tasks)
        return [(source_id, response) for (source_id, _), response in zip(tasks, responses)]

    def _candidate_sources(self, query_geo_rect: BoundingBox, delta_geo: float) -> list[SourceSummary]:
        if self.policy.route_to_candidates:
            return self._global_index.candidate_sources(query_geo_rect, delta_geo)
        return list(self._global_index.all_summaries())

    def _delta_to_geo(self, delta: float) -> float:
        """Convert a connectivity threshold in cell units to geographic units."""
        return delta * max(self.grid.cell_width, self.grid.cell_height)
