"""DITS-G: the data center's global index, partitioned for registration churn.

:class:`ShardedDITSGlobalIndex` is the one DITS-G (Section V-B).  It
partitions the source summaries into ``N`` shards by the z-order position of
each summary's pivot (:class:`ShardPolicy`), keeps one summary tree per shard
(:func:`~repro.index.dits_global.build_summary_tree`), and **registers
incrementally** — a mutation only marks the touched shard stale, so a rebuild
costs ``O(n/N)`` summaries instead of ``O(n)``.  ``defer_rebuild=False``
(default) rebuilds the touched shard right away, keeping queries
rebuild-free; ``defer_rebuild=True`` leaves stale shards for the next query,
so a burst of mutations costs one rebuild per touched shard.  One shard with
deferred rebuilds is the paper's single tree, rebuilt lazily.
Queries walk the shards one after another: the traversal is pure Python, so
threads cannot overlap it, and it is a fraction of a percent of a federated
query (PERF.md, "Parallel pruning").

Because tree-node pruning is never stricter than the per-summary predicate
(see :func:`~repro.index.dits_global.node_may_contain`), the union of the
per-shard candidate sets is exactly the set of summaries passing the flat
:func:`~repro.index.dits_global.summary_may_contain` predicate, for every
shard count; sorting by ``source_id`` fixes the order
(``tests/index/test_dits_global_sharded.py`` enforces this).

All public methods are thread-safe: registration takes the registry lock
plus the touched shard's lock, while queries snapshot each shard's immutable
tree under its lock and traverse lock-free, so concurrent queries and
registrations never observe a half-built tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import threading
from typing import Iterable, Iterator

from repro.core.errors import InvalidParameterError, SourceNotFoundError
from repro.core.geometry import BoundingBox
from repro.core.grid import WORLD_SPACE
from repro.index.dits_global import (
    DEFAULT_FANOUT,
    SourceSummary,
    _GlobalNode,
    build_summary_tree,
    collect_candidates,
)
from repro.utils.zorder import zorder_encode

__all__ = ["ShardPolicy", "ShardedDITSGlobalIndex"]

#: Quantisation resolution per axis of the pivot lattice (~0.35 degrees
#: over the globe).
_ZORDER_BITS = 10


@dataclass(frozen=True, slots=True)
class ShardPolicy:
    """How source summaries are partitioned across DITS-G shards.

    Each summary's pivot is quantised onto a ``2**_ZORDER_BITS`` lattice over
    ``space`` (pivots outside are clamped onto the boundary), z-order
    encoded, and the Morton code modulo ``shard_count`` picks the shard.
    Striding along the Morton curve keeps the assignment deterministic while
    spreading pivots that land on *distinct* lattice cells evenly across
    shards — including federations clustered in one corner of ``space`` —
    which is what bounds the per-mutation rebuild to ``O(n / shard_count)``.
    Pivots quantising to the *same* lattice cell necessarily share a shard;
    if a federation is denser than the ~0.35-degree world lattice, narrow
    ``space`` to the deployment region to restore balance.  Candidate
    pruning does not depend on which shard holds a summary (the per-shard
    trees answer exactly the flat predicate), so balance can be tuned
    freely.

    Parameters
    ----------
    shard_count:
        Number of shards (``1`` keeps every summary in one tree).
    space:
        Reference space the lattice covers; defaults to the whole globe.
        Narrow it to the federation's region when sources cluster tighter
        than the lattice resolves.
    defer_rebuild:
        ``False`` (default) rebuilds a touched shard at registration time,
        keeping queries rebuild-free.  ``True`` batches churn: mutations
        only mark shards stale and the next query rebuilds every stale
        shard once.
    """

    shard_count: int = 4
    space: BoundingBox = field(default=WORLD_SPACE)
    defer_rebuild: bool = False

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise InvalidParameterError(
                f"shard_count must be at least 1, got {self.shard_count}"
            )

    def shard_of(self, summary: SourceSummary) -> int:
        """Deterministic shard for ``summary`` (by z-order of its pivot)."""
        if self.shard_count == 1:
            return 0
        pivot = summary.pivot
        lattice = 1 << _ZORDER_BITS
        fx = (pivot.x - self.space.min_x) / self.space.width
        fy = (pivot.y - self.space.min_y) / self.space.height
        ix = min(lattice - 1, max(0, int(fx * lattice)))
        iy = min(lattice - 1, max(0, int(fy * lattice)))
        return zorder_encode(ix, iy) % self.shard_count


class _Shard:
    """One shard: a summary registry plus its lazily rebuilt DITS-G tree."""

    __slots__ = ("summaries", "root", "dirty", "rebuilds", "lock")

    def __init__(self) -> None:
        self.summaries: dict[str, SourceSummary] = {}  # guarded-by: lock
        self.root: _GlobalNode | None = None  # guarded-by: lock
        self.dirty = False  # guarded-by: lock
        self.rebuilds = 0  # guarded-by: lock
        self.lock = threading.Lock()

    def ensure_built(self, leaf_capacity: int) -> _GlobalNode | None:
        """Rebuild this shard's tree if stale; returns the immutable root."""
        with self.lock:
            if self.dirty:
                values = list(self.summaries.values())
                self.root = build_summary_tree(values, leaf_capacity) if values else None
                self.rebuilds += 1
                self.dirty = False
            return self.root


class ShardedDITSGlobalIndex:
    """The DITS-G global index, with summaries partitioned across shards.

    Parameters
    ----------
    policy:
        The :class:`ShardPolicy` mapping summaries to shards.
    leaf_capacity:
        Maximum number of source summaries per leaf of each shard's tree
        (the paper reuses DITS-L's leaf capacity ``f``; sources are few, so
        the default of 4 keeps the tree shallow but non-trivial).
    """

    def __init__(
        self,
        policy: ShardPolicy | None = None,
        leaf_capacity: int = DEFAULT_FANOUT,
    ) -> None:
        if leaf_capacity <= 0:
            raise InvalidParameterError(f"leaf capacity must be positive, got {leaf_capacity}")
        self.policy = policy if policy is not None else ShardPolicy()
        self.leaf_capacity = leaf_capacity
        self._shards = [_Shard() for _ in range(self.policy.shard_count)]
        self._shard_of_source: dict[str, int] = {}  # guarded-by: _lock
        self._summaries: dict[str, SourceSummary] = {}  # guarded-by: _lock
        self._lock = threading.RLock()

    @property
    def shard_count(self) -> int:
        """Number of shards the summaries are partitioned into."""
        return len(self._shards)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, summary: SourceSummary) -> None:
        """Register or refresh a source's summary in its shard.

        Only the touched shard (two, if a refreshed pivot migrates the
        source to a different shard) is invalidated; every other shard's
        tree is left untouched.
        """
        with self._lock:
            self._place(summary)

    def register_all(self, summaries: Iterable[SourceSummary]) -> None:
        """Register several summaries at once (one rebuild per touched shard)."""
        with self._lock:
            for summary in summaries:
                self._place(summary, defer=True)
            if not self.policy.defer_rebuild:
                for shard in self._shards:
                    shard.ensure_built(self.leaf_capacity)

    def unregister(self, source_id: str) -> None:
        """Remove a source; only its shard is invalidated."""
        with self._lock:
            try:
                shard_no = self._shard_of_source.pop(source_id)
            except KeyError as exc:
                raise SourceNotFoundError(source_id) from exc
            del self._summaries[source_id]
            shard = self._shards[shard_no]
            with shard.lock:
                del shard.summaries[source_id]
                shard.dirty = True
            if not self.policy.defer_rebuild:
                shard.ensure_built(self.leaf_capacity)

    def _place(self, summary: SourceSummary, defer: bool = False) -> None:  # repro-lint: holds=_lock
        """Insert/refresh ``summary`` in its shard (registry lock held)."""
        target = self.policy.shard_of(summary)
        previous = self._shard_of_source.get(summary.source_id)
        if previous is not None and previous != target:
            old_shard = self._shards[previous]
            with old_shard.lock:
                del old_shard.summaries[summary.source_id]
                old_shard.dirty = True
            if not (defer or self.policy.defer_rebuild):
                old_shard.ensure_built(self.leaf_capacity)
        self._shard_of_source[summary.source_id] = target
        self._summaries[summary.source_id] = summary
        shard = self._shards[target]
        with shard.lock:
            shard.summaries[summary.source_id] = summary
            shard.dirty = True
        if not (defer or self.policy.defer_rebuild):
            shard.ensure_built(self.leaf_capacity)

    # ------------------------------------------------------------------ #
    # Registry lookups
    # ------------------------------------------------------------------ #
    def source_ids(self) -> list[str]:
        """IDs of all registered sources, sorted."""
        with self._lock:
            return sorted(self._summaries)

    def summary_of(self, source_id: str) -> SourceSummary:
        """The registered summary for ``source_id``."""
        with self._lock:
            try:
                return self._summaries[source_id]
            except KeyError as exc:
                raise SourceNotFoundError(source_id) from exc

    def shard_of(self, source_id: str) -> int:
        """Which shard currently holds ``source_id``."""
        with self._lock:
            try:
                return self._shard_of_source[source_id]
            except KeyError as exc:
                raise SourceNotFoundError(source_id) from exc

    def __len__(self) -> int:
        with self._lock:
            return len(self._summaries)

    def __contains__(self, source_id: str) -> bool:
        with self._lock:
            return source_id in self._summaries

    # ------------------------------------------------------------------ #
    # Candidate-source selection
    # ------------------------------------------------------------------ #
    def candidate_sources(  # parity-critical
        self,
        query_rect: BoundingBox,
        delta_geo: float = 0.0,
    ) -> list[SourceSummary]:
        """Sources whose region could contain OJSP/CJSP results for the query.

        ``query_rect`` is the query's MBR in geographic coordinates.
        ``delta_geo`` is the connectivity threshold in geographic units:
        ``0`` keeps only sources whose MBR intersects the query (the OJSP
        rule); a positive value also keeps sources whose pivot-distance
        lower bound to the query is within the threshold (the CJSP rule).

        Each shard's tree is traversed independently; because every source
        lives in exactly one shard and node pruning matches the flat
        per-summary predicate, the concatenated shard results sorted by
        ``source_id`` are the flat predicate's candidates in id order.

        A refresh that migrates a source between shards is not atomic with
        respect to a concurrent query, which snapshots shards at different
        instants: the query may observe the source in both shards (old and
        new rect) or, briefly, in neither.  Duplicates are collapsed here —
        keeping the first (and, quiescently, only) summary per source — so
        a racing query never routes twice to one source; the transient-miss
        window is the same a real deployment has between a source's
        unregister and re-register messages.
        """
        candidates: list[SourceSummary] = []
        for shard in self._shards:
            collect_candidates(
                shard.ensure_built(self.leaf_capacity), query_rect, delta_geo, candidates
            )
        candidates.sort(key=lambda summary: summary.source_id)
        return [
            summary
            for position, summary in enumerate(candidates)
            if position == 0 or candidates[position - 1].source_id != summary.source_id
        ]

    def all_summaries(self) -> Iterator[SourceSummary]:
        """Iterate over every registered summary (used by broadcast baselines)."""
        with self._lock:
            snapshot = dict(self._summaries)
        for source_id in sorted(snapshot):
            yield snapshot[source_id]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def node_count(self) -> int:
        """Total number of tree nodes across all shards."""
        total = 0
        for shard in self._shards:
            root = shard.ensure_built(self.leaf_capacity)
            if root is None:
                continue
            stack = [root]
            while stack:
                node = stack.pop()
                total += 1
                stack.extend(node.children)
        return total

    @property
    def rebuild_count(self) -> int:
        """Total shard-tree reconstructions performed so far."""
        return sum(shard.rebuilds for shard in self._shards)

    def shard_sizes(self) -> list[int]:
        """Number of sources currently held by each shard."""
        with self._lock:
            sizes = [0] * len(self._shards)
            for shard_no in self._shard_of_source.values():
                sizes[shard_no] += 1
            return sizes
