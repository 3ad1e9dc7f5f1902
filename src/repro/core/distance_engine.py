"""Batched exact cell-set distance kernels with bounded per-dataset caching.

Every CJSP algorithm ultimately asks one of two questions about Definition 6
distances, and both come in a *one-vs-many* shape:

* ``within_delta(a, b, delta)`` / ``within_delta_many(query, candidates,
  delta)`` / ``connected_mask(...)`` — the exact connectivity predicate
  ``dist(S_A, S_B) <= delta``, which never needs the true minimum, only
  whether *any* cell pair is within ``delta``.  This is the question the
  greedy rounds, FindConnectSet and the connectivity graph actually ask,
  and what every rewired hot path runs on.
* ``min_distances(query, candidates)`` — the exact distance from one node to
  each of many candidate nodes, for callers that need true distances rather
  than the predicate (diagnostics, ranking, the differential test suites).

The :class:`DistanceEngine` serves both shapes from shared state: decoded
``(x, y)`` coordinate arrays and reusable :class:`~scipy.spatial.cKDTree`
instances are cached per dataset id in a bounded LRU (replacing the seed's
per-frozenset ``lru_cache``, which pinned up to 8 192 whole cell sets by
value with no notion of dataset identity or invalidation), and the batched
kernels stack
all candidate cells into a single array with an owner-index vector so one
KD-tree query plus a ``numpy`` segment reduction replaces a Python loop of
per-pair tree builds.

Exactness
---------
Grid coordinates are integers, so squared cell distances are exact integers
far below ``2**53``: every path (brute-force broadcast, plain KD-tree query,
``distance_upper_bound``-pruned KD-tree query) computes the same float64
distances bit-for-bit, and the ``delta`` predicate is exact by construction.
Two structural facts are additionally exploited:

* two *distinct* cells are at distance >= 1, so ``dist <= delta`` with
  ``delta < 1`` reduces to "the sets share a cell" — resolved with one sorted
  intersection and no floating point at all (this also sidesteps the
  underflow of squaring a subnormal ``distance_upper_bound`` at ``delta=0``);
* the KD-tree upper bound is widened to ``nextafter(delta, inf)`` and the
  returned distances re-checked against ``delta`` itself, so the predicate
  does not depend on whether SciPy treats the bound inclusively.

Cache coherence is by *identity*: an entry is only reused while the node's
``cells_array`` is the same object that populated it.  Rebuilding a
dataset under the same id (a refreshed source, a different grid resolution,
CoverageSearch's per-iteration ``__merged_query__`` node) therefore can never
serve stale geometry — the entry is invalidated and recomputed.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial import cKDTree

from repro.core.dataset import DatasetNode
from repro.core.errors import InvalidParameterError
from repro.utils import cellsets
from repro.utils.zorder import zorder_decode_batch

__all__ = [
    "KDTREE_PAIR_THRESHOLD",
    "DistanceCacheInfo",
    "DistanceEngine",
    "cell_coords_of_array",
    "get_engine",
    "min_coords_distance",
    "set_engine",
]

#: Environment variable naming the per-dataset geometry cache capacity.
#: Read when an engine is constructed (not at import), so setting it before
#: the first distance computation always takes effect.
_CACHE_SIZE_ENV = "REPRO_DISTANCE_CACHE_SIZE"
_FALLBACK_CACHE_SIZE = 4_096

#: Below this pairwise-comparison count a brute-force broadcast beats
#: building/querying a KD-tree.  The single switch-over constant for every
#: exact-distance path (engine kernels and the stateless reference kernel).
KDTREE_PAIR_THRESHOLD = 2_048


def _env_cache_size() -> int:
    raw = os.environ.get(_CACHE_SIZE_ENV)
    if raw is None:
        return _FALLBACK_CACHE_SIZE
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidParameterError(
            f"{_CACHE_SIZE_ENV} must be an integer, got {raw!r}"
        ) from exc


def cell_coords_of_array(cells_array: np.ndarray) -> np.ndarray:
    """Decoded ``(x, y)`` grid coordinates of a sorted cell-ID vector.

    Returns an ``(n, 2)`` float64 array in the order of ``cells_array``.
    """
    xs, ys = zorder_decode_batch(cells_array)
    coords = np.empty((cells_array.size, 2), dtype=np.float64)
    coords[:, 0] = xs
    coords[:, 1] = ys
    return coords


def min_coords_distance(coords_a: np.ndarray, coords_b: np.ndarray) -> float:
    """Minimum pairwise Euclidean distance between two coordinate arrays.

    The stateless scalar kernel shared by :func:`repro.core.distance.cell_set_distance`
    and the engine: a brute-force broadcast below :data:`KDTREE_PAIR_THRESHOLD`
    pairs, one KD-tree nearest-neighbour pass (tree over the smaller side)
    above it.  On integer grid coordinates both paths are exact in float64
    and bit-identical.
    """
    if coords_a.shape[0] * coords_b.shape[0] <= KDTREE_PAIR_THRESHOLD:
        deltas = coords_a[:, None, :] - coords_b[None, :, :]
        squared = np.einsum("ijk,ijk->ij", deltas, deltas)
        return float(np.sqrt(squared.min()))
    if coords_a.shape[0] > coords_b.shape[0]:
        coords_a, coords_b = coords_b, coords_a
    distances, _ = cKDTree(coords_a).query(coords_b, k=1)
    return float(distances.min())


class DistanceCacheInfo(NamedTuple):
    """Counters describing the engine's cache and kernel activity."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    currsize: int
    maxsize: int
    trees_built: int
    batch_queries: int
    pair_queries: int


class _NodeGeometry:
    """Cached geometry of one dataset node: decoded coords + lazy KD-tree."""

    __slots__ = ("cells_array", "coords", "tree")

    def __init__(self, cells_array: np.ndarray, coords: np.ndarray) -> None:
        self.cells_array = cells_array  # identity token guarding reuse
        self.coords = coords
        self.tree: cKDTree | None = None


class DistanceEngine:
    """One-vs-many exact cell-set distance kernels over cached geometry.

    Thread-safe: the cache is guarded by a lock (per-source dispatch runs
    coverage searches concurrently), while the numpy/KD-tree work happens
    outside it.  ``cKDTree`` queries are read-only and safe to share.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        size = _env_cache_size() if max_entries is None else max_entries
        if size <= 0:
            raise InvalidParameterError(
                f"distance cache size must be positive, got {size}"
            )
        self._max_entries = size
        self._cache: "OrderedDict[str, _NodeGeometry]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._invalidations = 0  # guarded-by: _lock
        self._trees_built = 0  # guarded-by: _lock
        self._batch_queries = 0  # guarded-by: _lock
        self._pair_queries = 0  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    # Geometry cache
    # ------------------------------------------------------------------ #
    @property
    def max_entries(self) -> int:
        """Capacity of the per-dataset geometry cache."""
        return self._max_entries

    def _geometry_of(self, node: DatasetNode) -> _NodeGeometry:
        key = node.dataset_id
        cells_array = node.cells_array
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                if entry.cells_array is cells_array:
                    self._hits += 1
                    self._cache.move_to_end(key)
                    return entry
                # Same id, different cell set (refreshed dataset, another
                # grid resolution, a rebuilt merged node): never reuse.
                self._invalidations += 1
            self._misses += 1
        coords = cell_coords_of_array(cells_array)
        entry = _NodeGeometry(cells_array, coords)
        with self._lock:
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self._max_entries:
                self._cache.popitem(last=False)
                self._evictions += 1
        return entry

    def _tree_for(self, entry: _NodeGeometry) -> cKDTree:
        tree = entry.tree
        if tree is None:
            tree = cKDTree(entry.coords)
            entry.tree = tree  # benign race: both winners are equivalent
            with self._lock:
                self._trees_built += 1
        return tree

    def cache_info(self) -> DistanceCacheInfo:
        """Cache and kernel counters (monotone except ``currsize``)."""
        with self._lock:
            return DistanceCacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                currsize=len(self._cache),
                maxsize=self._max_entries,
                trees_built=self._trees_built,
                batch_queries=self._batch_queries,
                pair_queries=self._pair_queries,
            )

    def clear(self) -> None:
        """Drop all cached geometry (counters are preserved)."""
        with self._lock:
            self._cache.clear()

    # ------------------------------------------------------------------ #
    # Batched kernels
    # ------------------------------------------------------------------ #
    def _stack(
        self, candidates: Sequence[DatasetNode]
    ) -> tuple[np.ndarray, np.ndarray]:
        """All candidate coords in one array + segment start offsets."""
        geoms = [self._geometry_of(candidate) for candidate in candidates]
        counts = np.fromiter(
            (geom.coords.shape[0] for geom in geoms), dtype=np.intp, count=len(geoms)
        )
        offsets = np.zeros(len(geoms), dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        stacked = (
            geoms[0].coords if len(geoms) == 1 else np.concatenate([g.coords for g in geoms])
        )
        return stacked, offsets

    def _nearest_to(
        self, query: _NodeGeometry, stacked: np.ndarray, bound: float | None = None
    ) -> np.ndarray:
        """Distance from each stacked point to its nearest cell of ``query``.

        Takes the already-resolved geometry so each batched kernel performs
        exactly one cache access for the query node (a node without a stable
        id, like CoverageSearch's merged query, is then looked up at most
        once per call even under concurrent searches).  With ``bound`` the
        KD-tree search is pruned at that radius and points with no neighbour
        inside it report ``inf``.  Small workloads take the brute-force
        broadcast instead (bit-identical distances).
        """
        if query.coords.shape[0] * stacked.shape[0] <= KDTREE_PAIR_THRESHOLD:
            deltas = stacked[:, None, :] - query.coords[None, :, :]
            squared = np.einsum("ijk,ijk->ij", deltas, deltas)
            return np.sqrt(squared.min(axis=1))
        tree = self._tree_for(query)
        if bound is None:
            distances, _ = tree.query(stacked, k=1)
        else:
            distances, _ = tree.query(stacked, k=1, distance_upper_bound=bound)
        return distances

    def min_distances(  # parity-critical
        self, query: DatasetNode, candidates: Sequence[DatasetNode]
    ) -> np.ndarray:
        """Exact Definition 6 distance from ``query`` to each candidate.

        One KD-tree over ``query``'s cells answers all candidates: their cell
        coordinates are stacked into a single array, nearest-neighbour
        distances are computed in one batched query and reduced per candidate
        with ``np.minimum.reduceat``.  Element ``i`` is bit-identical to
        ``cell_set_distance(query.cells, candidates[i].cells)``.
        """
        if not candidates:
            return np.empty(0, dtype=np.float64)
        stacked, offsets = self._stack(candidates)
        distances = self._nearest_to(self._geometry_of(query), stacked)
        with self._lock:
            self._batch_queries += 1
        return np.minimum.reduceat(distances, offsets)

    def within_delta_many(  # parity-critical
        self, query: DatasetNode, candidates: Sequence[DatasetNode], delta: float
    ) -> np.ndarray:
        """Exact boolean vector ``dist(query, candidate) <= delta`` per candidate.

        The KD-tree query is pruned at radius ``delta`` (``distance_upper_bound``),
        so the per-point search stops as soon as any cell pair is close enough
        instead of computing the true minimum.  For ``delta < 1`` the predicate
        degenerates to shared-cell membership on the integer grid and is
        answered with sorted intersections only.
        """
        if delta < 0:
            raise InvalidParameterError(f"delta must be non-negative, got {delta}")
        if not candidates:
            return np.zeros(0, dtype=bool)
        if delta < 1.0:
            # Distinct cells are >= 1 apart on the integer grid.
            query_array = query.cells_array
            return np.fromiter(
                (
                    cellsets.intersection_size(query_array, candidate.cells_array) > 0
                    for candidate in candidates
                ),
                dtype=bool,
                count=len(candidates),
            )
        stacked, offsets = self._stack(candidates)
        bound = np.nextafter(delta, np.inf)
        distances = self._nearest_to(self._geometry_of(query), stacked, bound=bound)
        with self._lock:
            self._batch_queries += 1
        return np.logical_or.reduceat(distances <= delta, offsets)

    def connected_mask(  # parity-critical
        self, query: DatasetNode, candidates: Sequence[DatasetNode], delta: float
    ) -> np.ndarray:
        """:meth:`within_delta_many` with a Lemma 4 bounds pre-pass.

        Candidates whose pivot/radius bounds are decisive are settled without
        touching their cells; only the undecided remainder enters the batched
        δ-bounded verification.  Element-wise identical to
        ``[dist(query, c) <= delta for c in candidates]``.
        """
        # Deferred import: repro.core.distance imports this module at top
        # level, so the bounds helper (one definition for every caller) is
        # resolved lazily here.
        from repro.core.distance import node_distance_bounds

        if delta < 0:
            raise InvalidParameterError(f"delta must be non-negative, got {delta}")
        result = np.zeros(len(candidates), dtype=bool)
        pending_nodes: list[DatasetNode] = []
        pending_index: list[int] = []
        for i, candidate in enumerate(candidates):
            lower, upper = node_distance_bounds(query, candidate)
            if upper <= delta:
                result[i] = True
            elif lower > delta:
                continue
            else:
                pending_index.append(i)
                pending_nodes.append(candidate)
        if pending_nodes:
            result[pending_index] = self.within_delta_many(query, pending_nodes, delta)
        return result

    # ------------------------------------------------------------------ #
    # Pairwise kernels
    # ------------------------------------------------------------------ #
    def within_delta(self, node_a: DatasetNode, node_b: DatasetNode, delta: float) -> bool:
        """Exact predicate ``dist(S_A, S_B) <= delta`` with early exit.

        Equivalent to ``cell_set_distance(node_a.cells, node_b.cells) <=
        delta`` but never computes the true minimum: shared cells resolve via
        one sorted intersection, and the KD-tree search is pruned at radius
        ``delta``.
        """
        if delta < 0:
            raise InvalidParameterError(f"delta must be non-negative, got {delta}")
        array_a = node_a.cells_array
        array_b = node_b.cells_array
        if cellsets.intersection_size(array_a, array_b) > 0:
            return True
        if delta < 1.0:
            return False
        with self._lock:
            self._pair_queries += 1
        # Tree over the larger set (amortised by the cache), probe the smaller.
        if array_a.size < array_b.size:
            node_a, node_b = node_b, node_a
        probe = self._geometry_of(node_b).coords
        distances = self._nearest_to(
            self._geometry_of(node_a), probe, bound=np.nextafter(delta, np.inf)
        )
        return bool(np.any(distances <= delta))

    def pair_distance(self, node_a: DatasetNode, node_b: DatasetNode) -> float:
        """Exact Definition 6 distance between two dataset nodes (cached geometry)."""
        if cellsets.intersection_size(node_a.cells_array, node_b.cells_array) > 0:
            return 0.0
        with self._lock:
            self._pair_queries += 1
        if node_a.cells_array.size < node_b.cells_array.size:
            node_a, node_b = node_b, node_a
        probe = self._geometry_of(node_b).coords
        return float(self._nearest_to(self._geometry_of(node_a), probe).min())


# ---------------------------------------------------------------------- #
# Module-level default engine (built lazily so REPRO_DISTANCE_CACHE_SIZE is
# honoured whenever it is set before the first distance computation)
# ---------------------------------------------------------------------- #
_default_engine: DistanceEngine | None = None
_default_engine_lock = threading.Lock()


def get_engine() -> DistanceEngine:
    """The process-wide default distance engine (created on first use)."""
    global _default_engine
    engine = _default_engine
    if engine is None:
        with _default_engine_lock:
            if _default_engine is None:
                _default_engine = DistanceEngine()
            engine = _default_engine
    return engine


def set_engine(engine: DistanceEngine) -> DistanceEngine:  # public-api: tests swap engines
    """Swap the default engine (tests, cache re-sizing); returns the old one."""
    global _default_engine
    previous = get_engine()
    _default_engine = engine
    return previous
