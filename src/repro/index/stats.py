"""Index memory accounting used by the Fig. 8 (right) experiment.

The paper compares the memory footprint of the five indexes as the grid
resolution grows.  Rather than relying on Python object overhead (which would
be dominated by interpreter bookkeeping), :func:`index_memory_bytes` counts
the *logical* content of each structure — tree nodes, posting entries and the
cell IDs they store — using fixed per-item costs, mirroring how the paper
reasons about index size (``O(n)`` tree nodes vs. ``O(N)`` postings).
"""

from __future__ import annotations

from repro.core.distance_engine import DistanceEngine, get_engine
from repro.core.geometry import BoundingBox
from repro.index.base import DatasetIndex
from repro.index.dits import DITSLocalIndex
from repro.index.dits_global import DITSGlobalIndex
from repro.index.inverted import STS3Index
from repro.index.josie import JosieIndex
from repro.index.quadtree import QuadTreeIndex
from repro.index.rtree import RTreeIndex

__all__ = [
    "STATS_SCHEMA",
    "index_memory_bytes",
    "local_index_stats",
    "global_index_stats",
    "distance_engine_stats",
]

#: Schema tag stamped into every stats document so downstream consumers
#: (dashboards, benchmark JSON, tests) can detect shape changes.
STATS_SCHEMA = "repro-stats/v1"

#: Cost model (bytes) for logical index components.
_TREE_NODE_BYTES = 64          # MBR (4 floats) + pivot/radius + pointers
_POSTING_BYTES = 12            # dataset reference + small metadata
_JOSIE_POSTING_BYTES = 20      # dataset reference + position + size
_CELL_KEY_BYTES = 8            # one cell ID key
_DATASET_ENTRY_BYTES = 48      # dataset node reference stored in a leaf
_QUAD_ITEM_BYTES = 24          # (cell, dataset, position) item
_SUMMARY_BYTES = 112           # summary (id reference + MBR + count) + its 7-float table row


def index_memory_bytes(index: DatasetIndex) -> int:
    """Estimated logical memory footprint of ``index`` in bytes."""
    if isinstance(index, DITSLocalIndex):
        return _dits_bytes(index)
    if isinstance(index, QuadTreeIndex):
        return _quadtree_bytes(index)
    if isinstance(index, RTreeIndex):
        return _rtree_bytes(index)
    if isinstance(index, JosieIndex):
        return _josie_bytes(index)
    if isinstance(index, STS3Index):
        return _sts3_bytes(index)
    raise TypeError(f"unsupported index type: {type(index).__name__}")


def _dits_bytes(index: DITSLocalIndex) -> int:
    if not index.is_built():
        return 0
    total = index.node_count() * _TREE_NODE_BYTES
    for leaf in index.leaves():
        total += len(leaf.entries) * _DATASET_ENTRY_BYTES
        total += len(leaf.cells) * _CELL_KEY_BYTES + len(leaf.owners) * _POSTING_BYTES
    return total


def _quadtree_bytes(index: QuadTreeIndex) -> int:
    return index.node_count() * _TREE_NODE_BYTES + index.total_occurrences() * _QUAD_ITEM_BYTES


def _rtree_bytes(index: RTreeIndex) -> int:
    # The R-tree only stores tree nodes and per-dataset entry references; the
    # cell sets live in the dataset nodes themselves and are not duplicated
    # into the index, so its footprint does not depend on the resolution.
    # This deviates on purpose from the paper's Fig. 8, where the R-tree
    # curve grows with theta: counting cells the index never holds would
    # charge it for the dataset nodes every method shares.
    return index.node_count() * _TREE_NODE_BYTES + len(index) * _DATASET_ENTRY_BYTES


def _josie_bytes(index: JosieIndex) -> int:
    distinct_cells = sum(1 for _ in _josie_cells(index))
    return distinct_cells * _CELL_KEY_BYTES + index.posting_count() * _JOSIE_POSTING_BYTES


def _josie_cells(index: JosieIndex):
    return index._postings.keys()  # noqa: SLF001 - stats module is a friend of the index


def _sts3_bytes(index: STS3Index) -> int:
    return index.distinct_cells() * _CELL_KEY_BYTES + index.posting_count() * _POSTING_BYTES


def local_index_stats(index: DITSLocalIndex) -> dict[str, object]:
    """Shape, churn and maintenance counters of a DITS-L local index.

    ``mbr_slack`` is the total leaf-MBR looseness — the summed difference
    between each leaf's stored rect area and the exact union of its entry
    rects — measured *before* any deferred refit is flushed, so it reports
    the staleness a mutation burst has accumulated; after a flush (any
    query) it is zero by construction.  ``refit_pending`` says whether such
    a flush is outstanding.  ``max_depth`` and ``tree_nodes`` are measured
    after flushing, like any query would see them.
    """
    slack = 0.0
    refit_pending = index._refit_pending  # noqa: SLF001 - stats is a friend module
    root = index._root  # noqa: SLF001 - pre-flush traversal, deliberate
    stack = [root] if root is not None else []
    while stack:
        node = stack.pop()
        if node.is_leaf():
            tight = BoundingBox.union_of(entry.rect for entry in node.entries)
            slack += node.rect.area - tight.area
        else:
            stack.append(node.right)
            stack.append(node.left)
    stats: dict[str, object] = {
        "schema": STATS_SCHEMA,
        "datasets": len(index),
        "leaf_capacity": index.leaf_capacity,
        "max_depth": index.height(),
        "tree_nodes": index.node_count(),
        "mbr_slack": slack,
        "refit_pending": refit_pending,
        "memory_bytes": _dits_bytes(index),
    }
    stats.update(index.rebalance_stats.as_dict())
    return dict(sorted(stats.items()))


def global_index_stats(index: DITSGlobalIndex) -> dict[str, object]:
    """Size and footprint of the DITS-G index, for dashboards and the CLI."""
    stats: dict[str, object] = {
        "schema": STATS_SCHEMA,
        "sources": len(index),
        "rebuilds": index.rebuild_count,
        "memory_bytes": len(index) * _SUMMARY_BYTES,
    }
    return dict(sorted(stats.items()))


def distance_engine_stats(engine: DistanceEngine | None = None) -> dict[str, object]:
    """Cache and kernel counters of a distance engine, for dashboards/benchmarks.

    Defaults to the process-wide engine.  ``hits``/``misses``/``evictions``/
    ``invalidations`` describe the bounded per-dataset geometry cache that
    replaced the seed's per-frozenset ``lru_cache``;
    ``trees_built``/``batch_queries``/``pair_queries`` count the KD-tree work
    the batched kernels actually performed.
    """
    info = (engine if engine is not None else get_engine()).cache_info()
    stats: dict[str, object] = {"schema": STATS_SCHEMA, **info._asdict()}
    return dict(sorted(stats.items()))
