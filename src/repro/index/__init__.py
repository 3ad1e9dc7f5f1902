"""Spatial index structures.

* :mod:`repro.index.dits` — DITS-L, the paper's local index (Algorithm 1): a
  top-down binary ball-tree over dataset nodes whose leaves carry an inverted
  index from cell ID to dataset IDs.
* :mod:`repro.index.dits_rebalance` — churn-safe incremental rebalancing for
  DITS-L: scapegoat-style amortized partial rebuilds, leaf underflow merging
  and deferred MBR refits.
* :mod:`repro.index.dits_global` — DITS-G, the global index at the data
  center: the root summaries reported by each source, kept as one
  copy-on-write table, and their pruning predicate.
* :mod:`repro.index.quadtree` — QuadTree baseline over individual cells.
* :mod:`repro.index.rtree` — R-tree baseline over dataset MBRs.
* :mod:`repro.index.inverted` — STS3-style plain inverted index.
* :mod:`repro.index.josie` — Josie-style sorted inverted index with prefix
  filtering.
* :mod:`repro.index.stats` — size accounting used by the Fig. 8 memory
  experiment.
"""

from repro.index.base import DatasetIndex
from repro.index.dits import DITSLocalIndex, InternalNode, LeafNode, TreeNode
from repro.index.dits_global import DITSGlobalIndex, SourceSummary
from repro.index.dits_rebalance import RebalancePolicy, RebalanceStats
from repro.index.inverted import STS3Index
from repro.index.josie import JosieIndex
from repro.index.quadtree import QuadTreeIndex
from repro.index.rtree import RTreeIndex
from repro.index.stats import global_index_stats, index_memory_bytes, local_index_stats

__all__ = [
    "DATASET_INDEX_CLASSES",
    "DITSGlobalIndex",
    "DITSLocalIndex",
    "DatasetIndex",
    "InternalNode",
    "JosieIndex",
    "LeafNode",
    "QuadTreeIndex",
    "RTreeIndex",
    "RebalancePolicy",
    "RebalanceStats",
    "STS3Index",
    "SourceSummary",
    "TreeNode",
    "global_index_stats",
    "index_memory_bytes",
    "local_index_stats",
]

#: Name -> class mapping used by benchmarks that sweep over all five indexes.
DATASET_INDEX_CLASSES = {
    "DITS-L": DITSLocalIndex,
    "QuadTree": QuadTreeIndex,
    "Rtree": RTreeIndex,
    "STS3": STS3Index,
    "Josie": JosieIndex,
}
