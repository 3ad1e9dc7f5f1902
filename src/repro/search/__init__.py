"""Search algorithms for OJSP and CJSP.

* :mod:`repro.search.overlap` — ``OverlapSearch`` (Algorithm 2) over DITS-L;
  the Lemma 2/3 leaf bounds it prunes with are read off each DITS-L leaf's
  postings (:meth:`repro.index.dits.LeafNode.bounds`).
* :mod:`repro.search.overlap_baselines` — OJSP via QuadTree, R-tree, STS3,
  Josie and a brute-force scan.
* :mod:`repro.search.coverage` — ``CoverageSearch`` (Algorithm 3) over
  DITS-L with the spatial-merge strategy.
* :mod:`repro.search.coverage_baselines` — the standard greedy ``SG`` and the
  index-assisted ``SG+DITS`` baselines.
"""

from repro.search.coverage import CoverageSearch, find_connected_nodes
from repro.search.coverage_baselines import (
    StandardGreedy,
    StandardGreedyWithDITS,
)
from repro.search.overlap import OverlapSearch
from repro.search.overlap_baselines import (
    BruteForceOverlap,
    JosieOverlap,
    QuadTreeOverlap,
    RTreeOverlap,
    STS3Overlap,
)

__all__ = [
    "BruteForceOverlap",
    "CoverageSearch",
    "JosieOverlap",
    "OverlapSearch",
    "QuadTreeOverlap",
    "RTreeOverlap",
    "STS3Overlap",
    "StandardGreedy",
    "StandardGreedyWithDITS",
    "find_connected_nodes",
]
