"""OJSP baseline algorithms built on the four comparison indexes.

Section VII-C describes how each baseline answers the overlap joinable
search:

* **QuadTreeOverlap** — find every (cell, dataset) occurrence inside the
  query MBR via the quadtree, keep occurrences whose cell belongs to the
  query, count per dataset, then rank.
* **RTreeOverlap** — find every dataset whose MBR intersects the query MBR
  via the R-tree, compute its exact cell intersection, then rank.
* **STS3Overlap** — scan the posting list of every query cell in the plain
  inverted index, accumulate per-dataset counts, then rank (no pruning).
* **JosieOverlap** — delegate to the Josie index's prefix-filtered top-k
  search.
* **BruteForceOverlap** — score every dataset; the ground truth used by the
  test suite.

All baselines return :class:`~repro.core.problems.OverlapResult` so the
benchmark harness and the correctness tests can treat every method
uniformly.
"""

from __future__ import annotations

from repro.core.dataset import DatasetNode
from repro.core.problems import OverlapQuery, OverlapResult, brute_force_overlap
from repro.index.inverted import STS3Index
from repro.index.josie import JosieIndex
from repro.index.quadtree import QuadTreeIndex
from repro.index.rtree import RTreeIndex
from repro.utils import cellsets
from repro.utils.heaps import CanonicalTopK

__all__ = [
    "QuadTreeOverlap",
    "RTreeOverlap",
    "STS3Overlap",
    "JosieOverlap",
    "BruteForceOverlap",
]


class QuadTreeOverlap:
    """OJSP over the QuadTree baseline index."""

    name = "QuadTree"

    def __init__(self, index: QuadTreeIndex) -> None:
        self._index = index

    def search(self, request: OverlapQuery) -> OverlapResult:
        """Answer ``request`` by counting query-cell occurrences inside the query MBR."""
        return self.search_node(request.query, request.k)

    def search_node(self, query: DatasetNode, k: int) -> OverlapResult:
        """Top-k overlap for ``query``."""
        query_cells = query.cells
        counts: dict[str, int] = {}
        seen: set[tuple[int, str]] = set()
        for cell_id, dataset_id in self._index.occurrences_in(query.rect):
            if cell_id not in query_cells:
                continue
            key = (cell_id, dataset_id)
            if key in seen:
                continue
            seen.add(key)
            counts[dataset_id] = counts.get(dataset_id, 0) + 1
        ranked = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
        return OverlapResult.from_pairs(
            (dataset_id, float(score)) for dataset_id, score in ranked[:k]
        )


class RTreeOverlap:
    """OJSP over the R-tree baseline index."""

    name = "Rtree"

    def __init__(self, index: RTreeIndex) -> None:
        self._index = index

    def search(self, request: OverlapQuery) -> OverlapResult:
        """Answer ``request`` via MBR filtering plus exact verification."""
        return self.search_node(request.query, request.k)

    def search_node(self, query: DatasetNode, k: int) -> OverlapResult:
        """Top-k overlap for ``query``."""
        heap: CanonicalTopK[str] = CanonicalTopK(k)
        query_array = query.cells_array
        for node in self._index.intersecting(query.rect):
            overlap = cellsets.intersection_size(node.cells_array, query_array)
            heap.push(float(overlap), node.dataset_id)
        return OverlapResult.from_pairs(
            (dataset_id, score) for score, dataset_id in heap.items()
        )


class STS3Overlap:
    """OJSP over the plain STS3 inverted index (full posting-list scan)."""

    name = "STS3"

    def __init__(self, index: STS3Index) -> None:
        self._index = index

    def search(self, request: OverlapQuery) -> OverlapResult:
        """Answer ``request`` by scanning the posting lists of all query cells."""
        return self.search_node(request.query, request.k)

    def search_node(self, query: DatasetNode, k: int) -> OverlapResult:
        """Top-k overlap for ``query``."""
        counts = self._index.overlap_counts(query.cells)
        ranked = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
        return OverlapResult.from_pairs(
            (dataset_id, float(score)) for dataset_id, score in ranked[:k]
        )


class JosieOverlap:
    """OJSP via the Josie sorted inverted index with prefix filtering."""

    name = "Josie"

    def __init__(self, index: JosieIndex) -> None:
        self._index = index

    def search(self, request: OverlapQuery) -> OverlapResult:
        """Answer ``request`` with Josie's prefix-filtered top-k search."""
        return self.search_node(request.query, request.k)

    def search_node(self, query: DatasetNode, k: int) -> OverlapResult:
        """Top-k overlap for ``query``."""
        ranked = self._index.top_k_overlap(query.cells, k)
        return OverlapResult.from_pairs(
            (dataset_id, float(score)) for dataset_id, score in ranked
        )


class BruteForceOverlap:  # public-api: the ground truth the overlap baselines are tested against
    """OJSP by exhaustively scoring every dataset (test ground truth)."""

    name = "BruteForce"

    def __init__(self, nodes: list[DatasetNode]) -> None:
        self._nodes = list(nodes)

    def search(self, request: OverlapQuery) -> OverlapResult:
        """Answer ``request`` by scoring all datasets."""
        return self.search_node(request.query, request.k)

    def search_node(self, query: DatasetNode, k: int) -> OverlapResult:
        """Top-k overlap for ``query``."""
        return brute_force_overlap(query, self._nodes, k)
