"""STS3-style plain inverted index baseline (Peng et al., SIGMOD 2016).

STS3 divides the plane into cells and keeps a single inverted index mapping
every cell ID to the IDs of the datasets containing it.  Overlap search scans
the posting lists of the query's cells and accumulates per-dataset counts; no
tree structure or bound-based pruning is available, so every intersecting
dataset is scored — which is why the paper finds STS3 the cheapest index to
build and update but among the slowest to search.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.core.dataset import DatasetNode
from repro.index.base import DatasetIndex

__all__ = ["STS3Index"]


class STS3Index(DatasetIndex):
    """Plain cell-ID -> dataset-ID inverted index."""

    name = "STS3"

    def __init__(self) -> None:
        super().__init__()
        self._postings: dict[int, set[str]] = {}

    # ------------------------------------------------------------------ #
    # DatasetIndex hooks
    # ------------------------------------------------------------------ #
    def _rebuild(self) -> None:
        postings: dict[int, set[str]] = {}
        for node in self._nodes.values():
            dataset_id = node.dataset_id
            for cell in node.cells_array.tolist():
                cell_postings = postings.get(cell)
                if cell_postings is None:
                    postings[cell] = {dataset_id}
                else:
                    cell_postings.add(dataset_id)
        self._postings = postings

    def _insert_structure(self, node: DatasetNode) -> None:
        for cell in node.cells_array.tolist():
            self._postings.setdefault(cell, set()).add(node.dataset_id)

    def _delete_structure(self, node: DatasetNode) -> None:
        for cell in node.cells_array.tolist():
            postings = self._postings.get(cell)
            if postings is None:
                continue
            postings.discard(node.dataset_id)
            if not postings:
                del self._postings[cell]

    # ------------------------------------------------------------------ #
    # Query helpers
    # ------------------------------------------------------------------ #
    def posting_list(self, cell_id: int) -> set[str]:
        """Dataset IDs containing ``cell_id`` (empty set if none)."""
        return set(self._postings.get(cell_id, ()))

    def overlap_counts(self, query_cells: Iterable[int]) -> Counter:
        """Per-dataset intersection counts with ``query_cells``."""
        counts: Counter = Counter()
        for cell in query_cells:
            for dataset_id in self._postings.get(cell, ()):
                counts[dataset_id] += 1
        return counts

    def posting_count(self) -> int:
        """Total number of postings (for the Fig. 8 memory comparison)."""
        return sum(len(postings) for postings in self._postings.values())

    def distinct_cells(self) -> int:
        """Number of distinct cells with at least one posting."""
        return len(self._postings)
