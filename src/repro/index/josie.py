"""Josie-style sorted inverted index with prefix filtering (Zhu et al., SIGMOD 2019).

Josie searches for the top-k sets with the largest intersection with a query
set using an inverted index whose posting lists record, for every token
(cell ID), the ``(dataset id, position, size)`` of each set containing it,
where *position* is the rank of the token inside the dataset's sorted token
list.  Two classic optimisations are reproduced:

* **Global token ordering** — tokens are processed from rarest to most
  frequent, so small posting lists are read first.
* **Prefix filtering** — once ``k`` candidates with overlap at least ``t``
  are known, a dataset whose remaining-suffix size (``size - position``)
  cannot reach ``t`` is skipped, and the scan of further posting lists stops
  when even a full remaining suffix of the query cannot beat ``t``.

Construction sorts every dataset's cell list and the postings, which is the
``O(n^2)``-ish cost (dominated by sorting many lists) the paper attributes to
Josie being the slowest index to build at most resolutions.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.core.dataset import DatasetNode
from repro.index.base import DatasetIndex
from repro.utils import cellsets
from repro.utils.heaps import CanonicalTopK

__all__ = ["JosieIndex", "Posting"]


class Posting(NamedTuple):
    """One posting: dataset ID, the token's rank within the dataset, and the dataset size.

    A named tuple rather than a dataclass: index construction creates one
    posting per (cell, dataset) occurrence — millions at benchmark scale —
    and tuple allocation is measurably cheaper while keeping the same
    attribute API.
    """

    dataset_id: str
    position: int
    size: int


def _posting_order(posting: Posting) -> tuple[int, str]:
    """Global posting order: dataset size first, ID as the tie-break."""
    return (posting.size, posting.dataset_id)


class JosieIndex(DatasetIndex):
    """Sorted inverted index with per-posting position/size for prefix filtering."""

    name = "Josie"

    def __init__(self) -> None:
        super().__init__()
        self._postings: dict[int, list[Posting]] = {}
        self._token_frequency: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # DatasetIndex hooks
    # ------------------------------------------------------------------ #
    def _rebuild(self) -> None:
        self._postings = {}
        # Adding datasets in global (size, id) posting order means every
        # posting list is appended already sorted, so the per-list sorts
        # the incremental insert path needs collapse to no-ops here.
        for node in sorted(
            self._nodes.values(), key=lambda n: (n.coverage, n.dataset_id)
        ):
            self._add_postings(node)
        self._refresh_frequencies()

    def _insert_structure(self, node: DatasetNode) -> None:
        self._add_postings(node)
        for cell in node.cells_array.tolist():
            self._postings[cell].sort(key=_posting_order)
        self._refresh_frequencies()

    def _delete_structure(self, node: DatasetNode) -> None:
        for cell in node.cells_array.tolist():
            postings = self._postings.get(cell)
            if postings is None:
                continue
            self._postings[cell] = [p for p in postings if p.dataset_id != node.dataset_id]
            if not self._postings[cell]:
                del self._postings[cell]
        self._refresh_frequencies()

    def _add_postings(self, node: DatasetNode) -> None:
        sorted_cells = node.cells_array.tolist()  # already sorted + unique
        size = len(sorted_cells)
        dataset_id = node.dataset_id
        postings = self._postings
        for position, cell in enumerate(sorted_cells):
            entry = Posting(dataset_id=dataset_id, position=position, size=size)
            cell_postings = postings.get(cell)
            if cell_postings is None:
                postings[cell] = [entry]
            else:
                cell_postings.append(entry)

    def _refresh_frequencies(self) -> None:
        self._token_frequency = {cell: len(postings) for cell, postings in self._postings.items()}

    # ------------------------------------------------------------------ #
    # Top-k overlap search with prefix filtering
    # ------------------------------------------------------------------ #
    def token_frequency(self, cell_id: int) -> int:
        """Number of datasets containing ``cell_id``."""
        return self._token_frequency.get(cell_id, 0)

    def top_k_overlap(self, query_cells: Iterable[int], k: int) -> list[tuple[str, int]]:
        """Top-k datasets by exact intersection size with ``query_cells``.

        Returns ``(dataset_id, overlap)`` pairs, largest overlap first.  The
        result is exact: prefix filtering only skips datasets that provably
        cannot enter the top-k.

        Tokens are scanned from rarest to most frequent.  The first time a
        dataset is encountered its exact overlap with the query is verified
        (one sorted-array intersection) and inserted into a bounded top-k
        heap.  Two prunes keep the scan short:

        * a dataset whose size (or the remaining query suffix) cannot exceed
          the current k-th best overlap is skipped without verification;
        * the scan of further posting lists stops once the k-th best overlap
          is at least the number of unscanned query tokens — any dataset not
          yet encountered shares none of the scanned tokens and therefore
          cannot beat it.
        """
        query_set = set(query_cells)
        query_array = cellsets.as_cell_array(query_set)
        query = sorted(query_set, key=lambda cell: (self.token_frequency(cell), cell))
        query_size = len(query)
        if query_size == 0 or not self._postings:
            return []

        verified: dict[str, int] = {}
        heap: CanonicalTopK[str] = CanonicalTopK(k)

        for scanned, cell in enumerate(query):
            remaining_query = query_size - scanned
            if heap.is_full() and heap.kth_score() >= remaining_query:
                # Unseen datasets overlap only on unscanned tokens, so they
                # cannot exceed ``remaining_query`` and cannot displace the
                # current top-k.
                break
            for posting in self._postings.get(cell, ()):
                dataset_id = posting.dataset_id
                if dataset_id in verified:
                    continue
                upper_bound = min(posting.size, remaining_query)
                if heap.is_full() and upper_bound <= heap.kth_score():
                    # Cannot beat the current k-th best; record it as seen so
                    # later (more frequent) tokens do not re-examine it.
                    verified[dataset_id] = -1
                    continue
                node = self._nodes.get(dataset_id)
                if node is None:
                    continue
                overlap = cellsets.intersection_size(node.cells_array, query_array)
                verified[dataset_id] = overlap
                heap.push(float(overlap), dataset_id)

        ranked = sorted(
            ((dataset_id, overlap) for dataset_id, overlap in verified.items() if overlap >= 0),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:k]

    def posting_count(self) -> int:
        """Total number of postings (for the Fig. 8 memory comparison)."""
        return sum(len(postings) for postings in self._postings.values())
