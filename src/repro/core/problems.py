"""Problem statements and exact scoring for OJSP and CJSP.

This module holds the *semantic* definitions of the two search problems
(Definitions 10 and 11) independently of any index:

* :func:`overlap_of` and :func:`coverage_of` score a candidate answer.
* :class:`OverlapQuery` / :class:`CoverageQuery` bundle a query node with its
  search parameters.
* :class:`OverlapResult` / :class:`CoverageResult` are the returned answers,
  carrying both the chosen datasets and their scores so benchmarks and tests
  can validate them without re-deriving anything.
* :func:`brute_force_overlap` and :func:`brute_force_coverage` are reference
  (exponential/exact) solvers used to validate the fast algorithms on small
  instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.connectivity import satisfies_spatial_connectivity
from repro.core.dataset import DatasetNode
from repro.core.errors import InvalidParameterError

__all__ = [
    "overlap_of",
    "coverage_of",
    "OverlapQuery",
    "CoverageQuery",
    "OverlapResult",
    "CoverageResult",
    "ScoredDataset",
    "brute_force_overlap",
    "brute_force_coverage",
]


# ---------------------------------------------------------------------- #
# Scoring functions
# ---------------------------------------------------------------------- #
def overlap_of(query: DatasetNode, candidate: DatasetNode) -> int:
    """OJSP score: ``|S_Q intersect S_D|``."""
    return len(query.cells & candidate.cells)


def coverage_of(query: DatasetNode, chosen: Iterable[DatasetNode]) -> int:
    """CJSP objective: ``|S_Q union (union of chosen cell sets)|``."""
    covered = set(query.cells)
    for node in chosen:
        covered |= node.cells
    return len(covered)


# ---------------------------------------------------------------------- #
# Query / result containers
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class OverlapQuery:
    """An OJSP request: find the ``k`` datasets with maximum overlap with ``query``."""

    query: DatasetNode
    k: int

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise InvalidParameterError(f"k must be positive, got {self.k}")


@dataclass(frozen=True, slots=True)
class CoverageQuery:
    """A CJSP request: maximise coverage with at most ``k`` connected datasets."""

    query: DatasetNode
    k: int
    delta: float

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise InvalidParameterError(f"k must be positive, got {self.k}")
        if self.delta < 0:
            raise InvalidParameterError(f"delta must be non-negative, got {self.delta}")


@dataclass(frozen=True, slots=True)
class ScoredDataset:
    """A result entry: a dataset ID together with its score for the query."""

    dataset_id: str
    score: float
    source_id: str | None = None


@dataclass(frozen=True, slots=True)
class OverlapResult:
    """Answer to an :class:`OverlapQuery`, best overlap first."""

    entries: tuple[ScoredDataset, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ScoredDataset]:
        return iter(self.entries)

    @property
    def dataset_ids(self) -> list[str]:
        """IDs of the returned datasets in score order."""
        return [entry.dataset_id for entry in self.entries]

    @property
    def scores(self) -> list[float]:
        """Overlap scores in the same order as :attr:`dataset_ids`."""
        return [entry.score for entry in self.entries]

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[str, float]], source_id: str | None = None
    ) -> "OverlapResult":
        """Build a result from ``(dataset_id, score)`` pairs (sorted internally)."""
        ordered = sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
        return cls(
            entries=tuple(
                ScoredDataset(dataset_id=did, score=score, source_id=source_id)
                for did, score in ordered
            )
        )


@dataclass(frozen=True, slots=True)
class CoverageResult:
    """Answer to a :class:`CoverageQuery`.

    ``entries`` are listed in the order the greedy algorithm selected them;
    ``total_coverage`` is the value of the CJSP objective including the query
    itself.
    """

    entries: tuple[ScoredDataset, ...]
    total_coverage: int
    query_coverage: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ScoredDataset]:
        return iter(self.entries)

    @property
    def dataset_ids(self) -> list[str]:
        """IDs of the selected datasets in selection order."""
        return [entry.dataset_id for entry in self.entries]


# ---------------------------------------------------------------------- #
# Reference (brute force) solvers
# ---------------------------------------------------------------------- #
def brute_force_overlap(
    query: DatasetNode, candidates: Sequence[DatasetNode], k: int
) -> OverlapResult:
    """Exact OJSP by scoring every candidate — the ground truth for tests."""
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    scored = [(node.dataset_id, float(overlap_of(query, node))) for node in candidates]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return OverlapResult.from_pairs(scored[:k])


def brute_force_coverage(  # public-api: the exact CJSP optimum the greedy tests measure
    query: DatasetNode, candidates: Sequence[DatasetNode], k: int, delta: float
) -> CoverageResult:
    """Optimal CJSP by enumerating all subsets of size <= k.

    Exponential — only usable on the small instances the property tests build
    — but it is the exact optimum the greedy algorithm's approximation ratio
    is measured against.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    best_subset: tuple[DatasetNode, ...] = ()
    best_cover = len(query.cells)
    for size in range(1, min(k, len(candidates)) + 1):
        for subset in itertools.combinations(candidates, size):
            if not satisfies_spatial_connectivity([query, *subset], delta):
                continue
            cover = coverage_of(query, subset)
            if cover > best_cover:
                best_cover = cover
                best_subset = subset
    covered = set(query.cells)
    entries = []
    for node in best_subset:
        gain = len(node.cells - covered)
        covered |= node.cells
        entries.append(ScoredDataset(dataset_id=node.dataset_id, score=float(gain)))
    return CoverageResult(
        entries=tuple(entries),
        total_coverage=best_cover,
        query_coverage=len(query.cells),
    )
