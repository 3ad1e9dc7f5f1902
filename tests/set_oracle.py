"""Frozenset reference for the cell-set algebra: the parity suites' oracle.

The product stores and computes on sorted ``int64`` cell vectors only.  This
module keeps the pure-Python set arithmetic those vectors replaced, for the
suites that require both to give bit-identical answers:

* :class:`SetGreedyCover` — Algorithm 3's covered set and marginal gains as a
  Python ``set``, a drop-in for :class:`~repro.search.coverage.GreedyCover`;
* :func:`set_overlap_with` — ``overlap_with`` as a frozenset intersection.

:func:`set_arithmetic` swaps both into the product for the duration of a
``with`` block, so one search path runs once on each arithmetic;
:func:`arithmetic` picks by the parity suites' ``"vector"`` / ``"frozenset"``
parameter names.  Nothing under ``src/`` can select the oracle.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Iterator

from repro.core.dataset import CellSet, DatasetNode
from repro.core.problems import CoverageResult, ScoredDataset
from repro.search.coverage import CoverageSearchStats, GreedyCover

ARITHMETICS = ("vector", "frozenset")


class SetGreedyCover:
    """:class:`GreedyCover` on a Python ``set``: same rule, same counters."""

    def __init__(self, query: DatasetNode) -> None:
        self._query_coverage = len(query.cells)
        self._covered_set: set[int] = set(query.cells)
        self._entries: list[ScoredDataset] = []

    def pick(
        self, candidates: Iterable[DatasetNode], stats: CoverageSearchStats | None = None
    ) -> tuple[DatasetNode, int] | None:
        best_node: DatasetNode | None = None
        best_gain = 0
        for candidate in candidates:
            if len(candidate.cells) <= best_gain:
                if stats is not None:
                    stats.gain_skips += 1
                continue
            if stats is not None:
                stats.gain_evaluations += 1
            gain = len(candidate.cells - self._covered_set)
            if gain > best_gain or (
                gain == best_gain
                and best_node is not None
                and candidate.dataset_id < best_node.dataset_id
            ):
                best_gain = gain
                best_node = candidate
        return None if best_node is None else (best_node, best_gain)

    def add(self, node: DatasetNode, gain: int, source_id: str | None = None) -> None:
        self._covered_set |= node.cells
        self._entries.append(
            ScoredDataset(dataset_id=node.dataset_id, score=float(gain), source_id=source_id)
        )

    def result(self) -> CoverageResult:
        return CoverageResult(
            entries=tuple(self._entries),
            total_coverage=len(self._covered_set),
            query_coverage=self._query_coverage,
        )


def set_overlap_with(
    self: "DatasetNode | CellSet", other: "DatasetNode | CellSet | Iterable[int]"
) -> int:
    """``overlap_with`` as a frozenset intersection."""
    other_cells = other.cells if isinstance(other, (DatasetNode, CellSet)) else frozenset(other)
    return len(self.cells & other_cells)


_GREEDY_METHODS = ("__init__", "pick", "add", "result")


@contextlib.contextmanager
def set_arithmetic() -> Iterator[None]:
    """Run the product's greedy loop and node overlaps on frozenset arithmetic.

    ``GreedyCover`` takes :class:`SetGreedyCover`'s methods (every call site
    shares the one class), and ``DatasetNode`` / ``CellSet`` take
    :func:`set_overlap_with`.  Everything is restored on exit.
    """
    patches = [(GreedyCover, name, SetGreedyCover.__dict__[name]) for name in _GREEDY_METHODS]
    patches += [(cls, "overlap_with", set_overlap_with) for cls in (DatasetNode, CellSet)]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def arithmetic(name: str) -> "contextlib.AbstractContextManager[None]":
    """``"vector"``: the product as is; ``"frozenset"``: :func:`set_arithmetic`."""
    return set_arithmetic() if name == "frozenset" else contextlib.nullcontext()
