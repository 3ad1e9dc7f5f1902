"""Frozenset reference for the cell-set algebra: the parity suites' oracle.

The product stores and computes on sorted ``int64`` cell vectors only.  This
module keeps the pure-Python set arithmetic those vectors replaced, for the
suites that require both to give bit-identical answers:

:class:`SetGreedyCover` is Algorithm 3's covered set and marginal gains as a
Python ``set``, a drop-in for :class:`~repro.search.coverage.GreedyCover`.
:func:`set_arithmetic` swaps it into the product for the duration of a
``with`` block, so one search path runs once on each arithmetic;
:func:`arithmetic` picks by the parity suites' ``"vector"`` / ``"frozenset"``
parameter names.  Nothing under ``src/`` can select the oracle.

:func:`leaf_bounds` and :func:`assert_leaf_postings` are Definition 14 and
Lemmas 2/3 on frozensets, the reference for a DITS-L leaf's CSR postings.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Iterator

from repro.core.dataset import DatasetNode
from repro.core.problems import CoverageResult, ScoredDataset
from repro.index.dits import LeafNode
from repro.search.coverage import CoverageSearchStats, GreedyCover

ARITHMETICS = ("vector", "frozenset")


class SetGreedyCover:
    """:class:`GreedyCover` on a Python ``set``: same rule, same counters."""

    def __init__(self, query: DatasetNode) -> None:
        self._query_coverage = len(query.cells)
        self._covered_set: set[int] = set(query.cells)
        self._entries: list[ScoredDataset] = []

    def pick(
        self,
        candidates: Iterable[DatasetNode],
        stats: CoverageSearchStats | None = None,
        connected: Callable[[DatasetNode], bool] | None = None,
    ) -> tuple[DatasetNode, int] | None:
        best_node: DatasetNode | None = None
        best_gain = 0
        for candidate in candidates:
            size = len(candidate.cells)
            if size < best_gain or (
                size == best_gain
                and (best_node is None or candidate.dataset_id > best_node.dataset_id)
            ):
                if stats is not None:
                    stats.gain_skips += 1
                continue
            if stats is not None:
                stats.gain_evaluations += 1
            gain = len(candidate.cells - self._covered_set)
            if (
                gain > best_gain
                or (
                    gain == best_gain
                    and best_node is not None
                    and candidate.dataset_id < best_node.dataset_id
                )
            ) and (connected is None or connected(candidate)):
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


_GREEDY_METHODS = ("__init__", "pick", "add", "result")


@contextlib.contextmanager
def set_arithmetic() -> Iterator[None]:
    """Run the product's greedy loop on frozenset arithmetic.

    ``GreedyCover`` takes :class:`SetGreedyCover`'s methods (every call site
    shares the one class).  Everything is restored on exit.
    """
    patches = [(GreedyCover, name, SetGreedyCover.__dict__[name]) for name in _GREEDY_METHODS]
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


def leaf_bounds(entries: Iterable[DatasetNode], query: frozenset[int]) -> tuple[int, int]:
    """``(lower, upper)``: the query cells every entry holds, and any entry holds."""
    cell_sets = [entry.cells for entry in entries]
    return len(query.intersection(*cell_sets)), len(query & frozenset().union(*cell_sets))


def assert_leaf_postings(leaf: LeafNode) -> None:
    """``leaf``'s postings are the inverted index of its entries' frozensets.

    ``cells`` is the union of the entries' cells (sorted), each cell's
    ``owners`` slice names exactly the entries holding it, and ``cells[full]``
    is the entries' intersection.
    """
    expected: dict[int, list[str]] = {}
    for entry in leaf.entries:
        for cell in entry.cells:
            expected.setdefault(cell, []).append(entry.dataset_id)
    cells = leaf.cells.tolist()
    assert cells == sorted(expected)
    assert leaf.indptr.tolist()[-1] == len(leaf.owners) and len(leaf.indptr) == len(cells) + 1
    for position, cell in enumerate(cells):
        owners = leaf.owners[leaf.indptr[position] : leaf.indptr[position + 1]].tolist()
        assert sorted(leaf.entries[o].dataset_id for o in owners) == sorted(expected[cell])
    cell_sets = [entry.cells for entry in leaf.entries]
    intersection = frozenset.intersection(*cell_sets) if cell_sets else frozenset()
    assert frozenset(leaf.cells[leaf.full].tolist()) == intersection
