"""Sorted-array kernels: the set algebra of cell-based datasets.

Every search algorithm in the paper ultimately reduces to set algebra over
*cell-based datasets* (Definition 5): intersection sizes for OJSP overlap
scores (Definition 7), difference sizes for CJSP marginal coverage gains
(Algorithm 3) and unions for the running covered set.

A cell set is a **sorted, de-duplicated** ``numpy.int64`` vector, the one
form ``DatasetNode``/``CellSet`` store and the wire carries.  On sorted
vectors the three size kernels need no intermediate result sets: membership
of the smaller vector in the larger one is resolved with one C-level
:func:`numpy.searchsorted` sweep (a galloping merge), so

* ``intersection_size(a, b)`` costs ``O(min(m, n) * log(max(m, n)))``
  vectorized element compares and allocates one boolean mask,
* ``union_size`` and ``difference_size`` are derived from it by
  inclusion–exclusion without materializing the union/difference.

The frozenset arithmetic these kernels replaced survives only as the test
suite's reference oracle (``tests/set_oracle.py``), which the parity suites
compare every search path against.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "CELL_DTYPE",
    "as_cell_array",
    "intersection_size",
    "union_size",
    "difference_size",
    "intersect",
    "union",
    "difference",
    "contains_all",
]

#: Canonical dtype of cell-ID vectors.  ``theta <= 20`` keeps Morton codes
#: below ``2**40``, far inside the int64 range.
CELL_DTYPE = np.int64

_EMPTY = np.empty(0, dtype=CELL_DTYPE)


# ---------------------------------------------------------------------- #
# Construction
# ---------------------------------------------------------------------- #
def as_cell_array(cells: "Iterable[int] | np.ndarray") -> np.ndarray:
    """Sorted, de-duplicated int64 vector of cell IDs.

    Accepts any iterable of ints or an existing ndarray.  The result never
    aliases a caller-provided array, so it is safe to cache: later mutation
    of the input cannot corrupt a cached vector.
    """
    if isinstance(cells, np.ndarray):
        arr = cells.astype(CELL_DTYPE)  # defensive copy
    else:
        if not isinstance(cells, (list, tuple, set, frozenset)):
            cells = list(cells)
        arr = np.fromiter(cells, dtype=CELL_DTYPE, count=len(cells))
    if arr.size <= 1:
        return arr
    if np.all(arr[1:] > arr[:-1]):  # already sorted + unique
        return arr
    return np.unique(arr)


# ---------------------------------------------------------------------- #
# Size kernels (no intermediate set materialization)
# ---------------------------------------------------------------------- #
def _membership(needles: np.ndarray, haystack: np.ndarray) -> np.ndarray:
    """Boolean mask marking which sorted ``needles`` occur in sorted ``haystack``."""
    if needles.size == 0 or haystack.size == 0:
        return np.zeros(needles.size, dtype=bool)
    idx = np.searchsorted(haystack, needles)
    idx[idx == haystack.size] = haystack.size - 1
    return haystack[idx] == needles


def intersection_size(a: np.ndarray, b: np.ndarray) -> int:
    """``|a & b|`` for two sorted unique cell vectors."""
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return 0
    return int(np.count_nonzero(_membership(a, b)))


def union_size(a: np.ndarray, b: np.ndarray) -> int:
    """``|a | b|`` by inclusion–exclusion (no union is materialized)."""
    return int(a.size + b.size - intersection_size(a, b))


def difference_size(a: np.ndarray, b: np.ndarray) -> int:
    """``|a - b|``: cells of ``a`` not present in ``b``."""
    return int(a.size - intersection_size(a, b))


def contains_all(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether every cell of ``b`` occurs in ``a``."""
    if b.size == 0:
        return True
    if b.size > a.size:
        return False
    return bool(np.all(_membership(b, a)))


# ---------------------------------------------------------------------- #
# Materializing kernels
# ---------------------------------------------------------------------- #
def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted vector of the cells shared by ``a`` and ``b``."""
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return _EMPTY
    return a[_membership(a, b)]


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted vector of the cells of ``a`` or ``b`` (merge of two sorted runs)."""
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    merged = np.concatenate((a, b))
    merged.sort(kind="mergesort")  # two pre-sorted runs: near-linear merge
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted vector of the cells of ``a`` absent from ``b``."""
    if a.size == 0 or b.size == 0:
        return a
    return a[~_membership(a, b)]
