"""The bounded top-k heap behind every overlap result queue.

Algorithm 2 of the paper maintains a result priority queue ``R`` holding the
``k`` best candidates seen so far, keyed by intersection size.  The queue must
support: insert, peek at the current worst (the k-th best), and replacement of
the worst element.

:class:`CanonicalTopK` breaks score ties by the *item itself* (smallest
first) both for retention and for the final ordering, so the retained set is
a pure function of the offered ``(score, item)`` pairs — independent of the
order they arrive in.  OverlapSearch uses it so results do not depend on the
DITS-L tree shape (fresh build vs. incrementally rebalanced), the data center
uses it so the merged answer does not depend on source order, and the R-tree
and Josie baselines use it so every OJSP method ranks ties the same way.
"""

from __future__ import annotations

import heapq
from typing import Generic, Iterator, TypeVar

T = TypeVar("T")

__all__ = ["CanonicalTopK"]


class _ReverseOrder(Generic[T]):
    """Wrapper inverting the comparison order of its payload (for min-heaps)."""

    __slots__ = ("value",)

    def __init__(self, value: T) -> None:
        self.value = value

    def __lt__(self, other: "_ReverseOrder[T]") -> bool:
        return other.value < self.value  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReverseOrder) and other.value == self.value


class CanonicalTopK(Generic[T]):
    """A bounded top-k heap whose retained set ignores insertion order.

    Keeps the ``k`` largest ``(score, item)`` pairs where ties on ``score``
    are broken by the smallest ``item`` (items must be totally ordered, e.g.
    dataset-ID strings).  Offering the same multiset of pairs in any order
    yields the same retained set and the same :meth:`items` ordering
    ``(score desc, item asc)`` — which also matches the convention of the
    OJSP baseline methods.
    """

    __slots__ = ("_k", "_heap", "_members")

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self._k = k
        # Min-heap of (score, _ReverseOrder(item)): the root is the entry to
        # evict first — lowest score, largest item among equal scores.
        self._heap: list[tuple[float, _ReverseOrder[T]]] = []
        self._members: set[T] = set()

    @property
    def k(self) -> int:
        """Maximum number of retained items."""
        return self._k

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __contains__(self, item: T) -> bool:
        return item in self._members

    def is_full(self) -> bool:
        """Return ``True`` once ``k`` items are retained."""
        return len(self._heap) >= self._k

    def kth_score(self) -> float:
        """Score of the current k-th best item, ``-inf`` while not full."""
        if not self.is_full():
            return float("-inf")
        return self._heap[0][0]

    def push(self, score: float, item: T) -> bool:  # parity-critical
        """Offer ``item`` with ``score``; return ``True`` if it was retained."""
        entry = (score, _ReverseOrder(item))
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, entry)
            self._members.add(item)
            return True
        if entry > self._heap[0]:
            _, evicted = heapq.heapreplace(self._heap, entry)
            self._members.discard(evicted.value)
            self._members.add(item)
            return True
        return False

    def items(self) -> list[tuple[float, T]]:  # parity-critical
        """Return retained ``(score, item)`` pairs: score desc, item asc."""
        ordered = sorted(self._heap, key=lambda entry: (-entry[0], entry[1].value))
        return [(score, wrapped.value) for score, wrapped in ordered]

    def __iter__(self) -> Iterator[tuple[float, T]]:
        return iter(self.items())
