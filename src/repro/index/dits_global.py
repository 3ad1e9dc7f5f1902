"""DITS-G: the data center's global index over source summaries.

Each data source builds its own DITS-L and ships only its *root summary*
(MBR, pivot, radius, dataset count) to the data center, converted to
geographic coordinates so that sources gridded at different resolutions can
coexist.  DITS-G answers one question (Section VI-A): *which sources could
possibly contain results for this query?*  A source whose MBR misses the
query MBR cannot contribute to OJSP; for CJSP, neither can a source whose
distance lower bound to the query exceeds the connectivity threshold.

The candidate set is *defined* as the live summaries passing that predicate
(:func:`summary_may_contain`).  :class:`DITSGlobalIndex` keeps them as one
table and lets the scalar predicate decide every row a numpy mask keeps, so
the answer is the predicate's by construction
(``tests/index/test_dits_global_table.py`` checks it against
``tests/summary_oracle.py``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np
import numpy.typing as npt

from repro.core.errors import SourceNotFoundError
from repro.core.geometry import BoundingBox, Point

__all__ = ["DITSGlobalIndex", "SourceSummary", "summary_may_contain"]

#: Relative slack of the vectorised CJSP bound.  ``np.hypot`` and
#: ``math.hypot`` may differ by an ulp and ``math.isclose`` admits a
#: relative 1e-9 band, both far inside this margin.
_MASK_SLACK = 1e-6

_by_source_id = attrgetter("source_id")


@dataclass(frozen=True, slots=True)
class SourceSummary:
    """A data source's root-node summary in geographic coordinates."""

    source_id: str
    rect: BoundingBox
    dataset_count: int

    @property
    def pivot(self) -> Point:
        """Centre of the source's MBR."""
        return self.rect.center

    @property
    def radius(self) -> float:
        """Half of the MBR diagonal."""
        return self.rect.radius


def summary_may_contain(
    rect: BoundingBox,
    query_rect: BoundingBox,
    query_pivot: Point,
    query_radius: float,
    delta_geo: float,
) -> bool:
    """Pruning predicate of Section VI-A applied to one source summary."""
    if rect.intersects(query_rect):
        return True
    if delta_geo <= 0:
        return False
    pivot_distance = rect.center.distance_to(query_pivot)
    lower_bound = max(pivot_distance - rect.radius - query_radius, 0.0)
    return lower_bound <= delta_geo or math.isclose(lower_bound, delta_geo)


def _columns_of(summaries: Iterable[SourceSummary]) -> npt.NDArray[np.float64]:
    """Rows of ``min_x, min_y, max_x, max_y, pivot_x, pivot_y, radius``."""
    return np.array(
        [(*s.rect.as_tuple(), *s.pivot.as_tuple(), s.radius) for s in summaries],
        dtype=np.float64,
    ).reshape(-1, 7)


def _may_contain_mask(
    columns: npt.NDArray[np.float64],
    query_rect: BoundingBox,
    query_pivot: Point,
    query_radius: float,
    delta_geo: float,
) -> npt.NDArray[np.bool_]:
    """Rows of ``columns`` that may pass :func:`summary_may_contain`; never fewer.

    The closed-box intersect is exact.  When ``delta_geo > 0`` the pivot
    bound is widened by :data:`_MASK_SLACK`, so rounding can only add rows.
    """
    min_x, min_y, max_x, max_y = query_rect.as_tuple()
    mask = (
        (columns[:, 2] >= min_x)
        & (columns[:, 0] <= max_x)
        & (columns[:, 3] >= min_y)
        & (columns[:, 1] <= max_y)
    )
    if delta_geo > 0:
        reach = np.hypot(columns[:, 4] - query_pivot.x, columns[:, 5] - query_pivot.y)
        mask |= reach - columns[:, 6] - query_radius <= delta_geo + _MASK_SLACK * (
            reach + columns[:, 6] + query_radius + delta_geo
        )
    return mask


class DITSGlobalIndex:
    """The DITS-G global index: a copy-on-write table of source summaries.

    The table is a tuple of rows plus one numpy block of their rect, pivot
    and radius columns.  A registration publishes a new table (an append, a
    row replace or a swap-remove) under one lock; a query takes the current
    table under that lock and reads it lock-free, so it never sees a
    half-applied change.  ``rebuild_count`` counts the publishes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows: tuple[SourceSummary, ...] = ()  # guarded-by: _lock
        self._columns = _columns_of(())  # guarded-by: _lock
        self._row_of: dict[str, int] = {}  # guarded-by: _lock
        self.rebuild_count = 0  # guarded-by: _lock

    def register(self, summary: SourceSummary) -> None:
        """Register a source's summary, or refresh it if already registered."""
        self.register_all((summary,))

    def register_all(self, summaries: Iterable[SourceSummary]) -> None:
        """Register or refresh several summaries in one publish."""
        with self._lock:
            rows = list(self._rows)
            touched: dict[int, SourceSummary] = {}
            for summary in summaries:
                row = self._row_of.setdefault(summary.source_id, len(rows))
                if row == len(rows):
                    rows.append(summary)
                touched[row] = rows[row] = summary
            columns = np.empty((len(rows), 7))
            columns[: len(self._rows)] = self._columns
            columns[list(touched)] = _columns_of(touched.values())
            self._publish(rows, columns)

    def unregister(self, source_id: str) -> None:
        """Remove a source: its row is swapped with the last one and dropped."""
        with self._lock:
            try:
                row = self._row_of.pop(source_id)
            except KeyError as exc:
                raise SourceNotFoundError(source_id) from exc
            rows = list(self._rows)
            columns = self._columns[:-1].copy()
            last = rows.pop()
            if row < len(rows):
                rows[row] = last
                columns[row] = self._columns[-1]
                self._row_of[last.source_id] = row
            self._publish(rows, columns)

    def _publish(  # repro-lint: holds=_lock
        self, rows: list[SourceSummary], columns: npt.NDArray[np.float64]
    ) -> None:
        columns.flags.writeable = False
        self._rows = tuple(rows)
        self._columns = columns
        self.rebuild_count += 1

    def summary_of(self, source_id: str) -> SourceSummary:  # public-api: registry checks in tests
        """The registered summary for ``source_id``."""
        with self._lock:
            try:
                return self._rows[self._row_of[source_id]]
            except KeyError as exc:
                raise SourceNotFoundError(source_id) from exc

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def candidate_sources(  # parity-critical
        self,
        query_rect: BoundingBox,
        delta_geo: float = 0.0,
    ) -> list[SourceSummary]:
        """Sources whose region could contain OJSP/CJSP results, by ``source_id``.

        ``query_rect`` is the query's MBR in geographic coordinates.
        ``delta_geo`` is the connectivity threshold in geographic units:
        ``0`` keeps only sources whose MBR intersects the query (the OJSP
        rule); a positive value also keeps sources whose pivot-distance
        lower bound to the query is within the threshold (the CJSP rule).
        """
        with self._lock:
            rows, columns = self._rows, self._columns
        pivot, radius = query_rect.center, query_rect.radius
        mask = _may_contain_mask(columns, query_rect, pivot, radius, delta_geo)
        candidates = [
            rows[row]
            for row in np.flatnonzero(mask)
            if summary_may_contain(rows[row].rect, query_rect, pivot, radius, delta_geo)
        ]
        candidates.sort(key=_by_source_id)
        return candidates

    def all_summaries(self) -> Iterator[SourceSummary]:
        """Iterate over every registered summary in id order (broadcast baselines)."""
        with self._lock:
            rows = self._rows
        yield from sorted(rows, key=_by_source_id)
