"""Flat reference for DITS-G routing: the parity suites' oracle.

The specification of ``DITSGlobalIndex.candidate_sources`` is the Section
VI-A predicate applied to every live summary, one by one: :func:`flat_reference`
is that filter, ordered by ``source_id`` like the index's answer.  The
differential suites compare the index against it after every registration
step, so a stale table row or a numpy mask that drops a row cannot hide.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.geometry import BoundingBox
from repro.index.dits_global import SourceSummary, summary_may_contain


def flat_reference(
    summaries: Iterable[SourceSummary], rect: BoundingBox, delta: float
) -> list[SourceSummary]:
    """Every summary passing the pruning predicate, sorted by source id."""
    pivot, radius = rect.center, rect.radius
    return sorted(
        (s for s in summaries if summary_may_contain(s.rect, rect, pivot, radius, delta)),
        key=lambda s: s.source_id,
    )
