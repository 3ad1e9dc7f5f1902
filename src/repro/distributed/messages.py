"""Message types exchanged between the data center and data sources.

Each message knows how to describe itself as a ``wire_payload`` — numbers,
strings and containers, with cell IDs as sorted, unique, read-only int64
arrays handed over unconverted — which the simulated channel feeds to
:func:`repro.utils.sizeof.encoded_size` to account for the bytes a real
deployment would put on the network (an array is priced exactly like the
list of ints it stands for).  The query-distribution strategies of Section
VI-A are visible here: an :class:`OverlapRequest` or :class:`CoverageRequest`
carries only the *clipped* portion of the query's cells that intersects the
target source's region, not the whole query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RootUpload",
    "OverlapRequest",
    "OverlapResponse",
    "CoverageRequest",
    "CoverageResponse",
]


@dataclass(frozen=True, slots=True)
class RootUpload:
    """A source uploading its DITS-L root summary to the data center."""

    source_id: str
    rect: tuple[float, float, float, float]
    dataset_count: int

    def wire_payload(self) -> dict[str, object]:
        """Payload used for byte accounting."""
        return {"source": self.source_id, "rect": list(self.rect), "count": self.dataset_count}


@dataclass(frozen=True, slots=True)
class OverlapRequest:
    """An OJSP request sent from the data center to one candidate source."""

    query_id: str
    cells: np.ndarray
    query_rect: tuple[float, float, float, float]
    k: int

    def wire_payload(self) -> dict[str, object]:
        """Payload used for byte accounting."""
        return {
            "query": self.query_id,
            "cells": self.cells,
            "rect": list(self.query_rect),
            "k": self.k,
        }


@dataclass(frozen=True, slots=True)
class OverlapResponse:
    """A source's local OJSP answer: ``(dataset_id, overlap)`` pairs."""

    source_id: str
    query_id: str
    results: tuple[tuple[str, float], ...]

    def wire_payload(self) -> dict[str, object]:
        """Payload used for byte accounting."""
        return {
            "source": self.source_id,
            "query": self.query_id,
            "results": [[dataset_id, score] for dataset_id, score in self.results],
        }


@dataclass(frozen=True, slots=True)
class CoverageRequest:
    """A CJSP request sent from the data center to one candidate source."""

    query_id: str
    cells: np.ndarray
    query_rect: tuple[float, float, float, float]
    k: int
    delta: float

    def wire_payload(self) -> dict[str, object]:
        """Payload used for byte accounting."""
        return {
            "query": self.query_id,
            "cells": self.cells,
            "rect": list(self.query_rect),
            "k": self.k,
            "delta": self.delta,
        }


@dataclass(frozen=True, slots=True)
class CoverageResponse:
    """A source's local CJSP answer: selected datasets with their new cells."""

    source_id: str
    query_id: str
    selections: tuple[tuple[str, np.ndarray], ...]

    def wire_payload(self) -> dict[str, object]:
        """Payload used for byte accounting."""
        return {
            "source": self.source_id,
            "query": self.query_id,
            "selections": [[dataset_id, cells] for dataset_id, cells in self.selections],
        }
