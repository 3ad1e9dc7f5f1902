"""Core data model of the joinable spatial search library.

This subpackage contains the paper's primary abstractions:

* :mod:`repro.core.geometry` — points and minimum bounding rectangles.
* :mod:`repro.core.grid` — grid partition at resolution ``theta`` and the
  z-order cell encoding (Definitions 4–5).
* :mod:`repro.core.dataset` — spatial datasets, cell-based datasets and the
  dataset nodes stored in DITS (Definitions 2, 5 and 12).
* :mod:`repro.core.distance` — cell-based dataset distance and the node
  distance bounds of Lemma 4 (Definition 6).
* :mod:`repro.core.distance_engine` — batched one-vs-many exact distance
  kernels with bounded per-dataset geometry caching.
* :mod:`repro.core.connectivity` — direct/indirect connectivity and the
  spatial connectivity predicate (Definitions 7–9).
* :mod:`repro.core.problems` — OJSP and CJSP problem statements, exact
  scoring functions and result containers (Definitions 10–11).
"""

from repro.core.connectivity import (
    ConnectivityGraph,
    is_directly_connected,
    satisfies_spatial_connectivity,
)
from repro.core.dataset import CellSet, DatasetNode, SpatialDataset
from repro.core.distance import (
    cell_distance,
    cell_set_distance,
    node_distance_bounds,
)
from repro.core.distance_engine import DistanceEngine, get_engine, set_engine
from repro.core.errors import (
    DatasetNotFoundError,
    EmptyDatasetError,
    InvalidParameterError,
    ReproError,
)
from repro.core.geometry import BoundingBox, Point
from repro.core.grid import Grid
from repro.core.problems import (
    CoverageQuery,
    CoverageResult,
    OverlapQuery,
    OverlapResult,
    coverage_of,
    overlap_of,
)

__all__ = [
    "BoundingBox",
    "CellSet",
    "ConnectivityGraph",
    "CoverageQuery",
    "CoverageResult",
    "DatasetNode",
    "DatasetNotFoundError",
    "DistanceEngine",
    "EmptyDatasetError",
    "Grid",
    "InvalidParameterError",
    "OverlapQuery",
    "OverlapResult",
    "Point",
    "ReproError",
    "SpatialDataset",
    "cell_distance",
    "cell_set_distance",
    "coverage_of",
    "get_engine",
    "is_directly_connected",
    "set_engine",
    "node_distance_bounds",
    "overlap_of",
    "satisfies_spatial_connectivity",
]
