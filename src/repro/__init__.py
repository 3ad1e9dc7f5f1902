"""repro: joinable search over multi-source spatial datasets (DITS).

This library reproduces the system described in "Joinable Search over
Multi-source Spatial Datasets: Overlap, Coverage, and Efficiency"
(ICDE 2025):

* the **grid / cell-based dataset** model (:mod:`repro.core`);
* the **DITS** index family — the DITS-L local index and DITS-G global index
  (:mod:`repro.index`) plus the four baseline indexes the paper compares
  against;
* the **OverlapSearch** (OJSP) and **CoverageSearch** (CJSP) algorithms and
  their baselines (:mod:`repro.search`);
* the **multi-source framework** with simulated communication accounting
  (:mod:`repro.distributed`);
* synthetic **data sources** mirroring the paper's five portals
  (:mod:`repro.data`) and the **experiment drivers** regenerating every
  table and figure of the evaluation (:mod:`repro.bench`).

Quickstart
----------
>>> from repro import MultiSourceFramework
>>> from repro.data import build_source_datasets
>>> framework = MultiSourceFramework(theta=12)
>>> _ = framework.add_source("Transit", build_source_datasets("Transit", scale=0.01))
>>> query = framework.query_from_points([(-77.0, 38.9), (-77.01, 38.91)])
>>> result = framework.overlap_search(query, k=3)
>>> len(result) <= 3
True
"""

from repro.core import (
    BoundingBox,
    CellSet,
    CoverageQuery,
    CoverageResult,
    DatasetNode,
    Grid,
    OverlapQuery,
    OverlapResult,
    Point,
    SpatialDataset,
)
from repro.distributed import DataCenter, DataSource, MultiSourceFramework
from repro.index import DITSGlobalIndex, DITSLocalIndex, RebalancePolicy
from repro.search import CoverageSearch, OverlapSearch

__version__ = "1.0.0"

__all__ = [
    "BoundingBox",
    "CellSet",
    "CoverageQuery",
    "CoverageResult",
    "CoverageSearch",
    "DITSGlobalIndex",
    "DITSLocalIndex",
    "DataCenter",
    "DataSource",
    "DatasetNode",
    "Grid",
    "MultiSourceFramework",
    "OverlapQuery",
    "OverlapResult",
    "OverlapSearch",
    "Point",
    "RebalancePolicy",
    "SpatialDataset",
    "__version__",
]
