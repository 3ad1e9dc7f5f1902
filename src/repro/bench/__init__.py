"""Benchmark harness: workload construction, experiment drivers and reporting.

* :mod:`repro.bench.harness` — builds the synthetic corpora/indexes once per
  configuration and provides timing utilities.
* :mod:`repro.bench.experiments` — one search-time and one communication
  sweep driver for the parameter figures, plus one driver per remaining
  table or figure; each returns plain row dictionaries.
* :mod:`repro.bench.reporting` — renders rows as aligned text tables.
"""

from repro.bench.harness import ExperimentConfig, Workbench, time_call
from repro.bench.reporting import format_table

__all__ = [
    "ExperimentConfig",
    "Workbench",
    "format_table",
    "time_call",
]
