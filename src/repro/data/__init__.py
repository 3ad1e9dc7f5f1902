"""Synthetic data generation and loading.

The paper evaluates on five real data portals (Table I).  Those archives are
multi-gigabyte downloads, so this package generates *synthetic equivalents*
that reproduce each source's shape — number of datasets, dataset-size
distribution, coordinate extent and spatial clustering — at a configurable
scale.

* :mod:`repro.data.generators` — primitive generators: random walks
  (trajectory/route-like datasets), Gaussian clusters, uniform scatters and
  mixtures.
* :mod:`repro.data.sources` — the five named source profiles and
  ``build_source_datasets`` to materialise them.
* :mod:`repro.data.queries` — query workload sampling.
* :mod:`repro.data.loaders` — CSV round-trips for datasets and sources.
* :mod:`repro.data.corpus_cache` — on-disk cache of generated corpora keyed
  by (config hash, seed, generator fingerprint).
"""

from repro.data.corpus_cache import generator_fingerprint, load_or_generate
from repro.data.generators import (
    DatasetGenerator,
    generate_cluster_dataset,
    generate_route_dataset,
    generate_uniform_dataset,
)
from repro.data.loaders import load_source_csv, save_source_csv
from repro.data.queries import sample_queries
from repro.data.sources import (
    SOURCE_PROFILES,
    SourceProfile,
    build_all_sources,
    build_source_datasets,
)

__all__ = [
    "SOURCE_PROFILES",
    "DatasetGenerator",
    "SourceProfile",
    "build_all_sources",
    "build_source_datasets",
    "generate_cluster_dataset",
    "generate_route_dataset",
    "generate_uniform_dataset",
    "generator_fingerprint",
    "load_or_generate",
    "load_source_csv",
    "sample_queries",
    "save_source_csv",
]
