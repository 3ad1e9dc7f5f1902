"""Workload construction and timing utilities for the experiment drivers.

A :class:`Workbench` materialises everything one experiment configuration
needs — the synthetic datasets of the selected sources, their gridded nodes,
query workloads and (on demand) each of the five indexes — and caches the
expensive pieces so parameter sweeps that only change ``k`` or ``delta`` do
not regenerate data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.dataset import DatasetNode, SpatialDataset
from repro.core.grid import Grid
from repro.data.queries import sample_queries
from repro.data.sources import SOURCE_PROFILES, build_source_datasets
from repro.index.dits import DITSLocalIndex
from repro.index.inverted import STS3Index
from repro.index.josie import JosieIndex
from repro.index.quadtree import QuadTreeIndex
from repro.index.rtree import RTreeIndex

__all__ = ["ExperimentConfig", "Workbench", "time_call"]

#: Default experiment scale: fraction of the paper's per-source dataset counts.
DEFAULT_SCALE = 0.02
#: Default benchmark sources; ``Transit`` is the densest and most join-friendly.
DEFAULT_SOURCES = ("Transit", "Baidu")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One experiment configuration: data scale, sources and grid resolution."""

    sources: tuple[str, ...] = DEFAULT_SOURCES
    scale: float = DEFAULT_SCALE
    theta: int = 12
    leaf_capacity: int = 30
    seed: int = 7

    def with_theta(self, theta: int) -> "ExperimentConfig":
        """Copy of this config at a different grid resolution."""
        return ExperimentConfig(
            sources=self.sources,
            scale=self.scale,
            theta=theta,
            leaf_capacity=self.leaf_capacity,
            seed=self.seed,
        )


@dataclass
class Workbench:
    """Materialised datasets, nodes and indexes for one configuration."""

    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    _datasets: dict[str, list[SpatialDataset]] = field(default_factory=dict, init=False)
    _nodes: dict[str, list[DatasetNode]] = field(default_factory=dict, init=False)

    # ------------------------------------------------------------------ #
    # Data materialisation
    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> Grid:
        """The grid at the configuration's resolution."""
        return Grid(theta=self.config.theta)

    def with_theta(self, theta: int) -> "Workbench":
        """A workbench at a different resolution sharing this one's datasets.

        Dataset generation does not depend on ``theta``, so theta sweeps can
        reuse the (expensive) synthetic corpora and only re-discretise;
        gridded nodes are cached per ``source@theta`` and stay correct.
        """
        sibling = Workbench(self.config.with_theta(theta))
        sibling._datasets = self._datasets
        sibling._nodes = self._nodes
        return sibling

    def datasets_of(self, source_name: str) -> list[SpatialDataset]:
        """The synthetic datasets of ``source_name`` (cached)."""
        if source_name not in self._datasets:
            self._datasets[source_name] = build_source_datasets(
                SOURCE_PROFILES[source_name],
                scale=self.config.scale,
                seed=self.config.seed,
            )
        return self._datasets[source_name]

    def nodes_of(self, source_name: str) -> list[DatasetNode]:
        """Gridded dataset nodes of ``source_name`` under the configured grid."""
        key = f"{source_name}@{self.config.theta}"
        if key not in self._nodes:
            grid = self.grid
            self._nodes[key] = [
                dataset.to_node(grid) for dataset in self.datasets_of(source_name)
            ]
        return self._nodes[key]

    def all_nodes(self) -> list[DatasetNode]:
        """Gridded nodes of every configured source, concatenated."""
        combined: list[DatasetNode] = []
        for source_name in self.config.sources:
            combined.extend(self.nodes_of(source_name))
        return combined

    def query_nodes(self, count: int, from_source: str | None = None) -> list[DatasetNode]:
        """``count`` query nodes sampled from one source (or the first configured)."""
        source_name = from_source or self.config.sources[0]
        queries = sample_queries(
            self.datasets_of(source_name), count, seed=self.config.seed + 1
        )
        grid = self.grid
        return [query.to_node(grid) for query in queries]

    # ------------------------------------------------------------------ #
    # Index construction
    # ------------------------------------------------------------------ #
    def build_dits(self, nodes: Sequence[DatasetNode] | None = None) -> DITSLocalIndex:
        """A DITS-L index over ``nodes`` (default: all configured nodes)."""
        index = DITSLocalIndex(leaf_capacity=self.config.leaf_capacity)
        index.build(nodes if nodes is not None else self.all_nodes())
        return index

    def build_rtree(self, nodes: Sequence[DatasetNode] | None = None) -> RTreeIndex:
        """An R-tree index over ``nodes``."""
        index = RTreeIndex()
        index.build(nodes if nodes is not None else self.all_nodes())
        return index

    def build_quadtree(self, nodes: Sequence[DatasetNode] | None = None) -> QuadTreeIndex:
        """A QuadTree index over ``nodes``."""
        index = QuadTreeIndex()
        index.build(nodes if nodes is not None else self.all_nodes())
        return index

    def build_sts3(self, nodes: Sequence[DatasetNode] | None = None) -> STS3Index:
        """An STS3 inverted index over ``nodes``."""
        index = STS3Index()
        index.build(nodes if nodes is not None else self.all_nodes())
        return index

    def build_josie(self, nodes: Sequence[DatasetNode] | None = None) -> JosieIndex:
        """A Josie index over ``nodes``."""
        index = JosieIndex()
        index.build(nodes if nodes is not None else self.all_nodes())
        return index


def time_call(function: Callable[[], object]) -> tuple[float, object]:
    """Run ``function`` once; return (wall-clock ms, its result)."""
    start = time.perf_counter()
    result = function()
    return (time.perf_counter() - start) * 1000.0, result
