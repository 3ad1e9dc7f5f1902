"""End-to-end multi-source joinable search framework (Fig. 3).

:class:`MultiSourceFramework` is the top-level object a user interacts with:
it owns the data center, creates and registers data sources, accepts queries
as raw point collections or pre-gridded cell sets, and returns aggregated
OJSP/CJSP results together with the communication statistics accumulated by
the simulated channel.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.dataset import DatasetNode, SpatialDataset
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.core.problems import CoverageResult, OverlapResult
from repro.distributed.center import DataCenter, DistributionPolicy
from repro.distributed.channel import ChannelStats, SimulatedChannel
from repro.distributed.executor import ExecutionPolicy
from repro.distributed.source import DataSource
from repro.index.dits_rebalance import RebalancePolicy
from repro.index.dits_global_sharded import ShardPolicy

__all__ = ["MultiSourceFramework"]


class MultiSourceFramework:
    """A data center plus its registered data sources behind one façade.

    Parameters
    ----------
    theta:
        Grid resolution used by the data center (and by sources created via
        :meth:`add_source` unless they override it).
    space:
        Geographic data space shared by the center grid and default source
        grids.
    leaf_capacity:
        DITS-L leaf capacity used by sources created via :meth:`add_source`.
    policy:
        Query-distribution policy (candidate routing / query clipping).
    bandwidth_bytes_per_second:
        Simulated network bandwidth used to derive transmission times.
    execution:
        Per-source dispatch policy (thread-pool fan-out vs. serial loop).
        ``None`` keeps the default concurrent fan-out; pass
        ``ExecutionPolicy.serial()`` for the sequential loop.  Both modes
        return bit-identical results.
    shard_policy:
        How DITS-G partitions source summaries across shards
        (:class:`~repro.index.dits_global_sharded.ShardPolicy`).  ``None``
        keeps the default policy; every shard count returns bit-identical
        candidates and results.
    rebalance:
        DITS-L rebalancing policy applied by sources created via
        :meth:`add_source` / :meth:`add_source_from_nodes` (``None`` keeps
        the default-enabled policy).  Any policy returns bit-identical
        search results; only maintenance cost and pruning power differ.
    """

    def __init__(
        self,
        theta: int = 12,
        space: BoundingBox | None = None,
        leaf_capacity: int = 30,
        policy: DistributionPolicy = DistributionPolicy(),
        bandwidth_bytes_per_second: float = 1_048_576,
        execution: ExecutionPolicy | None = None,
        shard_policy: ShardPolicy | None = None,
        rebalance: RebalancePolicy | None = None,
    ) -> None:
        self.grid = Grid(theta=theta, space=space) if space is not None else Grid(theta=theta)
        self.leaf_capacity = leaf_capacity
        self.rebalance = rebalance
        self.channel = SimulatedChannel(bandwidth_bytes_per_second=bandwidth_bytes_per_second)
        self.center = DataCenter(
            grid=self.grid,
            channel=self.channel,
            policy=policy,
            execution=execution,
            shard_policy=shard_policy,
        )

    def close(self) -> None:
        """Release the data center's dispatch thread pool."""
        self.center.close()

    # ------------------------------------------------------------------ #
    # Source management
    # ------------------------------------------------------------------ #
    def add_source(
        self,
        source_id: str,
        datasets: Iterable[SpatialDataset],
        theta: int | None = None,
        leaf_capacity: int | None = None,
    ) -> DataSource:
        """Create a data source over ``datasets``, index it and register it."""
        grid = (
            Grid(theta=theta, space=self.grid.space) if theta is not None else self.grid
        )
        source = DataSource(
            source_id=source_id,
            grid=grid,
            leaf_capacity=leaf_capacity if leaf_capacity is not None else self.leaf_capacity,
            rebalance=self.rebalance,
        )
        source.load_datasets(datasets)
        self.center.register_source(source)
        return source

    def add_source_from_nodes(  # public-api: documented sibling of add_source
        self, source_id: str, nodes: Iterable[DatasetNode]
    ) -> DataSource:
        """Create and register a source from pre-gridded dataset nodes (center grid)."""
        source = DataSource(
            source_id=source_id,
            grid=self.grid,
            leaf_capacity=self.leaf_capacity,
            rebalance=self.rebalance,
        )
        source.load_nodes(nodes)
        self.center.register_source(source)
        return source

    def source_ids(self) -> list[str]:
        """IDs of all registered sources."""
        return self.center.source_ids()

    def add_dataset(self, source_id: str, dataset: SpatialDataset) -> None:
        """Incrementally index a new dataset at ``source_id`` and refresh routing."""
        self.center.source(source_id).add_dataset(dataset)
        self.center.refresh_source(source_id)

    def update_dataset(self, source_id: str, dataset: SpatialDataset) -> None:
        """Re-index a changed dataset at ``source_id`` and refresh routing."""
        self.center.source(source_id).update_dataset(dataset)
        self.center.refresh_source(source_id)

    def remove_dataset(self, source_id: str, dataset_id: str) -> None:
        """Remove a dataset from ``source_id`` and refresh routing."""
        self.center.source(source_id).remove_dataset(dataset_id)
        self.center.refresh_source(source_id)

    def dataset_counts(self) -> Mapping[str, int]:
        """Number of datasets held by each registered source."""
        return {
            source_id: self.center.source(source_id).dataset_count()
            for source_id in self.center.source_ids()
        }

    # ------------------------------------------------------------------ #
    # Query construction
    # ------------------------------------------------------------------ #
    def query_from_points(
        self, coordinates: Sequence[Sequence[float]], query_id: str = "query"
    ) -> DatasetNode:
        """Grid a raw point collection into a query node under the center grid."""
        dataset = SpatialDataset.from_coordinates(query_id, coordinates)
        return dataset.to_node(self.grid)

    def query_from_dataset(self, dataset: SpatialDataset) -> DatasetNode:
        """Grid an existing :class:`SpatialDataset` into a query node."""
        return dataset.to_node(self.grid)

    # ------------------------------------------------------------------ #
    # Search entry points
    # ------------------------------------------------------------------ #
    def overlap_search(self, query: DatasetNode, k: int) -> OverlapResult:
        """Multi-source OJSP: the k datasets with maximum overlap with ``query``."""
        return self.center.overlap_search(query, k)

    def coverage_search(self, query: DatasetNode, k: int, delta: float) -> CoverageResult:
        """Multi-source CJSP: maximise coverage with at most ``k`` connected datasets."""
        return self.center.coverage_search(query, k, delta)

    # ------------------------------------------------------------------ #
    # Communication accounting
    # ------------------------------------------------------------------ #
    def communication_stats(self) -> ChannelStats:
        """Snapshot of the traffic exchanged so far."""
        return self.channel.snapshot()

    def transmission_time_ms(self) -> float:
        """Simulated transmission time implied by the traffic so far."""
        return self.channel.transmission_time_ms()

    def reset_communication_stats(self) -> None:
        """Zero the traffic counters (used between benchmark repetitions)."""
        self.channel.reset()
