"""Tests for DataSource and DataCenter behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import SpatialDataset
from repro.core.errors import EmptyDatasetError, SourceNotFoundError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.data.generators import generate_cluster_dataset, generate_route_dataset
from repro.distributed.center import DataCenter, DistributionPolicy
from repro.distributed.channel import SimulatedChannel
from repro.distributed.messages import (
    CoverageRequest,
    CoverageResponse,
    OverlapRequest,
)
from repro.distributed.source import DataSource, grid_rect_to_geo

REGION_WEST = BoundingBox(-77.5, 38.5, -76.5, 39.5)
REGION_EAST = BoundingBox(-70.0, 41.0, -69.0, 42.0)


def make_datasets(region: BoundingBox, count: int, seed: int, prefix: str) -> list[SpatialDataset]:
    rng = np.random.default_rng(seed)
    datasets = []
    for i in range(count):
        if i % 2 == 0:
            datasets.append(generate_route_dataset(f"{prefix}-{i}", region, rng, length=80))
        else:
            datasets.append(generate_cluster_dataset(f"{prefix}-{i}", region, rng, size=80))
    return datasets


@pytest.fixture()
def grid() -> Grid:
    return Grid(theta=12)


@pytest.fixture()
def west_source(grid) -> DataSource:
    source = DataSource("west", grid, leaf_capacity=6)
    source.load_datasets(make_datasets(REGION_WEST, 25, seed=1, prefix="west"))
    return source


@pytest.fixture()
def east_source(grid) -> DataSource:
    source = DataSource("east", grid, leaf_capacity=6)
    source.load_datasets(make_datasets(REGION_EAST, 25, seed=2, prefix="east"))
    return source


class TestDataSource:
    def test_dataset_count(self, west_source):
        assert west_source.dataset_count() == 25

    def test_root_upload_geographic(self, west_source, grid):
        upload = west_source.root_upload()
        geo_rect = BoundingBox(*upload.rect)
        # The uploaded region must cover the generating region's interior.
        assert geo_rect.intersects(REGION_WEST)
        assert upload.dataset_count == 25

    def test_root_upload_requires_data(self, grid):
        empty = DataSource("empty", grid)
        with pytest.raises(EmptyDatasetError):
            empty.root_upload()

    def test_add_and_remove_dataset(self, west_source, grid):
        extra = make_datasets(REGION_WEST, 1, seed=9, prefix="extra")[0]
        west_source.add_dataset(extra)
        assert west_source.dataset_count() == 26
        west_source.remove_dataset(extra.dataset_id)
        assert west_source.dataset_count() == 25

    def test_handle_overlap_returns_local_topk(self, west_source, grid):
        query_node = make_datasets(REGION_WEST, 1, seed=3, prefix="q")[0].to_node(grid)
        request = OverlapRequest(
            query_id="q0",
            cells=np.array(sorted(query_node.cells), dtype=np.int64),
            query_rect=(0, 0, 1, 1),
            k=4,
        )
        response = west_source.handle_overlap(request, grid)
        assert response.source_id == "west"
        assert len(response.results) <= 4
        scores = [score for _, score in response.results]
        assert scores == sorted(scores, reverse=True)

    def test_handle_overlap_empty_cells(self, west_source, grid):
        request = OverlapRequest(
            query_id="q0", cells=np.array([], dtype=np.int64), query_rect=(0, 0, 1, 1), k=3
        )
        assert west_source.handle_overlap(request, grid).results == ()

    def test_handle_coverage_returns_selections_with_cells(self, west_source, grid):
        query_node = make_datasets(REGION_WEST, 1, seed=4, prefix="q")[0].to_node(grid)
        request = CoverageRequest(
            query_id="q1",
            cells=np.array(sorted(query_node.cells), dtype=np.int64),
            query_rect=(0, 0, 1, 1),
            k=3,
            delta=10.0,
        )
        response = west_source.handle_coverage(request, grid)
        assert len(response.selections) <= 3
        for dataset_id, cells in response.selections:
            assert dataset_id in west_source.index
            assert len(cells) > 0
            # A same-grid selection ships the stored node's cached vector.
            assert cells is west_source.index.get(dataset_id).cells_array
            with pytest.raises(ValueError):
                cells[0] = 0

    def test_grid_rect_to_geo_maps_into_space(self, grid):
        rect_geo = grid_rect_to_geo(grid, BoundingBox(0, 0, 10, 10))
        assert rect_geo.min_x == pytest.approx(grid.space.min_x)
        assert rect_geo.max_x > rect_geo.min_x

    def test_different_resolution_source(self, grid):
        coarse = DataSource("coarse", Grid(theta=10), leaf_capacity=4)
        coarse.load_datasets(make_datasets(REGION_WEST, 10, seed=6, prefix="c"))
        query_node = make_datasets(REGION_WEST, 1, seed=7, prefix="q")[0].to_node(grid)
        request = OverlapRequest(
            query_id="q", cells=np.array(sorted(query_node.cells), dtype=np.int64), query_rect=(0, 0, 1, 1), k=3
        )
        response = coarse.handle_overlap(request, grid)
        # Results exist and are expressed as the coarse source's dataset IDs.
        assert all(dataset_id.startswith("c-") for dataset_id, _ in response.results)


class TestDataCenter:
    def test_register_and_lookup(self, grid, west_source, east_source):
        center = DataCenter(grid=grid)
        center.register_source(west_source)
        center.register_source(east_source)
        assert center.source_ids() == ["east", "west"]
        assert center.source("west") is west_source
        with pytest.raises(SourceNotFoundError):
            center.source("north")

    def test_registration_uploads_root_summaries(self, grid, west_source):
        channel = SimulatedChannel()
        center = DataCenter(grid=grid, channel=channel)
        center.register_source(west_source)
        assert channel.stats.bytes_to_center > 0
        assert center.global_index.summary_of("west").source_id == "west"

    def test_overlap_routes_only_to_relevant_source(self, grid, west_source, east_source):
        channel = SimulatedChannel()
        center = DataCenter(grid=grid, channel=channel)
        center.register_source(west_source)
        center.register_source(east_source)
        query = make_datasets(REGION_WEST, 1, seed=8, prefix="q")[0].to_node(grid)
        result = center.overlap_search(query, k=5)
        assert all(entry.source_id == "west" for entry in result)
        # East never receives a query beyond its registration upload.
        east_bytes = channel.stats.per_source_bytes.get("east", 0)
        west_bytes = channel.stats.per_source_bytes.get("west", 0)
        assert west_bytes > east_bytes

    def test_broadcast_policy_contacts_every_source(self, grid, west_source, east_source):
        channel = SimulatedChannel()
        center = DataCenter(
            grid=grid,
            channel=channel,
            policy=DistributionPolicy(route_to_candidates=False, clip_query=False),
        )
        center.register_source(west_source)
        center.register_source(east_source)
        query = make_datasets(REGION_WEST, 1, seed=8, prefix="q")[0].to_node(grid)
        center.overlap_search(query, k=5)
        assert channel.stats.per_source_bytes.get("east", 0) > 0

    def test_clipping_reduces_bytes(self, grid, west_source, east_source):
        def run(policy):
            channel = SimulatedChannel()
            center = DataCenter(grid=grid, channel=channel, policy=policy)
            center.register_source(west_source)
            center.register_source(east_source)
            query = make_datasets(REGION_WEST, 1, seed=8, prefix="q")[0].to_node(grid)
            center.overlap_search(query, k=5)
            return channel.stats.total_bytes

        clipped = run(DistributionPolicy(route_to_candidates=True, clip_query=True))
        broadcast = run(DistributionPolicy(route_to_candidates=False, clip_query=False))
        assert clipped <= broadcast

    def test_coverage_search_aggregates_and_stays_connected(self, grid, west_source, east_source):
        center = DataCenter(grid=grid)
        center.register_source(west_source)
        center.register_source(east_source)
        query = make_datasets(REGION_WEST, 1, seed=9, prefix="q")[0].to_node(grid)
        result = center.coverage_search(query, k=4, delta=10.0)
        assert len(result) <= 4
        assert result.total_coverage >= result.query_coverage
        # All chosen datasets exist in some registered source.
        for entry in result:
            source = center.source(entry.source_id)
            assert entry.dataset_id in source.index

    def test_coverage_results_equal_under_both_policies(self, grid, west_source, east_source):
        query = make_datasets(REGION_WEST, 1, seed=10, prefix="q")[0].to_node(grid)
        results = []
        for policy in (
            DistributionPolicy(route_to_candidates=True, clip_query=True),
            DistributionPolicy(route_to_candidates=False, clip_query=False),
        ):
            center = DataCenter(grid=grid, policy=policy)
            center.register_source(west_source)
            center.register_source(east_source)
            results.append(center.coverage_search(query, k=3, delta=10.0).total_coverage)
        # Clipping keeps the cells relevant to each source, so coverage should
        # not differ by more than rounding at the source boundary.
        assert abs(results[0] - results[1]) <= max(2, 0.05 * results[1])


class RecordingChannel(SimulatedChannel):
    """A channel that keeps every message it carries."""

    def __init__(self) -> None:
        super().__init__()
        self.messages: list[object] = []

    def send(self, message: object, destination: str, to_center: bool = False) -> int:
        self.messages.append(message)
        return super().send(message, destination, to_center)


class TestWireCells:
    """Cells on the wire are sorted, unique, read-only int64 arrays."""

    @pytest.mark.parametrize("clip", [True, False])
    @pytest.mark.parametrize("coarse_theta", [None, 10])
    def test_every_cell_array_on_the_wire_is_read_only(self, grid, west_source, clip, coarse_theta):
        channel = RecordingChannel()
        center = DataCenter(
            grid=grid, channel=channel, policy=DistributionPolicy(clip_query=clip)
        )
        center.register_source(west_source)
        if coarse_theta is not None:
            coarse = DataSource("coarse", Grid(theta=coarse_theta), leaf_capacity=4)
            coarse.load_datasets(make_datasets(REGION_WEST, 10, seed=6, prefix="c"))
            center.register_source(coarse)
        query = make_datasets(REGION_WEST, 1, seed=9, prefix="q")[0].to_node(grid)
        center.overlap_search(query, k=5)
        center.coverage_search(query, k=4, delta=10.0)

        arrays = []
        for message in channel.messages:
            if isinstance(message, (OverlapRequest, CoverageRequest)):
                arrays.append(message.cells)
            elif isinstance(message, CoverageResponse):
                arrays.extend(cells for _, cells in message.selections)
        assert any(isinstance(m, CoverageResponse) and m.selections for m in channel.messages)
        for cells in arrays:
            assert cells.dtype == np.int64 and cells.ndim == 1 and len(cells) > 0
            assert np.all(cells[1:] > cells[:-1])
            with pytest.raises(ValueError):
                cells[0] = 0
        if not clip:
            # The unclipped payload is the query node's own cached vector.
            assert any(cells is query.cells_array for cells in arrays)
        center.close()
