"""End-to-end tests for the multi-source framework.

The key integration invariant: multi-source OJSP must return exactly the same
top-k ``(dataset_id, score)`` pairs as a single-machine brute force over the
union of all sources,
and multi-source CJSP must return a connected selection whose coverage is
consistent with the selected datasets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.connectivity import satisfies_spatial_connectivity
from repro.core.dataset import SpatialDataset
from repro.core.geometry import BoundingBox
from repro.core.problems import brute_force_overlap
from repro.data.generators import generate_cluster_dataset, generate_route_dataset
from repro.distributed.center import DistributionPolicy
from repro.distributed.framework import MultiSourceFramework

REGION_A = BoundingBox(-77.5, 38.5, -76.5, 39.5)
REGION_B = BoundingBox(-77.0, 38.8, -76.0, 39.8)  # overlaps REGION_A
REGION_FAR = BoundingBox(100.0, 10.0, 101.0, 11.0)


def make_datasets(region: BoundingBox, count: int, seed: int, prefix: str) -> list[SpatialDataset]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if i % 2 == 0:
            out.append(generate_route_dataset(f"{prefix}-{i}", region, rng, length=60))
        else:
            out.append(generate_cluster_dataset(f"{prefix}-{i}", region, rng, size=60))
    return out


@pytest.fixture()
def framework() -> MultiSourceFramework:
    fw = MultiSourceFramework(theta=12, leaf_capacity=6)
    fw.add_source("alpha", make_datasets(REGION_A, 20, seed=1, prefix="alpha"))
    fw.add_source("beta", make_datasets(REGION_B, 20, seed=2, prefix="beta"))
    fw.add_source("gamma", make_datasets(REGION_FAR, 15, seed=3, prefix="gamma"))
    return fw


class TestSetup:
    def test_sources_registered(self, framework):
        assert framework.source_ids() == ["alpha", "beta", "gamma"]
        counts = framework.dataset_counts()
        assert counts["alpha"] == 20 and counts["gamma"] == 15

    def test_query_from_points(self, framework):
        query = framework.query_from_points([(-77.0, 39.0), (-77.01, 39.01)])
        assert query.coverage >= 1

    def test_registration_traffic_counted(self, framework):
        stats = framework.communication_stats()
        assert stats.bytes_to_center > 0
        assert stats.messages_sent >= 3


class TestMultiSourceOverlap:
    def test_matches_union_brute_force(self, framework):
        all_nodes = []
        for source_id in framework.source_ids():
            all_nodes.extend(framework.center.source(source_id).index.nodes())
        queries = make_datasets(REGION_A, 3, seed=9, prefix="q")
        for dataset in queries:
            query = framework.query_from_dataset(dataset)
            fast = framework.overlap_search(query, k=5)
            exact = brute_force_overlap(query, all_nodes, k=5)
            fast_positive = [(e.dataset_id, e.score) for e in fast if e.score > 0]
            exact_positive = [(e.dataset_id, e.score) for e in exact if e.score > 0]
            assert fast_positive == exact_positive

    def test_results_identify_owning_source(self, framework):
        query = framework.query_from_dataset(make_datasets(REGION_A, 1, seed=11, prefix="q")[0])
        result = framework.overlap_search(query, k=5)
        for entry in result:
            assert entry.source_id in framework.source_ids()
            source = framework.center.source(entry.source_id)
            assert entry.dataset_id in source.index

    def test_far_away_source_not_in_results(self, framework):
        query = framework.query_from_dataset(make_datasets(REGION_A, 1, seed=12, prefix="q")[0])
        result = framework.overlap_search(query, k=10)
        assert all(not entry.dataset_id.startswith("gamma") for entry in result)


class TestMultiSourceCoverage:
    def test_selection_connected_and_consistent(self, framework):
        query = framework.query_from_dataset(make_datasets(REGION_A, 1, seed=13, prefix="q")[0])
        result = framework.coverage_search(query, k=5, delta=10.0)
        assert len(result) <= 5
        chosen_nodes = [query]
        covered = set(query.cells)
        for entry in result:
            source = framework.center.source(entry.source_id)
            node = source.index.get(entry.dataset_id)
            chosen_nodes.append(node)
            covered |= node.cells
        assert result.total_coverage == len(covered)
        assert satisfies_spatial_connectivity(chosen_nodes, delta=10.0)

    def test_coverage_never_below_query(self, framework):
        query = framework.query_from_dataset(make_datasets(REGION_A, 1, seed=14, prefix="q")[0])
        result = framework.coverage_search(query, k=3, delta=5.0)
        assert result.total_coverage >= result.query_coverage

    def test_larger_k_never_reduces_coverage(self, framework):
        query = framework.query_from_dataset(make_datasets(REGION_A, 1, seed=15, prefix="q")[0])
        small = framework.coverage_search(query, k=1, delta=10.0)
        large = framework.coverage_search(query, k=5, delta=10.0)
        assert large.total_coverage >= small.total_coverage


class TestSingleStoredCellForm:
    """Storing, indexing and searching never build a stored node's ``.cells`` view."""

    def test_queries_and_writes_leave_the_view_unbuilt(self, framework):
        query = framework.query_from_dataset(make_datasets(REGION_A, 1, seed=13, prefix="q")[0])
        assert any(entry.score > 0 for entry in framework.overlap_search(query, k=5))
        assert len(framework.coverage_search(query, k=5, delta=10.0)) > 0
        framework.update_dataset("beta", make_datasets(REGION_B, 1, seed=21, prefix="beta")[0])
        stored = [
            node
            for source_id in framework.source_ids()
            for node in framework.center.source(source_id).index.nodes()
        ]
        assert len(stored) == 55
        assert [node.dataset_id for node in stored if node._cells_view is not None] == []


class TestCommunicationPolicies:
    def build(self, policy: DistributionPolicy) -> MultiSourceFramework:
        fw = MultiSourceFramework(theta=12, leaf_capacity=6, policy=policy)
        fw.add_source("alpha", make_datasets(REGION_A, 15, seed=1, prefix="alpha"))
        fw.add_source("gamma", make_datasets(REGION_FAR, 15, seed=3, prefix="gamma"))
        return fw

    def test_routing_and_clipping_cut_bytes_but_keep_results(self):
        optimised = self.build(DistributionPolicy(route_to_candidates=True, clip_query=True))
        broadcast = self.build(DistributionPolicy(route_to_candidates=False, clip_query=False))
        query_dataset = make_datasets(REGION_A, 1, seed=20, prefix="q")[0]

        optimised.reset_communication_stats()
        broadcast.reset_communication_stats()
        result_a = optimised.overlap_search(optimised.query_from_dataset(query_dataset), k=5)
        result_b = broadcast.overlap_search(broadcast.query_from_dataset(query_dataset), k=5)

        assert [s for s in result_a.scores if s > 0] == [s for s in result_b.scores if s > 0]
        assert optimised.communication_stats().total_bytes < broadcast.communication_stats().total_bytes
        assert optimised.transmission_time_ms() < broadcast.transmission_time_ms()

    def test_reset_communication_stats(self):
        fw = self.build(DistributionPolicy())
        fw.reset_communication_stats()
        assert fw.communication_stats().total_bytes == 0


class TestMixedResolutionSources:
    def test_source_with_coarser_grid_still_searchable(self):
        fw = MultiSourceFramework(theta=12, leaf_capacity=6)
        fw.add_source("fine", make_datasets(REGION_A, 10, seed=30, prefix="fine"))
        fw.add_source("coarse", make_datasets(REGION_A, 10, seed=31, prefix="coarse"), theta=10)
        query = fw.query_from_dataset(make_datasets(REGION_A, 1, seed=32, prefix="q")[0])
        result = fw.overlap_search(query, k=6)
        sources_seen = {entry.source_id for entry in result}
        assert "fine" in sources_seen
        # The coarse source participates too (its datasets cover the region).
        assert "coarse" in sources_seen

    #: CJSP answers (source, dataset, marginal gain), total coverage and channel
    #: bytes recorded from the former per-cell translation; the batch
    #: translation must reproduce them exactly.
    RECORDED_COVERAGE = {
        (12, 10): (
            [("fine", "fine-1", 9.0), ("fine", "fine-2", 8.0), ("fine", "fine-9", 7.0),
             ("fine", "fine-7", 6.0), ("fine", "fine-0", 5.0)],
            40,
            1012,
        ),
        (10, 12): (
            [("fine", "fine-9", 4.0), ("mixed", "mixed-3", 4.0), ("fine", "fine-4", 3.0),
             ("mixed", "mixed-5", 2.0), ("fine", "fine-0", 1.0)],
            16,
            796,
        ),
        (12, 13): (
            [("mixed", "mixed-7", 11.0), ("fine", "fine-1", 9.0), ("mixed", "mixed-1", 9.0),
             ("mixed", "mixed-3", 8.0), ("fine", "fine-2", 6.0)],
            48,
            1212,
        ),
    }

    @pytest.mark.parametrize("thetas", sorted(RECORDED_COVERAGE))
    def test_coverage_search_across_resolutions(self, thetas):
        center_theta, source_theta = thetas
        fw = MultiSourceFramework(theta=center_theta, leaf_capacity=6)
        fw.add_source("fine", make_datasets(REGION_A, 10, seed=30, prefix="fine"))
        fw.add_source(
            "mixed", make_datasets(REGION_A, 10, seed=31, prefix="mixed"), theta=source_theta
        )
        query = fw.query_from_dataset(make_datasets(REGION_A, 1, seed=32, prefix="q")[0])
        fw.reset_communication_stats()
        result = fw.coverage_search(query, k=5, delta=10.0)
        entries, total_coverage, total_bytes = self.RECORDED_COVERAGE[thetas]
        assert [(e.source_id, e.dataset_id, e.score) for e in result] == entries
        assert result.total_coverage == total_coverage
        assert fw.communication_stats().total_bytes == total_bytes
        fw.close()
