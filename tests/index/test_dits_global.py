"""Tests for the DITS-G global index over source summaries."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidParameterError, SourceNotFoundError
from repro.core.geometry import BoundingBox
from repro.index.dits_global import SourceSummary, build_summary_tree
from repro.index.dits_global_sharded import ShardedDITSGlobalIndex, ShardPolicy


def summary(source_id: str, min_x, min_y, max_x, max_y, count=10) -> SourceSummary:
    return SourceSummary(
        source_id=source_id, rect=BoundingBox(min_x, min_y, max_x, max_y), dataset_count=count
    )


class TestRegistration:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            ShardedDITSGlobalIndex(leaf_capacity=0)

    def test_register_and_lookup(self):
        index = ShardedDITSGlobalIndex()
        index.register(summary("s1", 0, 0, 10, 10))
        assert "s1" in index
        assert len(index) == 1
        assert index.summary_of("s1").dataset_count == 10

    def test_register_all(self):
        index = ShardedDITSGlobalIndex()
        index.register_all([summary("a", 0, 0, 1, 1), summary("b", 5, 5, 6, 6)])
        assert index.source_ids() == ["a", "b"]

    def test_register_refreshes_existing(self):
        index = ShardedDITSGlobalIndex()
        index.register(summary("s1", 0, 0, 10, 10, count=5))
        index.register(summary("s1", 0, 0, 20, 20, count=8))
        assert len(index) == 1
        assert index.summary_of("s1").dataset_count == 8

    def test_unregister(self):
        index = ShardedDITSGlobalIndex()
        index.register(summary("s1", 0, 0, 10, 10))
        index.unregister("s1")
        assert "s1" not in index
        with pytest.raises(SourceNotFoundError):
            index.unregister("s1")

    def test_len_tracks_registration(self):
        index = ShardedDITSGlobalIndex(ShardPolicy(shard_count=3))
        assert not index
        index.register_all([summary("a", 0, 0, 1, 1), summary("b", 40, 40, 41, 41)])
        index.register(summary("a", 0, 0, 2, 2))
        assert len(index) == 2
        index.unregister("a")
        assert len(index) == 1
        index.unregister("b")
        assert len(index) == 0
        assert not index

    def test_unknown_summary_lookup(self):
        index = ShardedDITSGlobalIndex()
        with pytest.raises(SourceNotFoundError):
            index.summary_of("missing")


class TestTreeStructure:
    def test_tree_splits_when_over_capacity(self):
        summaries = [summary(f"s{i}", i * 10, 0, i * 10 + 5, 5) for i in range(6)]
        root = build_summary_tree(summaries, leaf_capacity=2)
        assert not root.is_leaf()
        leaves, stack = [], [root]
        while stack:
            node = stack.pop()
            if node.is_leaf():
                leaves.append(node)
            stack.extend(node.children)
        assert all(len(leaf.summaries) <= 2 for leaf in leaves)
        assert sorted(s.source_id for leaf in leaves for s in leaf.summaries) == [
            s.source_id for s in summaries
        ]

    def test_single_source_is_leaf_root(self):
        only = summary("only", 0, 0, 1, 1)
        root = build_summary_tree([only], leaf_capacity=2)
        assert root.is_leaf()
        assert root.summaries == [only]


class TestCandidateSelection:
    def build(self) -> ShardedDITSGlobalIndex:
        index = ShardedDITSGlobalIndex(leaf_capacity=2)
        index.register_all(
            [
                summary("west", 0, 0, 10, 10),
                summary("middle", 20, 0, 30, 10),
                summary("east", 50, 0, 60, 10),
            ]
        )
        return index

    def test_intersecting_sources_are_candidates(self):
        index = self.build()
        candidates = index.candidate_sources(BoundingBox(5, 5, 25, 8))
        assert [c.source_id for c in candidates] == ["middle", "west"]

    def test_disjoint_query_yields_nothing_with_zero_delta(self):
        index = self.build()
        assert index.candidate_sources(BoundingBox(40, 20, 45, 25)) == []

    def test_delta_extends_reach(self):
        index = self.build()
        # The query sits 5 units east of "east"; a 10-unit threshold reaches it.
        candidates = index.candidate_sources(BoundingBox(65, 0, 66, 1), delta_geo=10.0)
        assert "east" in [c.source_id for c in candidates]

    def test_empty_index_returns_no_candidates(self):
        index = ShardedDITSGlobalIndex()
        assert index.candidate_sources(BoundingBox(0, 0, 1, 1)) == []

    def test_all_summaries_iterates_everything(self):
        index = self.build()
        assert [s.source_id for s in index.all_summaries()] == ["east", "middle", "west"]

    def test_candidates_subset_of_all_sources(self):
        index = self.build()
        candidates = index.candidate_sources(BoundingBox(0, 0, 100, 100), delta_geo=5.0)
        assert {c.source_id for c in candidates} <= set(index.source_ids())
        assert len(candidates) == 3


class TestLazyRebuilds:
    """Mutations must not reconstruct the tree; the next query does, once."""

    def build_queryable(self) -> ShardedDITSGlobalIndex:
        index = ShardedDITSGlobalIndex(
            ShardPolicy(shard_count=1, defer_rebuild=True), leaf_capacity=2
        )
        index.register_all([summary(f"s{i}", i * 10, 0, i * 10 + 5, 5) for i in range(8)])
        return index

    def test_registration_burst_costs_one_rebuild(self):
        index = self.build_queryable()
        assert index.rebuild_count == 0
        index.candidate_sources(BoundingBox(0, 0, 100, 10))
        assert index.rebuild_count == 1
        # Clean index: further queries reuse the tree.
        index.candidate_sources(BoundingBox(0, 0, 100, 10))
        index.candidate_sources(BoundingBox(2, 2, 3, 3), delta_geo=4.0)
        assert index.node_count() > 1
        assert index.rebuild_count == 1

    def test_unregister_rebuilds_lazily_on_next_query(self):
        index = self.build_queryable()
        index.candidate_sources(BoundingBox(0, 0, 100, 10))
        assert index.rebuild_count == 1
        index.unregister("s3")
        index.unregister("s5")
        assert index.rebuild_count == 1  # nothing rebuilt yet
        hits = index.candidate_sources(BoundingBox(0, 0, 100, 10))
        assert index.rebuild_count == 2  # both removals amortised into one
        assert "s3" not in [s.source_id for s in hits]
        assert len(hits) == 6

    def test_interleaved_churn_counts_one_rebuild_per_query(self):
        index = self.build_queryable()
        for round_no in range(3):
            index.register(summary(f"extra{round_no}", 200 + round_no, 0, 201 + round_no, 1))
            index.unregister(f"s{round_no}")
            index.candidate_sources(BoundingBox(0, 0, 300, 10))
            assert index.rebuild_count == round_no + 1

    def test_registry_reads_do_not_rebuild(self):
        index = self.build_queryable()
        assert index.source_ids()
        assert index.summary_of("s0").dataset_count == 10
        assert len(index) == 8
        assert "s1" in index
        assert list(index.all_summaries())
        assert index.rebuild_count == 0


class TestSourceSummary:
    def test_derived_quantities(self):
        s = summary("s", 0, 0, 4, 3)
        assert s.pivot.as_tuple() == (2.0, 1.5)
        assert s.radius == pytest.approx(2.5)

    def test_wire_payload(self):
        s = summary("s", 0, 0, 4, 3, count=7)
        payload = s.wire_payload()
        assert payload["source"] == "s"
        assert payload["count"] == 7
        assert len(payload["rect"]) == 4
