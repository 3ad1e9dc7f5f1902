"""Tests for the DITS-G global index: the summary table."""

from __future__ import annotations

import pytest

from repro.core.errors import SourceNotFoundError
from repro.core.geometry import BoundingBox
from repro.index.dits_global import DITSGlobalIndex, SourceSummary


def ids(index: DITSGlobalIndex) -> list[str]:
    return [s.source_id for s in index.all_summaries()]


def summary(source_id: str, min_x, min_y, max_x, max_y, count=10) -> SourceSummary:
    return SourceSummary(
        source_id=source_id, rect=BoundingBox(min_x, min_y, max_x, max_y), dataset_count=count
    )


class TestRegistration:
    def test_register_and_lookup(self):
        index = DITSGlobalIndex()
        index.register(summary("s1", 0, 0, 10, 10))
        assert ids(index) == ["s1"]
        assert len(index) == 1
        assert index.summary_of("s1").dataset_count == 10

    def test_register_all(self):
        index = DITSGlobalIndex()
        index.register_all([summary("a", 0, 0, 1, 1), summary("b", 5, 5, 6, 6)])
        assert ids(index) == ["a", "b"]

    def test_register_refreshes_existing(self):
        index = DITSGlobalIndex()
        index.register(summary("s1", 0, 0, 10, 10, count=5))
        index.register(summary("s1", 0, 0, 20, 20, count=8))
        assert len(index) == 1
        assert index.summary_of("s1").dataset_count == 8

    def test_unregister(self):
        index = DITSGlobalIndex()
        index.register(summary("s1", 0, 0, 10, 10))
        index.unregister("s1")
        assert ids(index) == []
        with pytest.raises(SourceNotFoundError):
            index.unregister("s1")

    def test_len_tracks_registration(self):
        index = DITSGlobalIndex()
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
        index = DITSGlobalIndex()
        with pytest.raises(SourceNotFoundError):
            index.summary_of("missing")


class TestCandidateSelection:
    def build(self) -> DITSGlobalIndex:
        index = DITSGlobalIndex()
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
        index = DITSGlobalIndex()
        assert index.candidate_sources(BoundingBox(0, 0, 1, 1)) == []

    def test_all_summaries_iterates_everything(self):
        index = self.build()
        assert [s.source_id for s in index.all_summaries()] == ["east", "middle", "west"]

    def test_candidates_subset_of_all_sources(self):
        index = self.build()
        candidates = index.candidate_sources(BoundingBox(0, 0, 100, 100), delta_geo=5.0)
        assert {c.source_id for c in candidates} <= set(ids(index))
        assert len(candidates) == 3


class TestPublishes:
    """Each registration call publishes one table; reads publish nothing."""

    def build(self) -> DITSGlobalIndex:
        index = DITSGlobalIndex()
        index.register_all([summary(f"s{i}", i * 10, 0, i * 10 + 5, 5) for i in range(8)])
        return index

    def test_bulk_registration_is_one_publish(self):
        index = self.build()
        assert index.rebuild_count == 1
        index.candidate_sources(BoundingBox(0, 0, 100, 10))
        index.candidate_sources(BoundingBox(2, 2, 3, 3), delta_geo=4.0)
        assert index.rebuild_count == 1

    def test_each_mutation_publishes_once(self):
        index = self.build()
        index.register(summary("s1", 0, 20, 1, 21))  # row replace
        index.register(summary("new", 0, 40, 1, 41))  # append
        index.unregister("s3")  # swap-remove
        assert index.rebuild_count == 4
        hits = index.candidate_sources(BoundingBox(0, 0, 100, 50))
        assert [s.source_id for s in hits] == ["new", "s0", "s1", "s2", "s4", "s5", "s6", "s7"]

    def test_swap_remove_keeps_lookups(self):
        index = self.build()
        index.unregister("s0")  # the last row, s7, moves into row 0
        assert index.summary_of("s7").rect == BoundingBox(70, 0, 75, 5)
        index.register(summary("s7", 70, 0, 76, 6, count=3))
        assert index.summary_of("s7").dataset_count == 3
        assert len(index) == 7
        hits = index.candidate_sources(BoundingBox(75.5, 5.5, 80, 10))
        assert [s.source_id for s in hits] == ["s7"]

    def test_registry_reads_do_not_publish(self):
        index = self.build()
        assert index.summary_of("s0").dataset_count == 10
        assert len(index) == 8
        assert ids(index) == [f"s{i}" for i in range(8)]
        assert index.rebuild_count == 1


class TestSourceSummary:
    def test_derived_quantities(self):
        s = summary("s", 0, 0, 4, 3)
        assert s.pivot.as_tuple() == (2.0, 1.5)
        assert s.radius == pytest.approx(2.5)
