"""Edge-case behaviour of the DITS-G summary table.

The awkward inputs: an empty index, coincident and degenerate summaries,
re-registering an existing source and unregistering the last one.  Every
test runs on a fresh index, on a recycled one, whose table went through
appends, row replaces and swap-removes back to empty, and on a drained one,
bulk-loaded in one call and emptied from the last row down.
"""

from __future__ import annotations

import pytest

from repro.core.errors import SourceNotFoundError
from repro.core.geometry import BoundingBox
from repro.index.dits_global import DITSGlobalIndex, SourceSummary

from summary_oracle import flat_reference


def recycled() -> DITSGlobalIndex:
    index = DITSGlobalIndex()
    index.register_all(summary(f"old{i}", i, i, i + 1, i + 1) for i in range(12))
    for i in (3, 11, 0, 7):
        index.register(summary(f"old{i}", -i, -i, 1 - i, 1 - i))
    for i in (4, 11, 0, 9, 1, 2, 3, 5, 6, 7, 8, 10):
        index.unregister(f"old{i}")
    return index


def drained() -> DITSGlobalIndex:
    index = DITSGlobalIndex()
    index.register_all(summary(f"old{i}", i, 0, i + 1, 1) for i in range(30))
    for i in reversed(range(30)):
        index.unregister(f"old{i}")
    return index


@pytest.fixture(params=["fresh", "recycled", "drained"])
def index(request):
    return {"fresh": DITSGlobalIndex, "recycled": recycled, "drained": drained}[request.param]()


def summary(source_id: str, min_x, min_y, max_x, max_y, count=5) -> SourceSummary:
    return SourceSummary(
        source_id=source_id, rect=BoundingBox(min_x, min_y, max_x, max_y), dataset_count=count
    )


EVERYWHERE = BoundingBox(-180.0, -90.0, 180.0, 90.0)


class TestEmptyIndex:
    def test_no_candidates(self, index):
        assert index.candidate_sources(BoundingBox(0, 0, 1, 1)) == []
        assert index.candidate_sources(BoundingBox(0, 0, 1, 1), delta_geo=50.0) == []

    def test_registry_empty(self, index):
        assert len(index) == 0
        assert list(index.all_summaries()) == []

    def test_unregister_unknown_raises(self, index):
        with pytest.raises(SourceNotFoundError):
            index.unregister("ghost")

    def test_summary_of_unknown_raises(self, index):
        with pytest.raises(SourceNotFoundError):
            index.summary_of("ghost")


class TestLastSource:
    def test_unregister_last_source_empties_index(self, index):
        index.register(summary("only", 0, 0, 2, 2))
        assert index.candidate_sources(BoundingBox(1, 1, 3, 3)) != []
        index.unregister("only")
        assert len(index) == 0
        assert index.candidate_sources(BoundingBox(1, 1, 3, 3)) == []
        # The index remains usable after being emptied.
        index.register(summary("again", 5, 5, 6, 6))
        assert [s.source_id for s in index.candidate_sources(EVERYWHERE)] == ["again"]


class TestReRegistration:
    def test_re_register_updates_in_place(self, index):
        index.register(summary("dup", 0, 0, 1, 1, count=3))
        index.register(summary("dup", 10, 10, 11, 11, count=9))
        assert len(index) == 1
        assert index.summary_of("dup").dataset_count == 9
        # The old region no longer matches; the new one does.
        assert index.candidate_sources(BoundingBox(-1, -1, 2, 2)) == []
        hits = index.candidate_sources(BoundingBox(9, 9, 12, 12))
        assert [s.source_id for s in hits] == ["dup"]

    def test_re_register_same_rect_is_idempotent(self, index):
        s = summary("same", 0, 0, 4, 4)
        index.register(s)
        index.register(s)
        assert len(index) == 1
        assert [c.source_id for c in index.candidate_sources(EVERYWHERE)] == ["same"]


class TestDegenerateDistributions:
    def test_coincident_pivots_all_match(self, index):
        # Identical MBRs registered in reverse id order come back in id order.
        for i in reversed(range(10)):
            index.register(summary(f"stack{i}", 7, 7, 9, 9))
        hits = index.candidate_sources(BoundingBox(8, 8, 8.5, 8.5))
        assert [s.source_id for s in hits] == [f"stack{i}" for i in range(10)]

    def test_far_apart_sources(self, index):
        index.register(summary("b", 50, 50, 51, 51))
        index.register(summary("a", 0, 0, 1, 1))
        hits = index.candidate_sources(EVERYWHERE)
        assert [s.source_id for s in hits] == ["a", "b"]

    def test_delta_reaches_across_empty_space(self, index):
        index.register(summary("west", 0, 0, 1, 1))
        index.register(summary("east", 30, 0, 31, 1))
        near_west = BoundingBox(3, 0, 4, 1)
        assert index.candidate_sources(near_west) == []
        reached = index.candidate_sources(near_west, delta_geo=5.0)
        assert [s.source_id for s in reached] == ["west"]
        both = index.candidate_sources(near_west, delta_geo=40.0)
        assert [s.source_id for s in both] == ["east", "west"]

    def test_matches_flat_reference(self, index):
        # Stacked, touching, degenerate and far-apart summaries, plus a row
        # of summaries probed past its end: the table answers exactly the
        # flat predicate at every threshold.
        summaries = [summary(f"stack{i}", 7, 7, 9, 9) for i in range(4)]
        summaries += [summary("edge", 9, 9, 12, 12), summary("far", 80, -40, 81, -39)]
        summaries += [summary("point", 3, 3, 3, 3)]
        summaries += [summary(f"row{i}", 4 * i, 20, 4 * i + 2, 22) for i in range(6)]
        index.register_all(summaries)
        probes = [BoundingBox(8, 8, 8.5, 8.5), BoundingBox(12, 12, 13, 13), EVERYWHERE]
        probes += [BoundingBox(3, 3, 3, 3), BoundingBox(40, 0, 41, 1)]
        probes += [BoundingBox(25, 21, 25, 21)]
        for rect in probes:
            for delta in (0.0, 1.0, 2.7, 50.0):
                expected = flat_reference(summaries, rect, delta)
                assert index.candidate_sources(rect, delta_geo=delta) == expected, (rect, delta)
