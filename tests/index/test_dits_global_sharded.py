"""Differential parity suite: DITS-G must equal the flat predicate bit-for-bit.

Sharding is a pure scalability device — for every shard count, every churn
sequence and every query, ``candidate_sources`` must return *exactly* the
ordered list the flat Section VI-A predicate selects from the live summaries
(``summary_oracle.flat_reference``).  These tests drive the index through
seeded random summary sets, register/unregister churn sequences and
hypothesis-drawn geometry, and compare every answer with that brute-force
filter.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.core.geometry import BoundingBox
from repro.index.dits_global import SourceSummary
from repro.index.dits_global_sharded import ShardedDITSGlobalIndex, ShardPolicy

from summary_oracle import flat_reference

SHARD_COUNTS = (1, 2, 7, 16)

#: Mixed-scale region: clustered sources plus a few continent-wide ones.
REGION = BoundingBox(-120.0, 10.0, -60.0, 55.0)


def random_summary(rng: np.random.Generator, ident: int) -> SourceSummary:
    """A random source summary; occasionally degenerate (point-like MBR)."""
    cx = rng.uniform(REGION.min_x, REGION.max_x)
    cy = rng.uniform(REGION.min_y, REGION.max_y)
    if rng.random() < 0.1:
        half_w = half_h = 0.0
    elif rng.random() < 0.2:
        half_w, half_h = rng.uniform(10.0, 40.0, size=2)
    else:
        half_w, half_h = rng.uniform(0.1, 3.0, size=2)
    return SourceSummary(
        source_id=f"s{ident:04d}",
        rect=BoundingBox(cx - half_w, cy - half_h, cx + half_w, cy + half_h),
        dataset_count=int(rng.integers(1, 500)),
    )


def random_query_rects(rng: np.random.Generator, count: int) -> list[BoundingBox]:
    rects = []
    for _ in range(count):
        cx = rng.uniform(REGION.min_x - 20, REGION.max_x + 20)
        cy = rng.uniform(REGION.min_y - 20, REGION.max_y + 20)
        half_w, half_h = rng.uniform(0.05, 8.0, size=2)
        rects.append(BoundingBox(cx - half_w, cy - half_h, cx + half_w, cy + half_h))
    return rects


DELTAS = (0.0, 0.75, 12.0)


def ordered_ids(candidates) -> list[str]:
    return [summary.source_id for summary in candidates]


def assert_parity(summaries, sharded: ShardedDITSGlobalIndex, queries):
    for rect in queries:
        for delta in DELTAS:
            expected = flat_reference(summaries, rect, delta)
            actual = sharded.candidate_sources(rect, delta)
            assert ordered_ids(actual) == ordered_ids(expected)
            assert actual == expected  # full summaries, not just IDs


# ---------------------------------------------------------------------- #
# Seeded differential parity: bulk registration
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
@pytest.mark.parametrize("seed", [3, 17])
class TestBulkParity:
    def test_bulk_registration_parity(self, shard_count, seed):
        rng = np.random.default_rng(seed)
        summaries = [random_summary(rng, i) for i in range(80)]
        sharded = ShardedDITSGlobalIndex(
            ShardPolicy(shard_count=shard_count), leaf_capacity=4
        )
        sharded.register_all(summaries)
        assert len(sharded) == 80
        assert sharded.source_ids() == sorted(s.source_id for s in summaries)
        assert_parity(summaries, sharded, random_query_rects(rng, 12))

    def test_deferred_mode_parity(self, shard_count, seed):
        rng = np.random.default_rng(seed + 1000)
        summaries = [random_summary(rng, i) for i in range(40)]
        sharded = ShardedDITSGlobalIndex(
            ShardPolicy(shard_count=shard_count, defer_rebuild=True), leaf_capacity=4
        )
        sharded.register_all(summaries)
        # Deferred mode has not built anything yet.
        assert sharded.rebuild_count == 0
        assert_parity(summaries, sharded, random_query_rects(rng, 8))
        assert sharded.rebuild_count > 0


# ---------------------------------------------------------------------- #
# Seeded differential parity: register/unregister churn sequences
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
@pytest.mark.parametrize("seed", [5, 23])
class TestChurnParity:
    def test_churn_sequence_parity(self, shard_count, seed):
        rng = np.random.default_rng(seed)
        sharded = ShardedDITSGlobalIndex(
            ShardPolicy(shard_count=shard_count), leaf_capacity=4
        )
        live: dict[str, SourceSummary] = {}
        next_id = 0
        queries = random_query_rects(rng, 4)
        for step in range(120):
            op = rng.random()
            if op < 0.55 or not live:
                summary = random_summary(rng, next_id)
                next_id += 1
                live[summary.source_id] = summary
                sharded.register(summary)
            elif op < 0.8:
                # Refresh an existing source with a brand-new rect: the new
                # pivot may migrate it to a different shard.
                victim = list(live)[int(rng.integers(len(live)))]
                refreshed = SourceSummary(
                    source_id=victim,
                    rect=random_summary(rng, 0).rect,
                    dataset_count=int(rng.integers(1, 500)),
                )
                live[victim] = refreshed
                sharded.register(refreshed)
            else:
                victim = list(live)[int(rng.integers(len(live)))]
                del live[victim]
                sharded.unregister(victim)
            if step % 15 == 0:
                assert_parity(live.values(), sharded, queries)
        assert sharded.source_ids() == sorted(live)
        assert sum(sharded.shard_sizes()) == len(live)
        assert_parity(live.values(), sharded, random_query_rects(rng, 10))


# ---------------------------------------------------------------------- #
# Hypothesis: arbitrary float geometry cannot break parity
# ---------------------------------------------------------------------- #
coord = st.floats(min_value=-179.0, max_value=179.0, allow_nan=False, width=32)
extent = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, width=32)


@st.composite
def summary_sets(draw):
    count = draw(st.integers(min_value=1, max_value=24))
    summaries = []
    for i in range(count):
        x, y = draw(coord), draw(coord)
        w, h = draw(extent), draw(extent)
        summaries.append(
            SourceSummary(f"h{i}", BoundingBox(x, y - h, x + w, y), dataset_count=1)
        )
    return summaries


@given(
    summaries=summary_sets(),
    qx=coord,
    qy=coord,
    qw=extent,
    delta=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    shard_count=st.sampled_from(SHARD_COUNTS),
)
@settings(max_examples=40, deadline=None)
def test_property_parity(summaries, qx, qy, qw, delta, shard_count):
    sharded = ShardedDITSGlobalIndex(ShardPolicy(shard_count=shard_count), leaf_capacity=3)
    sharded.register_all(summaries)
    rect = BoundingBox(qx, qy, qx + qw, qy + qw)
    assert sharded.candidate_sources(rect, delta) == flat_reference(summaries, rect, delta)


# ---------------------------------------------------------------------- #
# ShardPolicy behaviour
# ---------------------------------------------------------------------- #
class TestShardPolicy:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            ShardPolicy(shard_count=0)

    def test_single_shard_maps_everything_to_zero(self):
        policy = ShardPolicy(shard_count=1)
        rng = np.random.default_rng(0)
        assert all(policy.shard_of(random_summary(rng, i)) == 0 for i in range(20))

    def test_shards_within_range_and_deterministic(self):
        policy = ShardPolicy(shard_count=7)
        rng = np.random.default_rng(1)
        for i in range(50):
            summary = random_summary(rng, i)
            shard = policy.shard_of(summary)
            assert 0 <= shard < 7
            assert policy.shard_of(summary) == shard

    def test_out_of_space_pivots_are_clamped(self):
        policy = ShardPolicy(shard_count=4)
        far = SourceSummary("far", BoundingBox(500.0, 500.0, 501.0, 501.0), 1)
        assert 0 <= policy.shard_of(far) < 4

    def test_distinct_regions_use_multiple_shards(self):
        policy = ShardPolicy(shard_count=16)
        rng = np.random.default_rng(2)
        shards = {policy.shard_of(random_summary(rng, i)) for i in range(200)}
        assert len(shards) > 1

    def test_pivot_move_migrates_shard(self):
        policy = ShardPolicy(shard_count=16)
        index = ShardedDITSGlobalIndex(policy)
        west = SourceSummary("roam", BoundingBox(-170.0, -80.0, -169.0, -79.0), 1)
        east = SourceSummary("roam", BoundingBox(169.0, 79.0, 170.0, 80.0), 1)
        assert policy.shard_of(west) != policy.shard_of(east)
        index.register(west)
        before = index.shard_of("roam")
        index.register(east)
        after = index.shard_of("roam")
        assert before != after
        assert len(index) == 1
        assert sum(index.shard_sizes()) == 1
        # The old shard no longer answers for the migrated source.
        hits = index.candidate_sources(BoundingBox(-171.0, -81.0, -168.0, -78.0))
        assert hits == []
        hits = index.candidate_sources(BoundingBox(168.0, 78.0, 171.0, 81.0))
        assert ordered_ids(hits) == ["roam"]


# ---------------------------------------------------------------------- #
# Incremental registration: only the touched shard rebuilds
# ---------------------------------------------------------------------- #
class TestIncrementalRebuilds:
    def test_register_touches_single_shard(self):
        rng = np.random.default_rng(9)
        index = ShardedDITSGlobalIndex(ShardPolicy(shard_count=8), leaf_capacity=4)
        index.register_all(random_summary(rng, i) for i in range(64))
        populated = sum(1 for size in index.shard_sizes() if size)
        baseline = index.rebuild_count
        assert baseline == populated  # one build per populated shard
        index.register(random_summary(rng, 1000))
        assert index.rebuild_count == baseline + 1  # exactly one shard rebuilt

    def test_deferred_churn_batches_rebuilds(self):
        rng = np.random.default_rng(10)
        index = ShardedDITSGlobalIndex(
            ShardPolicy(shard_count=8, defer_rebuild=True), leaf_capacity=4
        )
        index.register_all(random_summary(rng, i) for i in range(64))
        for i in range(64, 96):
            index.register(random_summary(rng, i))
        assert index.rebuild_count == 0
        index.candidate_sources(BoundingBox(*REGION.as_tuple()))
        first_query = index.rebuild_count
        assert first_query == sum(1 for size in index.shard_sizes() if size)
        index.candidate_sources(BoundingBox(*REGION.as_tuple()))
        assert index.rebuild_count == first_query  # clean shards stay built
