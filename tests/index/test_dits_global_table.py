"""Differential parity suite: DITS-G must equal the flat predicate bit-for-bit.

For every registration sequence and every query, ``candidate_sources`` must
return *exactly* the ordered list the flat Section VI-A predicate selects
from the live summaries (``summary_oracle.flat_reference``), and the numpy
mask that narrows the table must never drop a row the predicate keeps.
These tests drive the index through seeded random summary sets,
register/refresh/unregister sequences and hypothesis-drawn geometry,
including zero-area rects and summaries on ``math.isclose``'s band.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import _OneSummaryTree
from repro.core.geometry import BoundingBox
from repro.index.dits_global import (
    DITSGlobalIndex,
    SourceSummary,
    _columns_of,
    _may_contain_mask,
    summary_may_contain,
)

from summary_oracle import flat_reference

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


def assert_parity(summaries, index: DITSGlobalIndex, queries, deltas=DELTAS):
    summaries = list(summaries)
    for rect in queries:
        for delta in deltas:
            expected = flat_reference(summaries, rect, delta)
            actual = index.candidate_sources(rect, delta)
            assert ordered_ids(actual) == ordered_ids(expected)
            assert actual == expected  # full summaries, not just IDs


def assert_mask_superset(summaries, rect: BoundingBox, delta: float) -> None:
    """No summary the scalar predicate keeps is dropped by the numpy mask."""
    summaries = list(summaries)
    pivot, radius = rect.center, rect.radius
    mask = _may_contain_mask(_columns_of(summaries), rect, pivot, radius, delta)
    kept = np.array(
        [summary_may_contain(s.rect, rect, pivot, radius, delta) for s in summaries], dtype=bool
    )
    assert not np.any(kept & ~mask)


# ---------------------------------------------------------------------- #
# Seeded differential parity: bulk registration
# ---------------------------------------------------------------------- #
def register_in_one_call(index, summaries):
    index.register_all(summaries)


def register_reversed(index, summaries):
    index.register_all(reversed(summaries))


def register_one_by_one(index, summaries):
    for summary in summaries:
        index.register(summary)


@pytest.mark.parametrize("seed", [3, 17, 29])
@pytest.mark.parametrize("load", [register_in_one_call, register_reversed, register_one_by_one])
def test_bulk_registration_parity(seed, load):
    rng = np.random.default_rng(seed)
    summaries = [random_summary(rng, i) for i in range(80)]
    index = DITSGlobalIndex()
    load(index, summaries)
    assert len(index) == 80
    assert [s.source_id for s in index.all_summaries()] == sorted(s.source_id for s in summaries)
    assert_parity(summaries, index, random_query_rects(rng, 12))


# ---------------------------------------------------------------------- #
# Seeded differential parity: register/refresh/unregister sequences
# ---------------------------------------------------------------------- #
#: (append share, refresh share) of each churn mix; the rest unregisters.
MIXES = {"balanced": (0.55, 0.25), "refresh-heavy": (0.4, 0.5), "remove-heavy": (0.45, 0.1)}


@pytest.mark.parametrize("seed", [5, 23])
@pytest.mark.parametrize("mix", sorted(MIXES))
def test_churn_sequence_parity(seed, mix):
    appends, refreshes = MIXES[mix]
    rng = np.random.default_rng(seed)
    index = DITSGlobalIndex()
    live: dict[str, SourceSummary] = {}
    next_id = 0
    queries = random_query_rects(rng, 4)
    for step in range(120):
        op = rng.random()
        if op < appends or not live:
            summary = random_summary(rng, next_id)
            next_id += 1
            live[summary.source_id] = summary
            index.register(summary)
        elif op < appends + refreshes:
            # Refresh an existing source with a brand-new rect.
            victim = list(live)[int(rng.integers(len(live)))]
            refreshed = SourceSummary(
                source_id=victim,
                rect=random_summary(rng, 0).rect,
                dataset_count=int(rng.integers(1, 500)),
            )
            live[victim] = refreshed
            index.register(refreshed)
        else:
            victim = list(live)[int(rng.integers(len(live)))]
            del live[victim]
            index.unregister(victim)
        if step % 15 == 0:
            assert_parity(live.values(), index, queries)
    assert [s.source_id for s in index.all_summaries()] == sorted(live)
    assert list(index.all_summaries()) == [live[source_id] for source_id in sorted(live)]
    assert_parity(live.values(), index, random_query_rects(rng, 10))


# ---------------------------------------------------------------------- #
# The mask and the copy-on-write table, directly
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("delta", [0.0, 1e-9, 0.75, 12.0, 500.0])
def test_mask_is_a_superset_of_the_predicate(seed, delta):
    rng = np.random.default_rng(100 + seed)
    summaries = [random_summary(rng, i) for i in range(60)]
    for rect in random_query_rects(rng, 8):
        assert_mask_superset(summaries, rect, delta)


def summaries_in_index(index: DITSGlobalIndex) -> list[SourceSummary]:
    return list(index.all_summaries())


@pytest.mark.parametrize(
    "mutate",
    [
        lambda index: index.register(SourceSummary("new", BoundingBox(0, 0, 1, 1), 1)),
        lambda index: index.register(SourceSummary("s0002", BoundingBox(0, 0, 1, 1), 1)),
        lambda index: index.unregister("s0002"),
    ],
    ids=["append", "replace", "swap-remove"],
)
def test_published_table_never_changes(mutate):
    """A table a query took stays as it was: every change publishes a new one."""
    rng = np.random.default_rng(8)
    index = DITSGlobalIndex()
    index.register_all(random_summary(rng, i) for i in range(6))
    rows, columns = index._rows, index._columns
    frozen = columns.copy()
    before = summaries_in_index(index)
    mutate(index)
    assert not columns.flags.writeable
    assert np.array_equal(columns, frozen)
    assert sorted(rows, key=lambda s: s.source_id) == before
    assert index._columns is not columns


@pytest.mark.parametrize(
    "batch, expected",
    [
        # A new id twice in one call: one row, the last summary wins.
        (["a:1", "a:2"], {"a": 2, "s0000": 1, "s0001": 1}),
        # A replace and an append in one call.
        (["s0001:5", "b:3"], {"b": 3, "s0000": 1, "s0001": 5}),
        # An existing id twice in one call.
        (["s0000:7", "s0000:8"], {"s0000": 8, "s0001": 1}),
    ],
)
def test_register_all_batch(batch, expected):
    index = DITSGlobalIndex()
    index.register_all(
        SourceSummary(f"s{i:04d}", BoundingBox(i, i, i + 1, i + 1), 1) for i in range(2)
    )
    summaries = []
    for entry in batch:
        source_id, count = entry.split(":")
        x = float(count)
        summaries.append(SourceSummary(source_id, BoundingBox(x, 10, x + 1, 11), int(count)))
    index.register_all(summaries)
    assert index.rebuild_count == 2
    assert {s.source_id: s.dataset_count for s in index.all_summaries()} == expected
    everything = BoundingBox(-100, -100, 100, 100)
    assert index.candidate_sources(everything) == summaries_in_index(index)
    for s in index.all_summaries():
        assert index.candidate_sources(s.rect) == flat_reference(
            summaries_in_index(index), s.rect, 0.0
        )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("delta", [0.0, 0.75, 12.0])
def test_fig23_one_tree_baseline_matches_flat_reference(seed, delta):
    """Fig. 23's one-tree baseline answers the flat predicate, like the table."""
    rng = np.random.default_rng(seed)
    summaries = [random_summary(rng, i) for i in range(90)]
    tree = _OneSummaryTree()
    tree.register_all(summaries)
    for victim in range(0, 90, 7):
        tree.unregister(f"s{victim:04d}")
    live = [s for i, s in enumerate(summaries) if i % 7]
    for rect in random_query_rects(rng, 10):
        assert tree.candidate_sources(rect, delta) == flat_reference(live, rect, delta)


# ---------------------------------------------------------------------- #
# Hypothesis: arbitrary churn and float geometry cannot break parity
# ---------------------------------------------------------------------- #
coord = st.floats(min_value=-179.0, max_value=179.0, allow_nan=False, width=32)
extent = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0, allow_nan=False, width=32))
NAMES = tuple(f"h{i:02d}" for i in range(12))


@st.composite
def rects(draw) -> BoundingBox:
    x, y, w, h = draw(coord), draw(coord), draw(extent), draw(extent)
    return BoundingBox(x, y - h, x + w, y)


@st.composite
def band_rects(draw, query: BoundingBox, delta: float) -> BoundingBox:
    """A point summary whose predicate bound sits on the ``math.isclose`` band.

    Its lower bound is ``delta * (1 + offset)``: inside the band it passes
    only through ``math.isclose``, past it the predicate rejects it.
    """
    angle = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
    offset = draw(st.sampled_from((-2e-9, -5e-10, 0.0, 5e-10, 9e-10, 2e-9, 1e-7)))
    reach = delta * (1 + offset) + query.radius
    x = query.center.x + reach * math.cos(angle)
    y = query.center.y + reach * math.sin(angle)
    return BoundingBox(x, y, x, y)


@st.composite
def churn_cases(draw):
    """A query, a positive delta and a register/refresh/unregister sequence."""
    query = draw(rects())
    delta = draw(st.floats(min_value=0.1, max_value=30.0, allow_nan=False))
    ops: list[tuple[str, str, BoundingBox | None]] = []
    live: set[str] = set()
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        if live and draw(st.integers(0, 4)) == 0:
            victim = draw(st.sampled_from(sorted(live)))
            live.discard(victim)
            ops.append(("unregister", victim, None))
            continue
        # Registering a live name refreshes it with a moved rect.
        name = draw(st.sampled_from(NAMES))
        rect = draw(st.one_of(rects(), band_rects(query, delta)))
        live.add(name)
        ops.append(("register", name, rect))
    return query, delta, ops


@given(case=churn_cases())
@settings(max_examples=80, deadline=None)
def test_property_table_equals_flat_reference(case):
    query, delta, ops = case
    index = DITSGlobalIndex()
    live: dict[str, SourceSummary] = {}
    for op, source_id, rect in ops:
        if op == "unregister":
            del live[source_id]
            index.unregister(source_id)
        else:
            live[source_id] = SourceSummary(source_id, rect, dataset_count=1)
            index.register(live[source_id])
        for threshold in (0.0, delta):
            assert index.candidate_sources(query, threshold) == flat_reference(
                live.values(), query, threshold
            )
            assert_mask_superset(live.values(), query, threshold)
    assert [s.source_id for s in index.all_summaries()] == sorted(live)
