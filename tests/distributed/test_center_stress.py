"""Thread-safety stress tests for the DITS-G center.

The global index publishes a new summary table on every registration while
queries read the previous one lock-free; these tests race concurrent
``candidate_sources`` calls from several threads against
registration/refresh/unregistration churn, both on the raw index and through
a full :class:`MultiSourceFramework`, and assert that nothing crashes, no
source is lost and the final state answers queries exactly like a freshly
built reference.  Mirrors the serial-vs-parallel
parity harness in ``tests/distributed/test_parallel_dispatch.py``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.geometry import BoundingBox
from repro.data.sources import SOURCE_PROFILES, build_source_datasets
from repro.distributed.executor import ExecutionPolicy
from repro.distributed.framework import MultiSourceFramework
from repro.index.dits_global import DITSGlobalIndex, SourceSummary, summary_may_contain

from summary_oracle import flat_reference

REGION = BoundingBox(-100.0, 20.0, -60.0, 50.0)


def random_summary(rng: np.random.Generator, ident: int) -> SourceSummary:
    cx = rng.uniform(REGION.min_x, REGION.max_x)
    cy = rng.uniform(REGION.min_y, REGION.max_y)
    half = rng.uniform(0.2, 4.0)
    return SourceSummary(
        source_id=f"s{ident:05d}",
        rect=BoundingBox(cx - half, cy - half, cx + half, cy + half),
        dataset_count=int(rng.integers(1, 100)),
    )


def test_raw_index_queries_race_churn():
    """Concurrent candidate_sources vs register/unregister churn on the index."""
    index = DITSGlobalIndex()
    seed_rng = np.random.default_rng(0)
    base = [random_summary(seed_rng, i) for i in range(120)]
    index.register_all(base)

    errors: list[BaseException] = []
    stop = threading.Event()

    def query_loop(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            while not stop.is_set():
                cx = rng.uniform(REGION.min_x, REGION.max_x)
                cy = rng.uniform(REGION.min_y, REGION.max_y)
                rect = BoundingBox(cx - 2, cy - 2, cx + 2, cy + 2)
                found = index.candidate_sources(rect, delta_geo=1.5)
                seen = [c.source_id for c in found]
                # One published table: no source twice, in id order, and
                # every candidate passes the predicate.
                assert seen == sorted(set(seen))
                assert all(
                    summary_may_contain(c.rect, rect, rect.center, rect.radius, 1.5)
                    for c in found
                )
        except BaseException as exc:  # noqa: BLE001 - repanic in main thread
            errors.append(exc)

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    workers = [threading.Thread(target=query_loop, args=(17 + t,)) for t in range(4)]
    for worker in workers:
        worker.start()
    try:
        live = churn(index, [s.source_id for s in base])
    finally:
        stop.set()
        sys.setswitchinterval(previous_interval)
        for worker in workers:
            worker.join(timeout=30)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors[0]

    # Final state must answer exactly the flat predicate over the live summaries.
    assert [s.source_id for s in index.all_summaries()] == sorted(live)
    probe = BoundingBox(REGION.min_x, REGION.min_y, REGION.max_x, REGION.max_y)
    live_summaries = [index.summary_of(source_id) for source_id in live]
    assert index.candidate_sources(probe, 2.0) == flat_reference(live_summaries, probe, 2.0)


def churn(index: DITSGlobalIndex, live: list[str]) -> list[str]:
    """400 seeded unregister/refresh/register steps; returns the live ids."""
    churn_rng = np.random.default_rng(99)
    next_id = 1000
    for _ in range(400):
        op = churn_rng.random()
        if op < 0.35 and len(live) > 20:
            victim = live.pop(int(churn_rng.integers(len(live))))
            index.unregister(victim)
        elif op < 0.65 and live:
            # Refresh with a far-moved rect: row replaces race the
            # concurrent queries.
            victim = live[int(churn_rng.integers(len(live)))]
            moved = random_summary(churn_rng, 0)
            index.register(
                SourceSummary(victim, moved.rect, moved.dataset_count)
            )
        else:
            summary = random_summary(churn_rng, next_id)
            next_id += 1
            live.append(summary.source_id)
            index.register(summary)
    return live


@pytest.mark.parametrize("writers", [2, 4, 8])
def test_concurrent_registrations_lose_nothing(writers):
    """Writers on several threads at once: no publish drops another's rows."""
    index = DITSGlobalIndex()
    index.register_all(random_summary(np.random.default_rng(1), i) for i in range(40))
    errors: list[BaseException] = []

    def writer(offset: int) -> None:
        rng = np.random.default_rng(offset)
        try:
            for i in range(offset, offset + 60):
                index.register(random_summary(rng, i))
                if i % 3 == 0:
                    index.unregister(f"s{i:05d}")
                else:
                    index.register(random_summary(rng, i))  # refresh, moved rect
        except BaseException as exc:  # noqa: BLE001 - repanic in main thread
            errors.append(exc)

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    workers = [threading.Thread(target=writer, args=(1000 * (t + 1),)) for t in range(writers)]
    try:
        for worker in workers:
            worker.start()
    finally:
        for worker in workers:
            worker.join(timeout=60)
        sys.setswitchinterval(previous_interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors[0]

    expected = [f"s{i:05d}" for i in range(40)] + [
        f"s{i:05d}"
        for t in range(writers)
        for i in range(1000 * (t + 1), 1000 * (t + 1) + 60)
        if i % 3
    ]
    summaries = list(index.all_summaries())
    assert [s.source_id for s in summaries] == sorted(expected)
    assert index.rebuild_count == 1 + writers * 60 * 2  # one publish per call, none lost
    probe = BoundingBox(REGION.min_x, REGION.min_y, REGION.max_x, REGION.max_y)
    for delta in (0.0, 2.0):
        assert index.candidate_sources(probe, delta) == flat_reference(summaries, probe, delta)


def _federation_sources(count: int, seed: int):
    names = list(SOURCE_PROFILES)
    for i in range(count):
        profile = SOURCE_PROFILES[names[i % len(names)]]
        yield f"src-{i}", build_source_datasets(
            profile, scale=0.003, seed=seed + i, min_datasets=6
        )


def test_center_queries_race_registrations():
    """Parallel searches keep working while new sources register mid-flight."""
    framework = MultiSourceFramework(
        theta=10,
        execution=ExecutionPolicy(max_workers=6),
    )
    sources = list(_federation_sources(10, seed=41))
    for name, datasets in sources[:4]:
        framework.add_source(name, datasets)

    rng = np.random.default_rng(7)
    profile = SOURCE_PROFILES["Transit"]
    queries = []
    for i in range(6):
        points = np.column_stack(
            [
                rng.uniform(profile.region.min_x, profile.region.max_x, size=30),
                rng.uniform(profile.region.min_y, profile.region.max_y, size=30),
            ]
        )
        queries.append(framework.query_from_points(points.tolist(), query_id=f"q{i}"))

    errors: list[BaseException] = []
    stop = threading.Event()

    def search_loop(offset: int) -> None:
        try:
            while not stop.is_set():
                query = queries[offset % len(queries)]
                result = framework.overlap_search(query, k=4)
                known = set(framework.source_ids())
                assert {e.source_id for e in result.entries} <= known
                coverage = framework.coverage_search(query, k=3, delta=6.0)
                assert {e.source_id for e in coverage.entries} <= known
        except BaseException as exc:  # noqa: BLE001 - repanic in main thread
            errors.append(exc)

    workers = [threading.Thread(target=search_loop, args=(t,)) for t in range(3)]
    for worker in workers:
        worker.start()
    try:
        for name, datasets in sources[4:]:
            framework.add_source(name, datasets)
        for name, _ in sources[:3]:
            framework.center.refresh_source(name)
    finally:
        stop.set()
        for worker in workers:
            worker.join(timeout=60)
    assert not errors, errors[0]

    # After the dust settles, results equal a serial, freshly built center.
    reference = MultiSourceFramework(
        theta=10,
        execution=ExecutionPolicy.serial(),
    )
    for name, datasets in sources:
        reference.add_source(name, datasets)
    for query in queries:
        got = framework.overlap_search(query, k=4)
        want = reference.overlap_search(query, k=4)
        assert [(e.dataset_id, e.score, e.source_id) for e in got.entries] == [
            (e.dataset_id, e.score, e.source_id) for e in want.entries
        ]
    framework.close()
    reference.close()
