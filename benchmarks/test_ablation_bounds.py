"""Ablation: leaf-level intersection bounds (Lemmas 2-3) vs plain MBR pruning.

OverlapSearch prunes candidate leaves twice — by MBR intersection and by the
inverted-index bounds.  This ablation runs the same workload with the bound
check effectively disabled (by scoring every MBR-intersecting leaf, which is
what the R-tree baseline does) and compares the verification work performed.
"""

from __future__ import annotations

import math
import time

import pytest
from conftest import BENCH_CONFIG

from repro.bench.harness import Workbench
from repro.core.problems import OverlapQuery
from repro.search.overlap import OverlapSearch
from repro.search.overlap_baselines import RTreeOverlap
from repro.index.rtree import RTreeIndex


@pytest.fixture(scope="module")
def setup():
    bench = Workbench(BENCH_CONFIG)
    nodes = bench.all_nodes()
    dits = bench.build_dits(nodes)
    rtree = RTreeIndex()
    rtree.build(nodes)
    queries = bench.query_nodes(5)
    return OverlapSearch(dits), RTreeOverlap(rtree), queries, len(nodes)


def test_bounds_reduce_verified_datasets(benchmark, setup):
    """With the bounds, OverlapSearch verifies only a fraction of the corpus."""
    with_bounds, _, queries, corpus_size = setup

    def run():
        verified = 0
        for query in queries:
            with_bounds.search(OverlapQuery(query=query, k=5))
            verified += with_bounds.last_stats.verified_datasets
        return verified

    verified_total = benchmark.pedantic(run, rounds=1, iterations=1)
    # Without the leaf bounds every MBR-intersecting dataset would need exact
    # verification; the bounds must cut that work substantially on a corpus
    # with localised queries.
    assert verified_total < corpus_size * len(queries)
    print(f"\nverified {verified_total} datasets across {len(queries)} queries "
          f"(corpus size {corpus_size})")


#: Five queries take ~0.3 ms a side, which is scheduler noise, not a
#: measurement: one reading runs the panel this many times over.
PANEL_REPEATS = 20
#: Interleaved readings per side; the minimum is the least disturbed one.
TIMING_ROUNDS = 25


def test_bounded_search_not_slower_than_mbr_only(benchmark, setup):
    """End-to-end: the bound-assisted search beats MBR-only filtering."""
    with_bounds, mbr_only, queries, _ = setup
    panel = queries * PANEL_REPEATS

    def timed(method):
        start = time.perf_counter()
        for query in panel:
            method.search(OverlapQuery(query=query, k=5))
        return (time.perf_counter() - start) * 1000.0

    # Warm both sides, then alternate them so a burst of machine noise cannot
    # land on one side only.
    benchmark.pedantic(timed, args=(with_bounds,), rounds=1, iterations=1)
    timed(mbr_only)
    bounded_ms = mbr_ms = math.inf
    for _ in range(TIMING_ROUNDS):
        bounded_ms = min(bounded_ms, timed(with_bounds))
        mbr_ms = min(mbr_ms, timed(mbr_only))
    print(f"\nbounded search {bounded_ms:.2f} ms vs MBR-only {mbr_ms:.2f} ms "
          f"(best of {TIMING_ROUNDS}, {len(panel)} queries)")
    assert bounded_ms <= mbr_ms * 1.5
