"""Fig. 15: CJSP search time of the three methods as k grows."""

from __future__ import annotations

import pytest
from conftest import run_figure, timings_by_method

from repro.bench.experiments import COVERAGE_METHODS, _build_methods
from repro.bench.harness import Workbench
from repro.bench.reporting import format_table
from repro.core.problems import CoverageQuery


def test_fig15_sweep(benchmark):
    """Regenerate Fig. 15 and assert the paper's method ordering."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig15",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 15: CJSP time (ms) vs k"))

    totals = timings_by_method(rows)
    assert set(totals) == set(COVERAGE_METHODS)
    # Paper: CoverageSearch < SG+DITS < SG (up to 26.5x vs plain SG).
    assert totals["CoverageSearch"] == min(totals.values())
    assert totals["SG+DITS"] <= totals["SG"]


@pytest.fixture(scope="module")
def coverage_methods(workbench: Workbench):
    return _build_methods(workbench, COVERAGE_METHODS), workbench.query_nodes(2)


@pytest.mark.parametrize("method_name", COVERAGE_METHODS)
def test_fig15_per_method_default_k(benchmark, coverage_methods, method_name):
    """Per-method benchmark at the default k (cross-section of Fig. 15)."""
    methods, queries = coverage_methods
    method = methods[method_name]

    def run():
        for query in queries:
            method.search(CoverageQuery(query=query, k=5, delta=10.0))

    benchmark(run)
