"""Fig. 17: CJSP search time as the number of queries q grows."""

from __future__ import annotations

from conftest import run_figure, timings_by_method

from repro.bench.reporting import format_table


def test_fig17_sweep(benchmark):
    """Regenerate Fig. 17: workload time grows with q, CoverageSearch stays fastest."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig17",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 17: CJSP time (ms) vs q"))

    totals = timings_by_method(rows)
    assert totals["CoverageSearch"] == min(totals.values())
    assert totals["SG+DITS"] <= totals["SG"]

    for method in totals:
        series = [row["time_ms"] for row in rows if row["method"] == method]
        assert series[-1] > series[0] * 0.9, method
