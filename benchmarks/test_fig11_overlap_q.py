"""Fig. 11: OJSP search time as the number of queries q grows."""

from __future__ import annotations

from conftest import run_figure, timings_by_method

from repro.bench.reporting import format_table


def test_fig11_sweep(benchmark):
    """Regenerate Fig. 11: time grows with q, OverlapSearch leads the filter-verify methods."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig11",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 11: OJSP time (ms) vs q"))

    totals = timings_by_method(rows)
    for method in ("Rtree", "Josie", "QuadTree"):
        assert totals["OverlapSearch"] <= totals[method], method
    assert totals["OverlapSearch"] <= 2.5 * totals["STS3"]

    # Workload time must grow with the number of queries for the slower,
    # scan-dominated methods; the sub-millisecond ones are noise-bound.
    for method in ("QuadTree", "STS3"):
        series = [row["time_ms"] for row in rows if row["method"] == method]
        assert series[-1] > series[0] * 0.9, method
