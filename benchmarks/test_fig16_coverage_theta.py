"""Fig. 16: CJSP search time as the grid resolution theta grows."""

from __future__ import annotations

from conftest import run_figure, timings_by_method

from repro.bench.reporting import format_table


def test_fig16_sweep(benchmark):
    """Regenerate Fig. 16: all methods slow down with theta, CoverageSearch wins."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig16",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 16: CJSP time (ms) vs theta"))

    totals = timings_by_method(rows)
    assert totals["CoverageSearch"] == min(totals.values())
    assert totals["SG+DITS"] <= totals["SG"]

    # The plain greedy baseline pays for pairwise coverage computation and
    # must grow as the resolution (and therefore cell-set size) grows.
    sg_series = [row["time_ms"] for row in rows if row["method"] == "SG"]
    assert sg_series[-1] >= sg_series[0] * 0.8
