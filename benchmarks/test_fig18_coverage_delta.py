"""Fig. 18: CJSP search time as the connectivity threshold delta grows."""

from __future__ import annotations

from conftest import run_figure, timings_by_method

from repro.bench.reporting import format_table


def test_fig18_sweep(benchmark):
    """Regenerate Fig. 18: more candidates per round as delta grows, CoverageSearch wins."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig18",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 18: CJSP time (ms) vs delta"))

    totals = timings_by_method(rows)
    assert totals["CoverageSearch"] == min(totals.values())
    assert totals["SG+DITS"] <= totals["SG"]

    # A larger delta admits more connected candidates, so the plain greedy
    # baseline must spend at least as much time at the largest threshold as
    # at the smallest.
    sg_series = [row["time_ms"] for row in rows if row["method"] == "SG"]
    assert sg_series[-1] >= sg_series[0] * 0.8
