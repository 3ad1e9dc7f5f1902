"""Fig. 12: OJSP search time of OverlapSearch vs the R-tree as the leaf capacity f grows."""

from __future__ import annotations

from conftest import FIGURES, run_figure, timings_by_method

from repro.bench.reporting import format_table


def test_fig12_sweep(benchmark):
    """Regenerate Fig. 12: OverlapSearch beats the R-tree across leaf capacities."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig12",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 12: OJSP time (ms) vs leaf capacity f"))

    totals = timings_by_method(rows)
    assert set(totals) == {"OverlapSearch", "Rtree"}
    assert totals["OverlapSearch"] <= totals["Rtree"]

    # OverlapSearch must remain competitive at every single capacity, not
    # just in aggregate (the paper: a slight increase with f, still winning).
    for capacity in FIGURES["fig12"].kwargs["values"]:
        at_capacity = {row["method"]: row["time_ms"] for row in rows if row["f"] == capacity}
        assert at_capacity["OverlapSearch"] <= at_capacity["Rtree"] * 1.3, capacity
