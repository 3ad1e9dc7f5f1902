"""Figs. 13-14: OJSP communication cost (bytes) and transmission time vs q."""

from __future__ import annotations

from conftest import FIGURES, run_figure

from repro.bench.reporting import format_table


def test_fig13_fig14_sweep(benchmark):
    """Regenerate Figs. 13-14: the DITS distribution strategy ships fewer bytes."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig13",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Figs. 13-14: OJSP communication bytes and transmission time vs q"))

    for q in FIGURES["fig13"].kwargs["q_values"]:
        at_q = {row["method"]: row for row in rows if row["q"] == q}
        optimised = at_q["OverlapSearch"]
        broadcast = at_q["Broadcast"]
        # Fig. 13: fewer bytes with candidate routing + query clipping.
        assert optimised["bytes"] <= broadcast["bytes"], q
        # Fig. 14: transmission time follows the byte count.
        assert optimised["transmission_ms"] <= broadcast["transmission_ms"], q

    # Bytes grow with the number of queries for both strategies.
    for method in ("OverlapSearch", "Broadcast"):
        series = [row["bytes"] for row in rows if row["method"] == method]
        assert series == sorted(series), method
