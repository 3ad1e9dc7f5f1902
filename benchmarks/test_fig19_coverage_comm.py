"""Figs. 19-20: CJSP communication cost (bytes) and transmission time vs q."""

from __future__ import annotations

from conftest import FIGURES, run_figure

from repro.bench.reporting import format_table


def test_fig19_fig20_sweep(benchmark):
    """Regenerate Figs. 19-20: the DITS distribution strategy ships fewer bytes."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig19",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Figs. 19-20: CJSP communication bytes and transmission time vs q"))

    for q in FIGURES["fig19"].kwargs["q_values"]:
        at_q = {row["method"]: row for row in rows if row["q"] == q}
        assert at_q["CoverageSearch"]["bytes"] <= at_q["Broadcast"]["bytes"], q
        assert at_q["CoverageSearch"]["transmission_ms"] <= at_q["Broadcast"]["transmission_ms"], q

    for method in ("CoverageSearch", "Broadcast"):
        series = [row["bytes"] for row in rows if row["method"] == method]
        assert series == sorted(series), method
