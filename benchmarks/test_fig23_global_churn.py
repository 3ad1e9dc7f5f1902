"""Fig. 23 (repo extension): DITS-G registration churn and pruning latency.

The paper stops at five portals; the data center targets thousands of
registered sources under churn.  This sweep times bulk registration,
interleaved unregister/register/query churn and candidate pruning for the
summary table against the paper's single DITS-G tree, rebuilt on the first
query after a change (``one-tree``), and asserts the two properties the
design promises: ordered candidate parity (identical checksums) and a large
churn-cost reduction at federation scale.
"""

from __future__ import annotations

from conftest import FIGURES, run_figure

from repro.bench.reporting import format_table

SOURCE_COUNTS = FIGURES["fig23"].kwargs["source_counts"]


def test_fig23_sweep(benchmark):
    """Regenerate Fig. 23 and check parity plus the churn speedup."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig23",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 23: DITS-G churn / pruning, one tree vs table"))

    by_count = {
        sources: {row["variant"]: row for row in rows if row["sources"] == sources}
        for sources in SOURCE_COUNTS
    }

    for sources, variants in by_count.items():
        # Bit-identical candidates: both variants answer every probe query
        # with the same ordered source list.
        checksums = {row["checksum"] for row in variants.values()}
        assert len(checksums) == 1, f"candidate mismatch at {sources} sources"

    # Churn cost: the table must beat the one-tree baseline by a wide margin
    # once the federation is large.
    for sources in SOURCE_COUNTS:
        if sources < 1000:
            continue
        tree_ms = by_count[sources]["one-tree"]["churn_ms"]
        table_ms = by_count[sources]["table"]["churn_ms"]
        assert table_ms * 3 < tree_ms, (
            f"churn at {sources} sources: table {table_ms:.1f}ms vs one tree {tree_ms:.1f}ms"
        )
