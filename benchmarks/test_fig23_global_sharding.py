"""Fig. 23 (repo extension): DITS-G registration churn and pruning latency.

The paper stops at five portals; the sharded center targets thousands of
registered sources under churn.  This sweep regenerates the PR 3 trajectory
figure: bulk registration, interleaved register/unregister churn and
candidate-pruning latency for one shard against many — the baseline,
``sharded-1``, is a single lazily rebuilt tree — and asserts the two
properties the design promises: ordered candidate parity (identical
checksums) and a large rebuild-cost reduction under churn at federation
scale.
"""

from __future__ import annotations

from conftest import FIGURES, run_figure

from repro.bench.reporting import format_table

SOURCE_COUNTS = FIGURES["fig23"].kwargs["source_counts"]
SHARD_COUNTS = FIGURES["fig23"].kwargs["shard_counts"]


def test_fig23_sweep(benchmark):
    """Regenerate Fig. 23 and check parity plus the churn speedup."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig23",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 23: DITS-G churn / pruning vs shard count"))

    by_count = {
        sources: {row["variant"]: row for row in rows if row["sources"] == sources}
        for sources in SOURCE_COUNTS
    }

    for sources, variants in by_count.items():
        # Bit-identical candidates: every variant answers every probe query
        # with the same ordered source list.
        checksums = {row["checksum"] for row in variants.values()}
        assert len(checksums) == 1, f"candidate mismatch at {sources} sources"

    # Rebuild cost under churn: the most-sharded variant must beat the
    # one-shard baseline by a wide margin once the federation is large.  The
    # committed BENCH_PR3.json records ~7-10x; assert a conservative 3x so
    # scheduler noise cannot flake the lane.
    most_sharded = f"sharded-{max(SHARD_COUNTS)}"
    for sources in SOURCE_COUNTS:
        if sources < 1000:
            continue
        single_ms = by_count[sources]["sharded-1"]["churn_ms"]
        sharded_ms = by_count[sources][most_sharded]["churn_ms"]
        assert sharded_ms * 3 < single_ms, (
            f"churn at {sources} sources: sharded {sharded_ms:.1f}ms "
            f"vs one shard {single_ms:.1f}ms"
        )

    # Churn cost scales with shard count: more shards -> smaller rebuilds.
    for sources in SOURCE_COUNTS:
        if sources < 1000:
            continue
        ordered = [by_count[sources][f"sharded-{c}"]["churn_ms"] for c in SHARD_COUNTS]
        assert ordered[-1] <= ordered[0]
