"""Fig. 24 (repo extension): DITS-L churn — rebalancing vs a skewing tree.

The paper's Appendix IX-C maintenance operations never reshape the tree;
this sweep replays a drifting insert/delete/update stream at 1k-10k datasets
and compares the legacy behaviour (``static``) against the PR-5 rebalancer
(eager and deferred-refit variants) and a freshly rebuilt tree.  Asserted,
per the acceptance criteria:

* **exactness** — every variant answers every probe query bit-identically to
  the freshly rebuilt tree (OJSP and CJSP, canonical tie-breaking);
* **bounded height** — after 1k mutations at 5k datasets a rebalanced tree
  stays within 2x of the bulk-built height, and never taller than the
  never-rebalanced tree;
* **query latency** — the rebalanced churned tree answers the probe workload
  within 1.2x of the freshly rebuilt tree (plus a small absolute guard so a
  sub-millisecond workload cannot flake the lane on scheduler noise).
"""

from __future__ import annotations

from conftest import FIGURES, run_figure

from repro.bench.reporting import format_table

DATASET_COUNTS = FIGURES["fig24"].kwargs["dataset_counts"]
#: Latency criterion: churned-but-rebalanced within this factor of a fresh
#: rebuild.  The absolute floor keeps a sub-ms workload from flaking on
#: scheduler noise.
LATENCY_FACTOR = 1.2
LATENCY_FLOOR_MS = 5.0


def test_fig24_sweep(benchmark):
    """Regenerate Fig. 24 and check exactness, height and latency bounds."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig24",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 24: DITS-L churn / rebalancing"))

    by_count = {
        count: {row["variant"]: row for row in rows if row["datasets"] == count}
        for count in DATASET_COUNTS
    }

    for count, variants in by_count.items():
        assert set(variants) == {"static", "rebalance", "deferred"}
        for label, row in variants.items():
            # Bit-identical OJSP/CJSP answers vs the freshly rebuilt tree,
            # for every variant: exactness is independent of tree shape.
            assert row["checksum"] == row["rebuilt_checksum"], (
                f"{label} at {count} datasets diverged from the rebuilt tree"
            )

        for label in ("rebalance", "deferred"):
            row = variants[label]
            # The alpha-balance invariant keeps the churned tree's height
            # within 2x of a bulk median-split build.
            assert row["height"] <= 2 * row["rebuilt_height"], (
                f"{label} at {count}: height {row['height']} "
                f"vs rebuilt {row['rebuilt_height']}"
            )
            # The rebalancer must actually have worked under this stream.
            assert row["rebalances"] > 0
            # Churned-tree query latency within 1.2x of a fresh rebuild.
            budget = max(
                LATENCY_FACTOR * row["rebuilt_query_ms"],
                row["rebuilt_query_ms"] + LATENCY_FLOOR_MS,
            )
            assert row["query_ms"] <= budget, (
                f"{label} at {count}: query {row['query_ms']:.2f}ms "
                f"vs rebuilt {row['rebuilt_query_ms']:.2f}ms"
            )

        # The rebalanced tree is never taller than the never-rebalanced one.
        assert (
            variants["rebalance"]["height"] <= variants["static"]["height"]
        )

    # Deferred refits really batched work: the deferred variant must have
    # deferred (and later flushed) re-tightening walks.
    deferred = by_count[max(DATASET_COUNTS)]["deferred"]
    assert deferred["deferred_refits"] > 0
    assert deferred["refit_flushes"] > 0
