"""Ablation: query clipping and candidate routing, separately.

Fig. 13/19 compare the full distribution strategy against a broadcast
baseline.  This ablation isolates the two ingredients — candidate routing
(strategy 1) and query clipping (strategy 2) — to show that each contributes
to the byte reduction on its own.
"""

from __future__ import annotations

import pytest
from conftest import BENCH_CONFIG

from repro.bench.experiments import _build_framework
from repro.bench.harness import Workbench
from repro.bench.reporting import format_table
from repro.distributed.center import DistributionPolicy

POLICIES = {
    "routing+clipping": DistributionPolicy(route_to_candidates=True, clip_query=True),
    "routing only": DistributionPolicy(route_to_candidates=True, clip_query=False),
    "clipping only": DistributionPolicy(route_to_candidates=False, clip_query=True),
    "broadcast": DistributionPolicy(route_to_candidates=False, clip_query=False),
}


@pytest.fixture(scope="module")
def queries():
    bench = Workbench(BENCH_CONFIG)
    return bench.query_nodes(4)


def test_each_strategy_reduces_bytes(benchmark, queries):
    """Every optimisation ships no more bytes than plain broadcast."""

    def run():
        rows = []
        for label, policy in POLICIES.items():
            framework = _build_framework(BENCH_CONFIG, policy)
            try:
                framework.reset_communication_stats()
                for query in queries:
                    framework.overlap_search(query, k=5)
                stats = framework.communication_stats()
            finally:
                framework.close()
            rows.append(
                {
                    "policy": label,
                    "bytes": stats.total_bytes,
                    "messages": stats.messages_sent,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Ablation: query distribution strategies (OJSP, bytes)"))

    by_policy = {row["policy"]: row for row in rows}
    broadcast = by_policy["broadcast"]["bytes"]
    assert by_policy["routing+clipping"]["bytes"] <= broadcast
    assert by_policy["routing only"]["bytes"] <= broadcast
    assert by_policy["clipping only"]["bytes"] <= broadcast
    # The combination is at least as good as either ingredient alone.
    combined = by_policy["routing+clipping"]["bytes"]
    assert combined <= by_policy["routing only"]["bytes"]
    assert combined <= by_policy["clipping only"]["bytes"]
    # Routing also reduces the number of messages (fewer sources contacted).
    assert by_policy["routing only"]["messages"] <= by_policy["broadcast"]["messages"]
