"""Smoke tests for the experiment drivers at miniature scale.

The benchmarks exercise the drivers at realistic scale; these tests run each
driver on a tiny configuration so the plumbing (row structure, parameter
handling, method coverage) is verified as part of the ordinary test suite.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import (
    COVERAGE_METHODS,
    OVERLAP_METHODS,
    fig8_index_construction,
    fig9_overlap_vs_k,
    fig11_overlap_vs_q,
    fig12_overlap_vs_leaf_capacity,
    fig13_14_overlap_communication,
    fig15_coverage_vs_k,
    fig18_coverage_vs_delta,
    fig21_22_index_updates,
    fig23_global_index_churn,
)
from repro.bench.harness import ExperimentConfig

TINY = ExperimentConfig(sources=("Transit",), scale=0.01, theta=11, leaf_capacity=10, seed=3)


class TestOverlapDrivers:
    def test_fig8_rows(self):
        rows = fig8_index_construction(thetas=(10, 11), config=TINY)
        assert len(rows) == 2 * 5
        assert {row["index"] for row in rows} == set(OVERLAP_METHODS) - {"OverlapSearch"} | {"DITS-L"}
        for row in rows:
            assert row["build_ms"] >= 0
            assert row["memory_bytes"] > 0

    def test_fig9_rows(self):
        rows = fig9_overlap_vs_k(k_values=(2, 4), query_count=2, config=TINY)
        assert {row["method"] for row in rows} == set(OVERLAP_METHODS)
        assert {row["k"] for row in rows} == {2, 4}
        assert all(row["time_ms"] >= 0 for row in rows)

    def test_fig11_rows(self):
        rows = fig11_overlap_vs_q(q_values=(1, 2), k=3, config=TINY)
        assert {row["q"] for row in rows} == {1, 2}

    def test_fig12_rows(self):
        rows = fig12_overlap_vs_leaf_capacity(capacities=(10, 20), k=3, query_count=2, config=TINY)
        assert {row["method"] for row in rows} == {"OverlapSearch", "Rtree"}
        assert {row["f"] for row in rows} == {10, 20}

    def test_fig13_rows(self):
        rows = fig13_14_overlap_communication(q_values=(1, 2), k=3, config=TINY)
        assert {row["method"] for row in rows} == {"OverlapSearch", "Broadcast"}
        for row in rows:
            assert row["bytes"] > 0
            assert row["transmission_ms"] > 0


class TestCoverageDrivers:
    def test_fig15_rows(self):
        rows = fig15_coverage_vs_k(k_values=(2, 3), delta=5.0, query_count=1, config=TINY)
        assert {row["method"] for row in rows} == set(COVERAGE_METHODS)
        assert {row["k"] for row in rows} == {2, 3}

    def test_fig18_rows(self):
        rows = fig18_coverage_vs_delta(delta_values=(0.0, 5.0), k=2, query_count=1, config=TINY)
        assert {row["delta"] for row in rows} == {0.0, 5.0}


class TestUpdateDriver:
    def test_fig21_rows(self):
        rows = fig21_22_index_updates(batch_sizes=(5, 10), config=TINY)
        assert {row["batch"] for row in rows} == {5, 10}
        for row in rows:
            assert row["insert_ms"] >= 0
            assert row["update_ms"] >= 0


class TestGlobalChurnDriver:
    def test_fig23_baseline_and_parity(self):
        rows = fig23_global_index_churn(
            source_counts=(40,), shard_counts=(4,), churn_ops=5, query_count=3
        )
        assert [row["variant"] for row in rows] == ["sharded-1", "sharded-4"]
        assert len({row["checksum"] for row in rows}) == 1

    def test_fig23_rejects_one_shard_variant(self):
        # An eager one-shard row would overwrite the deferred baseline's key.
        with pytest.raises(ValueError, match="sharded-1"):
            fig23_global_index_churn(source_counts=(40,), shard_counts=(1, 4))


class TestConfigHandling:
    @pytest.mark.parametrize("driver", [fig9_overlap_vs_k, fig15_coverage_vs_k])
    def test_default_config_is_used_when_omitted(self, driver):
        # Only check that calling with explicit tiny parameters works and the
        # rows carry the expected keys; the default config is exercised by
        # the benchmarks.
        rows = driver(k_values=(2,), query_count=1, config=TINY)
        assert rows and "method" in rows[0]
