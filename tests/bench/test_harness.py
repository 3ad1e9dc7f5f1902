"""Tests for the benchmark workbench, reporting helpers and light experiment drivers."""

from __future__ import annotations

import pytest

from repro.bench.experiments import fig7_source_heatmaps, table1_source_statistics
from repro.bench.harness import ExperimentConfig, Workbench, time_call
from repro.bench.reporting import format_table


class TestExperimentConfig:
    def test_with_theta_copies_everything_else(self):
        config = ExperimentConfig(sources=("Transit",), scale=0.01, theta=12, seed=3)
        changed = config.with_theta(10)
        assert changed.theta == 10
        assert changed.sources == ("Transit",)
        assert changed.scale == 0.01
        assert changed.seed == 3


class TestWorkbench:
    @pytest.fixture(scope="class")
    def bench(self) -> Workbench:
        return Workbench(ExperimentConfig(sources=("Transit",), scale=0.01, theta=11, seed=5))

    def test_datasets_cached(self, bench):
        first = bench.datasets_of("Transit")
        second = bench.datasets_of("Transit")
        assert first is second
        assert len(first) >= 20

    def test_nodes_match_datasets(self, bench):
        nodes = bench.nodes_of("Transit")
        assert len(nodes) == len(bench.datasets_of("Transit"))
        assert all(node.coverage >= 1 for node in nodes)

    def test_query_nodes(self, bench):
        queries = bench.query_nodes(4)
        assert len(queries) == 4

    def test_all_nodes_concatenates_sources(self):
        bench = Workbench(ExperimentConfig(sources=("Transit", "Baidu"), scale=0.01, theta=11))
        assert len(bench.all_nodes()) == len(bench.nodes_of("Transit")) + len(bench.nodes_of("Baidu"))

    def test_index_builders(self, bench):
        nodes = bench.nodes_of("Transit")
        assert len(bench.build_dits(nodes)) == len(nodes)
        assert len(bench.build_rtree(nodes)) == len(nodes)
        assert len(bench.build_sts3(nodes)) == len(nodes)
        assert len(bench.build_josie(nodes)) == len(nodes)
        assert len(bench.build_quadtree(nodes)) == len(nodes)


class TestTimeCall:
    def test_returns_time_and_result(self):
        elapsed, result = time_call(lambda: sum(range(1000)))
        assert elapsed >= 0.0
        assert result == sum(range(1000))


class TestReporting:
    ROWS = [
        {"method": "A", "time_ms": 1.2345, "k": 10},
        {"method": "B", "time_ms": 20.5, "k": 10},
    ]

    def test_format_table_contains_all_cells(self):
        text = format_table(self.ROWS, title="demo")
        assert "demo" in text
        assert "method" in text and "time_ms" in text
        assert "1.234" in text and "20.500" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_columns_are_aligned(self):
        lines = format_table(self.ROWS).splitlines()
        header, rule, *body = lines
        assert header.startswith("method")
        assert set(rule) <= {"-", "+"}
        assert len({len(line) for line in lines}) == 1
        separators = {i for i, ch in enumerate(header) if ch == "|"}
        for line in body:
            assert {i for i, ch in enumerate(line) if ch == "|"} == separators

    def test_only_floats_get_three_decimals(self):
        text = format_table([{"k": 10, "ms": 2.0, "label": "x1.5"}])
        row = text.splitlines()[-1].split("|")
        assert [cell.strip() for cell in row] == ["10", "2.000", "x1.5"]

    def test_columns_follow_the_first_row(self):
        text = format_table([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
        header, _, first, second = text.splitlines()
        assert [cell.strip() for cell in header.split("|")] == ["a", "b"]
        assert [cell.strip() for cell in second.split("|")] == ["3", "None"]


class TestLightweightDrivers:
    def test_table1_rows(self):
        rows = table1_source_statistics(scale=0.005, seed=1)
        assert len(rows) == 5
        assert {row["source"] for row in rows} == {"Baidu", "BTAA", "NYU", "Transit", "UMN"}
        for row in rows:
            assert row["datasets"] >= 20
            assert row["points"] > 0

    def test_fig7_heatmaps_reflect_density_differences(self):
        heatmaps = fig7_source_heatmaps(scale=0.005, seed=1, theta=5)
        assert set(heatmaps) == {"Baidu", "BTAA", "NYU", "Transit", "UMN"}
        # Transit is a compact regional source: its densest coarse cell holds
        # a larger share of its datasets than BTAA's densest cell does.
        transit_top = heatmaps["Transit"][0]["datasets"]
        btaa_top = heatmaps["BTAA"][0]["datasets"]
        transit_total = len(table1_source_statistics(scale=0.005, seed=1))
        assert transit_top >= 1 and btaa_top >= 1
        assert transit_total == 5
