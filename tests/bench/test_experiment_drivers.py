"""Smoke tests for the experiment drivers at miniature scale.

The benchmarks exercise the drivers at realistic scale; these tests run each
driver on a tiny configuration so the plumbing (row structure, parameter
handling, method coverage) is verified as part of the ordinary test suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.bench.experiments import (
    COVERAGE_METHODS,
    OVERLAP_METHODS,
    SEARCH_AXES,
    communication_sweep,
    fig8_index_construction,
    fig21_22_index_updates,
    fig23_global_index_churn,
    search_time_sweep,
)
from repro.bench.harness import ExperimentConfig

TINY = ExperimentConfig(sources=("Transit",), scale=0.01, theta=11, leaf_capacity=10, seed=3)
#: Two values per axis, small enough for the tiny corpus.
TINY_VALUES = {"k": (2, 3), "theta": (10, 11), "q": (1, 2), "f": (10, 20), "delta": (0.0, 5.0)}


class TestConstructionDriver:
    def test_fig8_rows(self):
        rows = fig8_index_construction(thetas=(10, 11), config=TINY)
        assert len(rows) == 2 * 5
        assert {row["index"] for row in rows} == set(OVERLAP_METHODS) - {"OverlapSearch"} | {"DITS-L"}
        for row in rows:
            assert row["build_ms"] >= 0
            assert row["memory_bytes"] > 0


class TestSearchTimeSweep:
    @pytest.mark.parametrize(
        "problem, axis", [(problem, axis) for problem, axes in SEARCH_AXES.items() for axis in axes]
    )
    def test_rows(self, problem, axis):
        values = TINY_VALUES[axis]
        rows = search_time_sweep(problem, axis, values, k=2, query_count=2, config=TINY)
        if axis == "f":
            methods = ("OverlapSearch", "Rtree")
        else:
            methods = OVERLAP_METHODS if problem == "ojsp" else COVERAGE_METHODS
        assert [(row[axis], row["method"]) for row in rows] == [
            (value, method) for value in values for method in methods
        ]
        for row in rows:
            assert set(row) == {axis, "method", "time_ms"}
            assert row["time_ms"] >= 0

    @pytest.mark.parametrize(
        "problem, axis", [("cjsp", "f"), ("ojsp", "delta"), ("ojsp", "scale"), ("knn", "k")]
    )
    def test_unsupported_pair_raises(self, problem, axis):
        with pytest.raises(ValueError, match=axis):
            search_time_sweep(problem, axis, (1,), config=TINY)


class TestCommunicationSweep:
    @pytest.mark.parametrize("problem, method", [("ojsp", "OverlapSearch"), ("cjsp", "CoverageSearch")])
    def test_rows(self, problem, method):
        rows = communication_sweep(problem, (1, 2), k=3, config=TINY)
        assert [(row["q"], row["method"]) for row in rows] == [
            (q, label) for q in (1, 2) for label in (method, "Broadcast")
        ]
        for row in rows:
            assert set(row) == {"q", "method", "bytes", "messages", "transmission_ms"}
            assert row["bytes"] > 0
            assert row["transmission_ms"] > 0

    def test_unknown_problem_raises(self):
        with pytest.raises(ValueError, match="knn"):
            communication_sweep("knn", (1,), config=TINY)


def _figure_table():
    """The ``FIGURES`` table of ``benchmarks/conftest.py``, loaded as a plain module."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("benchmark_figures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ``(q, method, bytes, messages, transmission_ms)`` of Figs. 13 and 19 at the
#: table's parameters, as recorded when each figure still had its own
#: communication function.
COMMUNICATION_ROWS = {
    "fig13": [
        (2, "OverlapSearch", 1234, 4, 3.1768341064453125),
        (2, "Broadcast", 2198, 8, 6.0961761474609375),
        (4, "OverlapSearch", 2805, 8, 6.675056457519531),
        (4, "Broadcast", 5069, 16, 12.834175109863281),
        (6, "OverlapSearch", 4507, 12, 10.298210144042969),
        (6, "Broadcast", 8203, 24, 19.82299041748047),
        (8, "OverlapSearch", 5559, 16, 13.301475524902344),
        (8, "Broadcast", 10039, 32, 25.573936462402344),
    ],
    "fig19": [
        (2, "CoverageSearch", 14594, 4, 15.917922973632812),
        (2, "Broadcast", 15598, 8, 18.875411987304688),
        (4, "CoverageSearch", 29524, 8, 32.156280517578125),
        (4, "Broadcast", 31868, 16, 38.391693115234375),
        (6, "CoverageSearch", 44346, 12, 48.29164123535156),
        (6, "Broadcast", 48162, 24, 57.93086242675781),
    ],
}


@pytest.mark.parametrize("name", sorted(COMMUNICATION_ROWS))
def test_communication_rows_at_table_parameters(name, monkeypatch):
    for knob in ("REPRO_BENCH_SCALE", "REPRO_BENCH_OJSP_SCALE"):
        monkeypatch.delenv(knob, raising=False)
    rows = _figure_table().run_figure(name)
    assert [
        (row["q"], row["method"], row["bytes"], row["messages"], row["transmission_ms"])
        for row in rows
    ] == COMMUNICATION_ROWS[name]


class TestUpdateDriver:
    def test_fig21_rows(self):
        rows = fig21_22_index_updates(batch_sizes=(5, 10), config=TINY)
        assert {row["batch"] for row in rows} == {5, 10}
        for row in rows:
            assert row["insert_ms"] >= 0
            assert row["update_ms"] >= 0


class TestGlobalChurnDriver:
    def test_fig23_baseline_and_parity(self):
        rows = fig23_global_index_churn(source_counts=(40,), churn_ops=5, query_count=3)
        assert [row["variant"] for row in rows] == ["one-tree", "table"]
        assert len({row["checksum"] for row in rows}) == 1
        # The tree rebuilds on the first query after each change; the table
        # publishes once for the bulk registration and once per mutation.
        assert [row["rebuilds"] for row in rows] == [1 + 5, 1 + 2 * 5]
