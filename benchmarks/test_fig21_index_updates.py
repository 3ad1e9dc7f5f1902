"""Figs. 21-22: index maintenance time (batch inserts and batch updates)."""

from __future__ import annotations

import pytest
from conftest import FIGURES, run_figure

from repro.bench.harness import Workbench
from repro.bench.reporting import format_table
from repro.core.dataset import DatasetNode
from repro.index import DATASET_INDEX_CLASSES


def test_fig21_fig22_sweep(benchmark):
    """Regenerate Figs. 21-22 and check the maintenance-cost ordering."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig21",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Figs. 21-22: batch insert / update time (ms)"))

    largest = max(FIGURES["fig21"].kwargs["batch_sizes"])
    at_largest = {row["index"]: row for row in rows if row["batch"] == largest}
    # Paper: STS3 is the cheapest structure to maintain (hash upserts only);
    # DITS stays cheaper than the QuadTree, which re-inserts every cell.
    assert at_largest["STS3"]["insert_ms"] <= at_largest["Josie"]["insert_ms"]
    assert at_largest["STS3"]["update_ms"] <= at_largest["QuadTree"]["update_ms"]
    assert at_largest["DITS-L"]["insert_ms"] <= at_largest["QuadTree"]["insert_ms"] * 1.5

    # Insert cost grows with the batch size for every index.
    for index_name in DATASET_INDEX_CLASSES:
        series = [row["insert_ms"] for row in rows if row["index"] == index_name]
        assert series[-1] >= series[0] * 0.8, index_name


@pytest.mark.parametrize("index_name", list(DATASET_INDEX_CLASSES))
def test_fig21_single_index_insert_batch(benchmark, workbench: Workbench, index_name: str):
    """Per-index benchmark: inserting a fixed batch of new datasets."""
    base_nodes = workbench.all_nodes()
    extras = [
        DatasetNode(
            dataset_id=f"bench-new-{i}",
            rect=node.rect,
            cells_array=node.cells_array,
            point_count=node.point_count,
        )
        for i, node in enumerate(workbench.all_nodes()[:20])
    ]
    index_cls = DATASET_INDEX_CLASSES[index_name]

    def insert_batch():
        index = index_cls()
        index.build(base_nodes)
        for node in extras:
            index.insert(node)
        return index

    index = benchmark(insert_batch)
    assert len(index) == len(base_nodes) + len(extras)
