"""Fig. 8: construction time and memory of the five indexes as theta grows."""

from __future__ import annotations

import pytest
from conftest import run_figure

from repro.bench.harness import Workbench
from repro.bench.reporting import format_table
from repro.index import DATASET_INDEX_CLASSES


def test_fig8_construction_sweep(benchmark):
    """Regenerate both panels of Fig. 8 and check the qualitative shape."""
    rows = benchmark.pedantic(
        run_figure,
        args=("fig8",),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Fig. 8: index construction time (ms) and memory (bytes)"))

    by_theta: dict[int, dict[str, dict]] = {}
    for row in rows:
        by_theta.setdefault(row["theta"], {})[row["index"]] = row

    for theta, indexes in by_theta.items():
        # Memory: QuadTree is the largest structure at every resolution.
        memories = {name: row["memory_bytes"] for name, row in indexes.items()}
        assert memories["QuadTree"] == max(memories.values()), theta
        # DITS-L carries the leaf inverted index on top of the tree, so it is
        # never smaller than the plain R-tree.
        assert memories["DITS-L"] >= memories["Rtree"], theta

    # Memory of the posting-list indexes grows with theta (finer cells mean
    # more distinct cell IDs per dataset).  The QuadTree also stores one item
    # per cell occurrence but its node count additionally depends on how many
    # datasets collapse onto shared cells, so it is asserted only as the
    # largest structure above, not as monotone.
    for name in ("DITS-L", "STS3", "Josie"):
        series = [by_theta[theta][name]["memory_bytes"] for theta in sorted(by_theta)]
        assert series == sorted(series), name

    # Construction time at the default resolution: the paper reports DITS-L
    # slightly faster than the (insertion-built) R-tree and much faster than
    # Josie, with the QuadTree paying for one insert per cell occurrence.
    default_theta = sorted(by_theta)[len(by_theta) // 2]
    times = {name: row["build_ms"] for name, row in by_theta[default_theta].items()}
    assert times["DITS-L"] <= 1.3 * times["Rtree"]
    assert times["DITS-L"] <= times["Josie"]
    assert times["DITS-L"] <= times["QuadTree"]


@pytest.mark.parametrize("index_name", list(DATASET_INDEX_CLASSES))
def test_fig8_single_index_build(benchmark, workbench: Workbench, index_name: str):
    """Per-index build benchmark at the default resolution (Fig. 8 cross-section)."""
    nodes = workbench.all_nodes()
    index_cls = DATASET_INDEX_CLASSES[index_name]

    def build():
        index = index_cls()
        index.build(nodes)
        return index

    index = benchmark(build)
    assert len(index) == len(nodes)
