"""Tests for index memory accounting (Fig. 8 right)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import DatasetNode
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.index import DATASET_INDEX_CLASSES
from repro.index.dits_global import DITSGlobalIndex, SourceSummary
from repro.index.stats import global_index_stats, index_memory_bytes

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))


def random_nodes(count: int, cells_per_node: int, seed: int = 0) -> list[DatasetNode]:
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        ox, oy = int(rng.integers(0, 200)), int(rng.integers(0, 200))
        coords = {
            GRID.cell_id_from_coords(ox + int(rng.integers(0, 30)), oy + int(rng.integers(0, 30)))
            for _ in range(cells_per_node)
        }
        nodes.append(DatasetNode.from_cells(f"ds-{i}", coords, GRID))
    return nodes


class TestIndexMemory:
    def test_positive_for_all_indexes(self):
        nodes = random_nodes(25, 10, seed=1)
        for name, index_cls in DATASET_INDEX_CLASSES.items():
            index = index_cls()
            index.build(nodes)
            assert index_memory_bytes(index) > 0, name

    def test_memory_grows_with_cell_count(self):
        # Every cell-storing index must grow when datasets cover more cells;
        # the R-tree stores only MBRs and entry references, so it is exempt.
        small = random_nodes(25, 5, seed=2)
        large = random_nodes(25, 25, seed=2)
        for name, index_cls in DATASET_INDEX_CLASSES.items():
            if name == "Rtree":
                continue
            index_small = index_cls()
            index_small.build(small)
            index_large = index_cls()
            index_large.build(large)
            assert index_memory_bytes(index_large) > index_memory_bytes(index_small), name

    def test_relative_ordering_matches_cost_model(self):
        # Fig. 8 shape under our cost model: QuadTree (one item per cell
        # occurrence plus O(N) tree nodes) is the largest; among the
        # inverted-index family STS3 is cheaper than Josie because its
        # postings carry no position/size metadata; DITS-L outweighs the
        # plain R-tree because its leaves add the inverted index.
        nodes = random_nodes(60, 20, seed=3)
        sizes = {}
        for name, index_cls in DATASET_INDEX_CLASSES.items():
            index = index_cls()
            index.build(nodes)
            sizes[name] = index_memory_bytes(index)
        assert sizes["QuadTree"] == max(sizes.values())
        assert sizes["STS3"] < sizes["Josie"]
        assert sizes["DITS-L"] > sizes["Rtree"]

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            index_memory_bytes(object())  # type: ignore[arg-type]

    def test_empty_dits_is_zero(self):
        from repro.index.dits import DITSLocalIndex

        index = DITSLocalIndex()
        index.build([])
        assert index_memory_bytes(index) == 0


def global_summaries(count: int) -> list[SourceSummary]:
    return [
        SourceSummary(f"g{i}", BoundingBox(i * 5.0, 0.0, i * 5.0 + 2.0, 2.0), 10)
        for i in range(count)
    ]


class TestGlobalIndexStats:
    def test_table_stats(self):
        index = DITSGlobalIndex()
        index.register_all(global_summaries(8))
        index.unregister("g3")
        stats = global_index_stats(index)
        assert stats["sources"] == 7
        assert stats["rebuilds"] == 2  # one publish per registration call
        assert stats["memory_bytes"] > 0
        assert global_index_stats(index) == stats

    def test_empty_index(self):
        stats = global_index_stats(DITSGlobalIndex())
        assert stats["sources"] == 0
        assert stats["rebuilds"] == 0
        assert stats["memory_bytes"] == 0
