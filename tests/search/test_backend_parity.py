"""Arithmetic parity: the sorted-array kernels must agree with frozenset algebra.

The product's cell arithmetic (sorted-array merge kernels) is a pure speed
refactor of frozenset set algebra — every search result must be bit-for-bit
identical between the two on the same federation.  These tests run
randomized federations through OverlapSearch and CoverageSearch once as
shipped and once under the frozenset oracle (``set_oracle.py``) and require
identical results, including tie ordering.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import DatasetNode
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.index.dits import DITSLocalIndex
from repro.search.coverage import CoverageSearch, GreedyCover
from repro.search.overlap import OverlapSearch

from set_oracle import SetGreedyCover, set_arithmetic, set_overlap_with

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))


def random_federation(
    count: int, seed: int, spread: int = 200, cluster: int = 25
) -> list[DatasetNode]:
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        ox, oy = int(rng.integers(0, spread)), int(rng.integers(0, spread))
        coords = {
            (ox + int(rng.integers(0, cluster)), oy + int(rng.integers(0, cluster)))
            for _ in range(int(rng.integers(3, 30)))
        }
        cells = {GRID.cell_id_from_coords(x, y) for x, y in coords}
        nodes.append(DatasetNode.from_cells(f"ds-{i}", cells, GRID))
    return nodes


def overlap_results(nodes, queries, k, capacity):
    index = DITSLocalIndex(leaf_capacity=capacity)
    index.build(nodes)
    search = OverlapSearch(index)
    return [
        [(e.dataset_id, e.score) for e in search.search_node(query, k).entries]
        for query in queries
    ]


def coverage_results(nodes, queries, k, delta, capacity):
    index = DITSLocalIndex(leaf_capacity=capacity)
    index.build(nodes)
    search = CoverageSearch(index)
    out = []
    for query in queries:
        result = search.search_node(query, k, delta)
        out.append(
            (
                [(e.dataset_id, e.score) for e in result.entries],
                result.total_coverage,
                result.query_coverage,
            )
        )
    return out


class TestOverlapParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_identical_results_across_backends(self, seed, k):
        nodes = random_federation(50, seed=seed)
        queries = nodes[:6] + random_federation(3, seed=seed + 1000)
        vector = overlap_results(nodes, queries, k, capacity=5)
        with set_arithmetic():
            reference = overlap_results(nodes, queries, k, capacity=5)
        assert vector == reference

    def test_parity_across_leaf_capacities(self):
        nodes = random_federation(64, seed=9)
        queries = nodes[:4]
        for capacity in (2, 8, 32, 100):
            vector = overlap_results(nodes, queries, 5, capacity)
            with set_arithmetic():
                reference = overlap_results(nodes, queries, 5, capacity)
            assert vector == reference, capacity


class TestCoverageParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("delta", [0.0, 5.0, 50.0])
    def test_identical_results_across_backends(self, seed, delta):
        nodes = random_federation(40, seed=seed)
        queries = nodes[:4]
        vector = coverage_results(nodes, queries, 5, delta, capacity=4)
        with set_arithmetic():
            reference = coverage_results(nodes, queries, 5, delta, capacity=4)
        assert vector == reference

    def test_parity_with_large_k(self):
        nodes = random_federation(30, seed=77)
        query = nodes[0]
        vector = coverage_results(nodes, [query], 30, 20.0, capacity=6)
        with set_arithmetic():
            reference = coverage_results(nodes, [query], 30, 20.0, capacity=6)
        assert vector == reference


class TestNodeOverlapParity:
    def test_overlap_with_matches_across_backends(self):
        nodes = random_federation(20, seed=5)
        vector = [
            [a.overlap_with(b) for b in nodes] for a in nodes[:5]
        ]
        with set_arithmetic():
            reference = [
                [a.overlap_with(b) for b in nodes] for a in nodes[:5]
            ]
        assert vector == reference
        # And both equal the raw frozenset intersection.
        assert vector[0] == [len(nodes[0].cells & b.cells) for b in nodes]


class TestOracleSwap:
    def test_set_arithmetic_swaps_in_and_restores(self):
        product = (GreedyCover.__init__, GreedyCover.pick, DatasetNode.overlap_with)
        with set_arithmetic():
            assert GreedyCover.pick is SetGreedyCover.pick
            assert GreedyCover.__init__ is SetGreedyCover.__init__
            assert DatasetNode.overlap_with is set_overlap_with
        assert (GreedyCover.__init__, GreedyCover.pick, DatasetNode.overlap_with) == product
