"""Tests for the OJSP baseline algorithms (QuadTree, R-tree, STS3, Josie)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import DatasetNode
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.core.problems import OverlapQuery, brute_force_overlap
from repro.index.inverted import STS3Index
from repro.index.josie import JosieIndex
from repro.index.quadtree import QuadTreeIndex
from repro.index.rtree import RTreeIndex
from repro.search.overlap_baselines import (
    BruteForceOverlap,
    JosieOverlap,
    QuadTreeOverlap,
    RTreeOverlap,
    STS3Overlap,
)

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))


def random_nodes(count: int, seed: int = 0) -> list[DatasetNode]:
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        ox, oy = int(rng.integers(0, 200)), int(rng.integers(0, 200))
        cells = {
            GRID.cell_id_from_coords(ox + int(rng.integers(0, 20)), oy + int(rng.integers(0, 20)))
            for _ in range(int(rng.integers(3, 12)))
        }
        nodes.append(DatasetNode.from_cells(f"ds-{i}", cells, GRID))
    return nodes


def build_all_methods(nodes):
    quad = QuadTreeIndex()
    quad.build(nodes)
    rtree = RTreeIndex()
    rtree.build(nodes)
    sts3 = STS3Index()
    sts3.build(nodes)
    josie = JosieIndex()
    josie.build(nodes)
    return {
        "QuadTree": QuadTreeOverlap(quad),
        "Rtree": RTreeOverlap(rtree),
        "STS3": STS3Overlap(sts3),
        "Josie": JosieOverlap(josie),
        "BruteForce": BruteForceOverlap(nodes),
    }


class TestAllBaselinesAgree:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 5])
    def test_positive_scores_match_brute_force(self, seed, k):
        nodes = random_nodes(50, seed=seed)
        methods = build_all_methods(nodes)
        for query in nodes[:5]:
            truth = brute_force_overlap(query, nodes, k)
            truth_positive = [(e.dataset_id, e.score) for e in truth if e.score > 0]
            for name, method in methods.items():
                result = method.search(OverlapQuery(query=query, k=k))
                got_positive = [(e.dataset_id, e.score) for e in result if e.score > 0]
                if name == "Josie":
                    # Josie's ``upper_bound <= kth_score`` prune may skip an
                    # equal-score dataset with a smaller id, so only its
                    # scores are canonical.
                    assert [s for _, s in got_positive] == [s for _, s in truth_positive], name
                else:
                    assert got_positive == truth_positive, name

    def test_all_respect_k(self):
        nodes = random_nodes(30, seed=4)
        methods = build_all_methods(nodes)
        for name, method in methods.items():
            result = method.search_node(nodes[0], 3)
            assert len(result) <= 3, name

    def test_results_sorted_descending(self):
        nodes = random_nodes(30, seed=5)
        methods = build_all_methods(nodes)
        for name, method in methods.items():
            result = method.search_node(nodes[1], 6)
            assert result.scores == sorted(result.scores, reverse=True), name


class TestQuadTreeOverlapSpecifics:
    def test_counts_each_cell_once(self):
        # Two datasets share two cells; the quadtree stores one occurrence per
        # (cell, dataset) pair and must not double-count.
        a = DatasetNode.from_cells("a", {GRID.cell_id_from_coords(0, 0), GRID.cell_id_from_coords(1, 1)}, GRID)
        b = DatasetNode.from_cells("b", {GRID.cell_id_from_coords(0, 0), GRID.cell_id_from_coords(1, 1)}, GRID)
        quad = QuadTreeIndex()
        quad.build([a, b])
        result = QuadTreeOverlap(quad).search_node(a, 2)
        assert result.scores == [2.0, 2.0]


class TestRTreeOverlapSpecifics:
    def test_mbr_intersection_not_sufficient_for_score(self):
        # The R-tree returns MBR-intersecting candidates; datasets whose MBR
        # intersects but whose cells do not overlap must score zero.
        a = DatasetNode.from_cells(
            "a", {GRID.cell_id_from_coords(0, 0), GRID.cell_id_from_coords(10, 10)}, GRID
        )
        b = DatasetNode.from_cells(
            "b", {GRID.cell_id_from_coords(0, 10), GRID.cell_id_from_coords(10, 0)}, GRID
        )
        rtree = RTreeIndex()
        rtree.build([a, b])
        result = RTreeOverlap(rtree).search_node(a, 2)
        scores = dict(zip(result.dataset_ids, result.scores))
        assert scores["a"] == 2.0
        assert scores.get("b", 0.0) == 0.0


class TestSTS3OverlapSpecifics:
    def test_only_positive_overlaps_returned(self):
        nodes = random_nodes(20, seed=6)
        sts3 = STS3Index()
        sts3.build(nodes)
        query = nodes[0]
        result = STS3Overlap(sts3).search_node(query, 20)
        assert all(score > 0 for score in result.scores)


class TestJosieOverlapSpecifics:
    def test_prefix_filter_does_not_lose_results(self):
        nodes = random_nodes(80, seed=7)
        josie = JosieIndex()
        josie.build(nodes)
        method = JosieOverlap(josie)
        for query in nodes[:10]:
            truth = brute_force_overlap(query, nodes, 5)
            got = method.search_node(query, 5)
            truth_positive = [s for s in truth.scores if s > 0]
            got_positive = [s for s in got.scores if s > 0]
            assert got_positive == truth_positive
