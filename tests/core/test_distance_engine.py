"""Tests for the batched distance engine: kernels, cache lifetime, stats."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import DatasetNode
from repro.core.distance import (
    cell_distance,
    cell_set_distance,
    exact_node_distance,
)
from repro.core.distance_engine import (
    KDTREE_PAIR_THRESHOLD,
    DistanceEngine,
    cell_coords_of_array,
    get_engine,
    set_engine,
)
from repro.core.errors import InvalidParameterError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.index.stats import distance_engine_stats
from repro.utils.zorder import zorder_decode

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))


def cell(x: int, y: int) -> int:
    return GRID.cell_id_from_coords(x, y)


def make_node(name: str, coords: set[tuple[int, int]]) -> DatasetNode:
    return DatasetNode.from_cells(name, {cell(x, y) for x, y in coords}, GRID)


def brute_distance(node_a: DatasetNode, node_b: DatasetNode) -> float:
    """Definition 6 by exhaustive pairwise hypot over decoded coordinates."""
    best = math.inf
    for ca in node_a.cells:
        ax, ay = zorder_decode(ca)
        for cb in node_b.cells:
            bx, by = zorder_decode(cb)
            best = min(best, math.hypot(ax - bx, ay - by))
    return best


def random_nodes(count: int, seed: int, spread: int = 200) -> list[DatasetNode]:
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        ox, oy = int(rng.integers(0, spread)), int(rng.integers(0, spread))
        coords = {
            (
                min(ox + int(rng.integers(0, 20)), 255),
                min(oy + int(rng.integers(0, 20)), 255),
            )
            for _ in range(int(rng.integers(1, 25)))
        }
        nodes.append(make_node(f"ds-{i:03d}", coords))
    return nodes


def load(engine: DistanceEngine, node: DatasetNode) -> None:
    """Decode ``node`` into ``engine``'s cache: one miss, then one hit."""
    engine.min_distances(node, [node])


class TestBatchedKernels:
    def test_min_distances_matches_pairwise_reference(self):
        engine = DistanceEngine()
        query = make_node("q", {(10, 10), (12, 15), (11, 11)})
        candidates = random_nodes(25, seed=7)
        batched = engine.min_distances(query, candidates)
        expected = [cell_set_distance(query.cells, c.cells) for c in candidates]
        assert batched.shape == (25,)
        # Integer grid coordinates make every path exact: bit-identical.
        assert batched.tolist() == expected

    def test_min_distances_matches_brute_force(self):
        engine = DistanceEngine()
        query = make_node("q", {(0, 0), (5, 9)})
        candidates = random_nodes(10, seed=3)
        batched = engine.min_distances(query, candidates)
        for got, candidate in zip(batched, candidates):
            assert got == pytest.approx(brute_distance(query, candidate), abs=0)

    def test_min_distances_large_query_takes_tree_path(self):
        engine = DistanceEngine()
        query = make_node("q", {(x, y) for x in range(40) for y in range(40)})
        candidates = [
            make_node("far", {(200, 200)}),
            make_node("near", {(41, 0)}),
            make_node("inside", {(10, 10), (250, 250)}),
        ]
        assert len(query.cells) * sum(len(c.cells) for c in candidates) > 2_048
        batched = engine.min_distances(query, candidates)
        assert batched.tolist() == [
            cell_set_distance(query.cells, c.cells) for c in candidates
        ]

    def test_min_distances_empty_candidates(self):
        engine = DistanceEngine()
        query = make_node("q", {(1, 1)})
        result = engine.min_distances(query, [])
        assert result.size == 0

    def test_within_delta_many_matches_min_distances(self):
        engine = DistanceEngine()
        query = make_node("q", {(50, 50), (60, 60)})
        candidates = random_nodes(40, seed=11)
        mins = engine.min_distances(query, candidates)
        for delta in (0.0, 1.0, 5.0, 17.5, 300.0):
            mask = engine.within_delta_many(query, candidates, delta)
            assert mask.tolist() == (mins <= delta).tolist()

    def test_within_delta_many_exact_at_realized_distance(self):
        # Two single-cell nodes exactly 5 apart (3-4-5 triangle): delta at the
        # realized distance is connected, one ulp below is not.
        engine = DistanceEngine()
        query = make_node("q", {(0, 0)})
        candidate = make_node("c", {(3, 4)})
        assert engine.within_delta_many(query, [candidate], 5.0).tolist() == [True]
        below = float(np.nextafter(5.0, 0.0))
        assert engine.within_delta_many(query, [candidate], below).tolist() == [False]
        assert engine.within_delta(query, candidate, 5.0)
        assert not engine.within_delta(query, candidate, below)

    def test_within_delta_zero_is_shared_cell(self):
        engine = DistanceEngine()
        a = make_node("a", {(1, 1), (9, 9)})
        b = make_node("b", {(9, 9), (30, 30)})
        c = make_node("c", {(2, 1)})
        assert engine.within_delta(a, b, 0.0)
        assert not engine.within_delta(a, c, 0.0)
        assert engine.within_delta_many(a, [b, c], 0.0).tolist() == [True, False]

    def test_sub_cell_delta_behaves_like_zero(self):
        # Distinct cells are >= 1 apart on the integer grid, so any delta < 1
        # reduces to shared-cell membership.
        engine = DistanceEngine()
        a = make_node("a", {(4, 4)})
        adjacent = make_node("b", {(5, 4)})
        assert not engine.within_delta(a, adjacent, 0.999)
        assert engine.within_delta(a, adjacent, 1.0)

    def test_negative_delta_rejected(self):
        engine = DistanceEngine()
        a = make_node("a", {(0, 0)})
        with pytest.raises(InvalidParameterError):
            engine.within_delta(a, a, -0.5)
        with pytest.raises(InvalidParameterError):
            engine.within_delta_many(a, [a], -0.5)

    def test_single_cell_sets(self):
        engine = DistanceEngine()
        a = make_node("a", {(7, 7)})
        b = make_node("b", {(7, 9)})
        assert engine.pair_distance(a, b) == cell_distance(cell(7, 7), cell(7, 9))
        assert engine.min_distances(a, [b]).tolist() == [2.0]
        assert engine.pair_distance(a, a) == 0.0

    def test_connected_mask_matches_distance_predicate(self):
        engine = DistanceEngine()
        query = make_node("q", {(30, 30), (35, 32)})
        candidates = random_nodes(40, seed=13)
        for delta in (0.0, 1.0, 6.0, 25.0, 400.0):
            mask = engine.connected_mask(query, candidates, delta)
            expected = [
                cell_set_distance(query.cells, c.cells) <= delta for c in candidates
            ]
            assert mask.tolist() == expected

    def test_connected_mask_validates_delta_and_empty(self):
        engine = DistanceEngine()
        query = make_node("q", {(0, 0)})
        assert engine.connected_mask(query, [], 1.0).size == 0
        with pytest.raises(InvalidParameterError):
            engine.connected_mask(query, [query], -1.0)

    def test_pair_distance_matches_cell_set_distance(self):
        engine = DistanceEngine()
        nodes = random_nodes(12, seed=5)
        for i, node_a in enumerate(nodes):
            for node_b in nodes[i:]:
                assert engine.pair_distance(node_a, node_b) == cell_set_distance(
                    node_a.cells, node_b.cells
                )


class TestSharedCellEarlyExit:
    def test_shared_cell_at_kdtree_threshold_boundary(self):
        # Pair counts exactly at, just below and just above the KD-tree
        # switch-over must all take the distance-0 early exit.
        shared = (128, 128)
        small = make_node("small", {shared, (0, 0)})  # 2 cells
        for count, name in ((1_024, "at"), (1_023, "below"), (1_025, "above")):
            coords = {(x, y) for x in range(40) for y in range(40)}
            coords = set(list(coords)[: count - 1]) | {shared}
            other = make_node(name, coords)
            pairs = len(small.cells) * len(other.cells)
            assert (
                pairs == 2 * count
                and abs(pairs - KDTREE_PAIR_THRESHOLD) <= 2
            )
            assert cell_set_distance(small.cells, other.cells) == 0.0
            assert DistanceEngine().pair_distance(small, other) == 0.0

    def test_large_disjoint_sets_tree_path(self):
        a = make_node("a", {(x, y) for x in range(30) for y in range(30)})
        b = make_node("b", {(x, y) for x in range(80, 110) for y in range(30)})
        assert len(a.cells) * len(b.cells) > KDTREE_PAIR_THRESHOLD
        engine = DistanceEngine()
        assert engine.pair_distance(a, b) == 51.0
        assert engine.within_delta(a, b, 51.0)
        assert not engine.within_delta(a, b, 50.999)


class TestGeometryCache:
    def test_cache_is_bounded_and_evicts(self):
        engine = DistanceEngine(max_entries=4)
        nodes = random_nodes(10, seed=1)
        for node in nodes:
            load(engine, node)
        info = engine.cache_info()
        assert info.currsize <= 4
        assert info.evictions == 6
        assert info.maxsize == 4

    def test_hits_and_misses_counted(self):
        engine = DistanceEngine()
        node = make_node("a", {(1, 2), (3, 4)})
        load(engine, node)
        info = engine.cache_info()
        assert info.misses == 1
        assert info.hits == 1

    def test_same_id_different_cells_invalidates(self):
        # Re-registering a dataset id with new cells (refresh, another grid,
        # CoverageSearch's merged node) must never serve stale geometry.
        engine = DistanceEngine()
        first = make_node("ds", {(0, 0)})
        second = make_node("ds", {(100, 100)})
        probe = make_node("probe", {(0, 1)})
        assert engine.pair_distance(first, probe) == 1.0
        assert engine.pair_distance(second, probe) == pytest.approx(
            math.hypot(100, 99)
        )
        assert engine.cache_info().invalidations >= 1

    def test_tree_reused_across_calls(self):
        engine = DistanceEngine()
        query = make_node("q", {(x, y) for x in range(50) for y in range(50)})
        others = random_nodes(5, seed=9)
        for other in others:
            engine.within_delta(query, other, 2.0)
        assert engine.cache_info().trees_built <= 1 + len(others)

    def test_clear_preserves_counters(self):
        engine = DistanceEngine()
        load(engine, make_node("a", {(1, 1)}))
        engine.clear()
        info = engine.cache_info()
        assert info.currsize == 0
        assert info.misses == 1

    def test_invalid_cache_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            DistanceEngine(max_entries=0)

    def test_cache_size_env_knob_read_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISTANCE_CACHE_SIZE", "7")
        assert DistanceEngine().max_entries == 7
        monkeypatch.setenv("REPRO_DISTANCE_CACHE_SIZE", "not-a-number")
        with pytest.raises(InvalidParameterError):
            DistanceEngine()
        monkeypatch.delenv("REPRO_DISTANCE_CACHE_SIZE")
        assert DistanceEngine().max_entries == 4096

    def test_default_engine_swap(self):
        replacement = DistanceEngine(max_entries=8)
        previous = set_engine(replacement)
        try:
            assert get_engine() is replacement
            exact_node_distance(make_node("a", {(2, 2)}), make_node("b", {(9, 9)}))
            assert replacement.cache_info().misses >= 1
        finally:
            set_engine(previous)

    def test_stats_surface(self):
        engine = DistanceEngine(max_entries=16)
        load(engine, make_node("a", {(0, 0), (1, 1)}))
        stats = distance_engine_stats(engine)
        assert stats["currsize"] == 1
        assert stats["maxsize"] == 16
        for key in ("hits", "misses", "evictions", "invalidations",
                    "trees_built", "batch_queries", "pair_queries"):
            assert key in stats
        # Default-engine variant reports the process-wide engine.
        assert set(distance_engine_stats()) == set(stats)


class TestCoordsHelper:
    def test_cell_coords_roundtrip(self):
        node = make_node("a", {(3, 5), (10, 2)})
        coords = cell_coords_of_array(node.cells_array)
        decoded = {tuple(int(v) for v in row) for row in coords}
        assert decoded == {(3, 5), (10, 2)}


coords_strategy = st.sets(
    st.tuples(
        st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255)
    ),
    min_size=1,
    max_size=40,
)
delta_strategy = st.one_of(
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    st.sampled_from([0.0, 1.0, 2.0, 5.0, math.sqrt(2)]),
)


class TestKernelProperties:
    @settings(max_examples=80, deadline=None)
    @given(coords_strategy, coords_strategy, delta_strategy)
    def test_within_delta_equals_distance_predicate(self, coords_a, coords_b, delta):
        engine = DistanceEngine()
        node_a = make_node("a", coords_a)
        node_b = make_node("b", coords_b)
        expected = cell_set_distance(node_a.cells, node_b.cells) <= delta
        assert engine.within_delta(node_a, node_b, delta) == expected
        assert engine.within_delta_many(node_a, [node_b], delta).tolist() == [expected]

    @settings(max_examples=60, deadline=None)
    @given(coords_strategy, st.lists(coords_strategy, min_size=1, max_size=6))
    def test_min_distances_equals_pairwise(self, query_coords, candidate_coords):
        engine = DistanceEngine()
        query = make_node("q", query_coords)
        candidates = [
            make_node(f"c{i}", coords) for i, coords in enumerate(candidate_coords)
        ]
        batched = engine.min_distances(query, candidates)
        expected = [cell_set_distance(query.cells, c.cells) for c in candidates]
        assert batched.tolist() == expected
