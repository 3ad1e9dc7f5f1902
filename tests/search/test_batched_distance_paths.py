"""Differential tests: batched distance paths vs the pairwise originals.

PR 4 rewired every exact-distance consumer (FindConnectSet leaf
verification, ConnectivityGraph frontiers, the SG baseline's round scans and
the data center's final aggregation) onto the batched
:class:`~repro.core.distance_engine.DistanceEngine` kernels.  These tests
pin the contract that the rewiring changed *no result*: each path is
compared against a pairwise re-implementation that never touches the engine,
on randomized corpora, with the product's array arithmetic and with the
frozenset oracle (``set_oracle.py``), and independently of the engine's
cache state (a 1-entry cache must answer identically to the default one).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.connectivity import ConnectivityGraph, connected_components
from repro.core.dataset import DatasetNode
from repro.core.distance import cell_set_distance, node_distance_bounds
from repro.core.distance_engine import DistanceEngine, set_engine
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.index.dits import DITSLocalIndex
from repro.search.coverage import CoverageSearch, find_connected_nodes
from repro.search.coverage_baselines import StandardGreedy

from set_oracle import ARITHMETICS, arithmetic

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))


@pytest.fixture(params=ARITHMETICS)
def backend(request):
    with arithmetic(request.param):
        yield request.param


@pytest.fixture
def fresh_engine():
    engine = DistanceEngine()
    previous = set_engine(engine)
    yield engine
    set_engine(previous)


def random_nodes(count: int, seed: int, spread: int = 220) -> list[DatasetNode]:
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        ox, oy = int(rng.integers(0, spread)), int(rng.integers(0, spread))
        coords = {
            (
                min(ox + int(rng.integers(0, 14)), 255),
                min(oy + int(rng.integers(0, 14)), 255),
            )
            for _ in range(int(rng.integers(1, 18)))
        }
        cells = {GRID.cell_id_from_coords(x, y) for x, y in coords}
        nodes.append(DatasetNode.from_cells(f"ds-{i:03d}", cells, GRID))
    return nodes


def reference_find_connected(root, query, delta, exclude=None, known=()):
    """The pre-PR-4 per-entry FindConnectSet loop (pairwise exact distances)."""
    excluded = exclude or set()
    connected = []
    stack = [root]
    while stack:
        node = stack.pop()
        pivot_distance = node.pivot.distance_to(query.pivot)
        lower = max(pivot_distance - node.radius - query.radius, 0.0)
        upper = pivot_distance + node.radius + query.radius
        if upper <= delta:
            collect = [node]
            while collect:
                current = collect.pop()
                if current.is_leaf():
                    connected.extend(
                        e for e in current.entries if e.dataset_id not in excluded
                    )
                else:
                    collect.append(current.left)
                    collect.append(current.right)
            continue
        if lower > delta:
            continue
        if node.is_leaf():
            for entry in node.entries:
                if entry.dataset_id in excluded:
                    continue
                if entry.dataset_id in known:
                    connected.append(entry)
                    continue
                entry_lower, entry_upper = node_distance_bounds(entry, query)
                if entry_lower > delta:
                    continue
                if entry_upper <= delta:
                    connected.append(entry)
                    continue
                if cell_set_distance(entry.cells, query.cells) <= delta:
                    connected.append(entry)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return connected


class TestFindConnectSetParity:
    @pytest.mark.parametrize("delta", [0.0, 1.0, 4.0, 12.0, 80.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_entry_reference_in_order(self, backend, delta, seed):
        nodes = random_nodes(60, seed=seed)
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(nodes)
        query = nodes[0].merged_with(nodes[1], merged_id="__merged_query__")
        got = find_connected_nodes(index.root, query, delta)
        expected = reference_find_connected(index.root, query, delta)
        # Same datasets in the same traversal order, not merely the same set.
        assert [n.dataset_id for n in got] == [n.dataset_id for n in expected]

    def test_exclude_and_known_connected_respected(self, backend):
        nodes = random_nodes(40, seed=2)
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(nodes)
        query = nodes[0]
        exclude = {nodes[1].dataset_id, nodes[2].dataset_id}
        known = {nodes[5].dataset_id}
        got = find_connected_nodes(
            index.root, query, 10.0, exclude=exclude, known_connected=known
        )
        expected = reference_find_connected(
            index.root, query, 10.0, exclude=exclude, known=known
        )
        assert [n.dataset_id for n in got] == [n.dataset_id for n in expected]

    def test_result_independent_of_cache_pressure(self, backend):
        nodes = random_nodes(50, seed=3)
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(nodes)
        query = nodes[0]
        baseline = [n.dataset_id for n in find_connected_nodes(index.root, query, 9.0)]
        previous = set_engine(DistanceEngine(max_entries=1))
        try:
            thrashed = [
                n.dataset_id for n in find_connected_nodes(index.root, query, 9.0)
            ]
        finally:
            set_engine(previous)
        assert thrashed == baseline


class TestConnectivityGraphParity:
    @pytest.mark.parametrize("delta", [0.0, 2.0, 7.5, 40.0])
    def test_adjacency_matches_pairwise_predicate(self, fresh_engine, delta):
        nodes = random_nodes(35, seed=4)
        edges = {
            frozenset((node_a.dataset_id, node_b.dataset_id))
            for i, node_a in enumerate(nodes)
            for node_b in nodes[i + 1 :]
            if cell_set_distance(node_a.cells, node_b.cells) <= delta
        }

        def touching(node, others):
            return {
                o.dataset_id for o in others if frozenset((node.dataset_id, o.dataset_id)) in edges
            }

        graph = ConnectivityGraph(delta)
        for i, node in enumerate(nodes):
            # add_node's batched frontier: the earlier nodes it touches.
            assert graph.add_node(node) == touching(node, nodes[:i])
        for node in nodes:
            # Re-adding a node returns its whole adjacency list, later nodes included.
            assert graph.add_node(node) == touching(node, nodes)

    def test_components_match_union_find_over_pairwise_edges(self, fresh_engine):
        delta = 5.0
        nodes = random_nodes(30, seed=5)
        got = connected_components(nodes, delta)
        # Reference: flood fill over the brute-force pairwise edge set.
        ids = [n.dataset_id for n in nodes]
        edges = {
            (a.dataset_id, b.dataset_id)
            for i, a in enumerate(nodes)
            for b in nodes[i + 1 :]
            if cell_set_distance(a.cells, b.cells) <= delta
        }
        remaining = set(ids)
        expected = []
        while remaining:
            seed_id = min(remaining)
            component = {seed_id}
            frontier = [seed_id]
            while frontier:
                current = frontier.pop()
                for a, b in edges:
                    neighbour = b if a == current else a if b == current else None
                    if neighbour is not None and neighbour in remaining - component:
                        component.add(neighbour)
                        frontier.append(neighbour)
            expected.append(component)
            remaining -= component
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected))


def reference_standard_greedy(nodes, query, k, delta):
    """The textbook per-round rescan with pairwise exact distances."""
    result_members = [query]
    chosen = set()
    covered = set(query.cells)
    picks = []
    for _ in range(k):
        best_node, best_gain = None, 0
        for candidate in nodes:
            if candidate.dataset_id in chosen:
                continue
            if not any(
                cell_set_distance(candidate.cells, member.cells) <= delta
                for member in result_members
            ):
                continue
            gain = len(candidate.cells - covered)
            if gain > best_gain or (
                gain == best_gain
                and gain > 0
                and best_node is not None
                and candidate.dataset_id < best_node.dataset_id
            ):
                best_gain, best_node = gain, candidate
        if best_node is None or best_gain == 0:
            break
        chosen.add(best_node.dataset_id)
        covered |= best_node.cells
        result_members.append(best_node)
        picks.append((best_node.dataset_id, float(best_gain)))
    return picks


class TestGreedyParity:
    def test_standard_greedy_rejects_negative_delta(self):
        nodes = random_nodes(3, seed=20)
        from repro.core.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            StandardGreedy(nodes).search_node(nodes[0], k=1, delta=-1.0)

    @pytest.mark.parametrize("delta", [0.0, 3.0, 10.0])
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_standard_greedy_matches_reference(self, backend, fresh_engine, k, delta):
        nodes = random_nodes(45, seed=6)
        query = random_nodes(1, seed=7)[0]
        result = StandardGreedy(nodes).search_node(query, k=k, delta=delta)
        expected = reference_standard_greedy(nodes, query, k, delta)
        assert [(e.dataset_id, e.score) for e in result.entries] == expected

    def test_coverage_search_stable_under_cache_thrash(self, backend):
        nodes = random_nodes(40, seed=8)
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(nodes)
        query = random_nodes(1, seed=9)[0]
        search = CoverageSearch(index)
        baseline = search.search_node(query, k=5, delta=8.0)
        previous = set_engine(DistanceEngine(max_entries=1))
        try:
            thrashed = CoverageSearch(index).search_node(query, k=5, delta=8.0)
        finally:
            set_engine(previous)
        assert [(e.dataset_id, e.score) for e in thrashed.entries] == [
            (e.dataset_id, e.score) for e in baseline.entries
        ]
        assert thrashed.total_coverage == baseline.total_coverage

    def test_merged_query_never_served_stale(self, backend, fresh_engine):
        # CoverageSearch reuses the id "__merged_query__" for a node whose
        # cells grow every iteration; the identity-guarded cache must keep
        # each iteration's frontier exact.  Diagonal chain spaced 2*sqrt(2)
        # apart with delta 3: each pick unlocks the next dataset only through
        # the *new* merged geometry (the next-nearest link is 4*sqrt(2) > 3),
        # so any stale merged-node cache entry changes the result.
        step = 2
        nodes = [
            DatasetNode.from_cells(
                f"chain-{i}",
                {GRID.cell_id_from_coords(10 + step * i, 10 + step * i)},
                GRID,
            )
            for i in range(1, 8)
        ]
        index = DITSLocalIndex(leaf_capacity=2)
        index.build(nodes)
        query = DatasetNode.from_cells(
            "q", {GRID.cell_id_from_coords(10, 10)}, GRID
        )
        delta = 3.0
        assert math.hypot(step, step) < delta < math.hypot(2 * step, 2 * step)
        result = CoverageSearch(index).search_node(query, k=7, delta=delta)
        assert [e.dataset_id for e in result.entries] == [
            f"chain-{i}" for i in range(1, 8)
        ]
