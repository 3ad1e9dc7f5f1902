"""Differential tests: incremental-greedy CJSP engines vs. the exhaustive originals.

PR 2 rewrote ``StandardGreedy``, ``StandardGreedyWithDITS`` and
``DataCenter._aggregate_coverage`` to carry connectivity and coverage state
across greedy rounds instead of rescanning from scratch.  The rewrites must
be *bit-identical* to the original per-round rescans — same selections, same
scores, same tie-breaks — so this module keeps reference re-implementations
of the original algorithms and compares them on randomized corpora, with
the product's array arithmetic and with the frozenset oracle
(``set_oracle.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.connectivity import is_directly_connected
from repro.core.dataset import DatasetNode
from repro.core.distance import exact_node_distance
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.core.problems import CoverageResult, ScoredDataset
from repro.distributed.center import DataCenter
from repro.index.dits import DITSLocalIndex
from repro.search.coverage import find_connected_nodes
from repro.search.coverage_baselines import StandardGreedy, StandardGreedyWithDITS

from set_oracle import ARITHMETICS, arithmetic

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))


@pytest.fixture(params=ARITHMETICS)
def backend(request):
    with arithmetic(request.param):
        yield request.param


def random_nodes(count: int, seed: int, spread: int = 60) -> list[DatasetNode]:
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        ox, oy = int(rng.integers(0, spread)), int(rng.integers(0, spread))
        coords = {
            (
                min(ox + int(rng.integers(0, 10)), 255),
                min(oy + int(rng.integers(0, 10)), 255),
            )
            for _ in range(int(rng.integers(3, 12)))
        }
        cells = {GRID.cell_id_from_coords(x, y) for x, y in coords}
        nodes.append(DatasetNode.from_cells(f"ds-{i:03d}", cells, GRID))
    return nodes


# ---------------------------------------------------------------------- #
# Reference implementations (the pre-PR-2 per-round rescans)
# ---------------------------------------------------------------------- #
def reference_standard_greedy(
    nodes: list[DatasetNode], query: DatasetNode, k: int, delta: float
) -> CoverageResult:
    result_nodes = [query]
    chosen_ids: set[str] = set()
    covered: set[int] = set(query.cells)
    entries: list[ScoredDataset] = []
    for _ in range(k):
        best_node = None
        best_gain = 0
        for candidate in nodes:
            if candidate.dataset_id in chosen_ids:
                continue
            if not any(
                exact_node_distance(candidate, member) <= delta
                for member in result_nodes
            ):
                continue
            gain = len(candidate.cells - covered)
            if gain > best_gain or (
                gain == best_gain
                and gain > 0
                and best_node is not None
                and candidate.dataset_id < best_node.dataset_id
            ):
                best_gain = gain
                best_node = candidate
        if best_node is None or best_gain == 0:
            break
        chosen_ids.add(best_node.dataset_id)
        covered |= best_node.cells
        result_nodes.append(best_node)
        entries.append(ScoredDataset(dataset_id=best_node.dataset_id, score=float(best_gain)))
    return CoverageResult(
        entries=tuple(entries),
        total_coverage=len(covered),
        query_coverage=len(query.cells),
    )


def reference_sg_with_dits(
    index: DITSLocalIndex, query: DatasetNode, k: int, delta: float
) -> CoverageResult:
    result_nodes = [query]
    chosen_ids: set[str] = set()
    covered: set[int] = set(query.cells)
    entries: list[ScoredDataset] = []
    for _ in range(k):
        candidates: dict[str, DatasetNode] = {}
        for member in result_nodes:
            for candidate in find_connected_nodes(
                index.root, member, delta, exclude=chosen_ids
            ):
                candidates[candidate.dataset_id] = candidate
        best_node = None
        best_gain = 0
        for dataset_id in sorted(candidates):
            candidate = candidates[dataset_id]
            gain = len(candidate.cells - covered)
            if gain > best_gain:
                best_gain = gain
                best_node = candidate
        if best_node is None or best_gain == 0:
            break
        chosen_ids.add(best_node.dataset_id)
        covered |= best_node.cells
        result_nodes.append(best_node)
        entries.append(ScoredDataset(dataset_id=best_node.dataset_id, score=float(best_gain)))
    return CoverageResult(
        entries=tuple(entries),
        total_coverage=len(covered),
        query_coverage=len(query.cells),
    )


def reference_aggregate_coverage(
    center: DataCenter,
    query: DatasetNode,
    k: int,
    delta: float,
    proposals: dict[str, tuple[str, frozenset[int]]],
) -> CoverageResult:
    candidate_nodes: dict[str, DatasetNode] = {}
    source_of: dict[str, str] = {}
    for dataset_id, (source_id, cells) in proposals.items():
        if not cells:
            continue
        candidate_nodes[dataset_id] = DatasetNode.from_cells(dataset_id, cells, center.grid)
        source_of[dataset_id] = source_id
    merged = query
    covered: set[int] = set(query.cells)
    entries: list[ScoredDataset] = []
    remaining = dict(candidate_nodes)
    for _ in range(k):
        best_id = None
        best_gain = 0
        for dataset_id in sorted(remaining):
            node = remaining[dataset_id]
            if not is_directly_connected(node, merged, delta):
                continue
            gain = len(node.cells - covered)
            if gain > best_gain:
                best_gain = gain
                best_id = dataset_id
        if best_id is None or best_gain == 0:
            break
        node = remaining.pop(best_id)
        covered |= node.cells
        merged = merged.merged_with(node, merged_id="__merged_query__")
        entries.append(
            ScoredDataset(dataset_id=best_id, score=float(best_gain), source_id=source_of[best_id])
        )
    return CoverageResult(
        entries=tuple(entries),
        total_coverage=len(covered),
        query_coverage=len(query.cells),
    )


def assert_identical(actual: CoverageResult, expected: CoverageResult) -> None:
    assert [
        (e.dataset_id, e.score, e.source_id) for e in actual.entries
    ] == [(e.dataset_id, e.score, e.source_id) for e in expected.entries]
    assert actual.total_coverage == expected.total_coverage
    assert actual.query_coverage == expected.query_coverage


# ---------------------------------------------------------------------- #
# Differential tests
# ---------------------------------------------------------------------- #
class TestStandardGreedyDifferential:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("delta", [0.0, 2.0, 6.0, 15.0])
    def test_matches_reference(self, backend, seed, delta):
        nodes = random_nodes(30, seed=seed)
        query = nodes[0]
        corpus = nodes[1:]
        actual = StandardGreedy(corpus).search_node(query, k=6, delta=delta)
        expected = reference_standard_greedy(corpus, query, k=6, delta=delta)
        assert_identical(actual, expected)

    def test_duplicate_gains_tiebreak(self, backend):
        # Clones with identical cells force gain ties every round; the
        # smallest dataset ID must win exactly as in the original.
        cells = {GRID.cell_id_from_coords(5, 5), GRID.cell_id_from_coords(6, 5)}
        clones = [DatasetNode.from_cells(f"clone-{c}", cells, GRID) for c in "cba"]
        query = DatasetNode.from_cells("q", {GRID.cell_id_from_coords(4, 5)}, GRID)
        actual = StandardGreedy(clones).search_node(query, k=3, delta=2.0)
        expected = reference_standard_greedy(clones, query, k=3, delta=2.0)
        assert_identical(actual, expected)
        assert [e.dataset_id for e in actual.entries] == ["clone-a"]


class TestSGWithDITSDifferential:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("delta", [0.0, 2.0, 6.0, 15.0])
    def test_matches_reference(self, backend, seed, delta):
        nodes = random_nodes(30, seed=seed + 100)
        query = nodes[0]
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(nodes[1:])
        actual = StandardGreedyWithDITS(index).search_node(query, k=6, delta=delta)
        expected = reference_sg_with_dits(index, query, k=6, delta=delta)
        assert_identical(actual, expected)


class TestAggregateCoverageDifferential:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("delta", [0.0, 3.0, 8.0])
    def test_matches_reference(self, backend, seed, delta):
        rng = np.random.default_rng(seed + 500)
        nodes = random_nodes(24, seed=seed + 300)
        query = nodes[0]
        proposals = {
            node.dataset_id: (f"s{int(rng.integers(0, 3))}", frozenset(node.cells))
            for node in nodes[1:]
        }
        center = DataCenter(grid=GRID)
        actual = center._aggregate_coverage(query, 5, delta, proposals)
        expected = reference_aggregate_coverage(center, query, 5, delta, proposals)
        assert_identical(actual, expected)

    def test_empty_proposals(self, backend):
        query = random_nodes(1, seed=9)[0]
        center = DataCenter(grid=GRID)
        result = center._aggregate_coverage(query, 3, 2.0, {})
        assert result.entries == ()
        assert result.total_coverage == len(query.cells)
