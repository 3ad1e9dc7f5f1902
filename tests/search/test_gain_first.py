"""Gain-first CJSP: properties of the one greedy answer and the member-wise predicate.

CoverageSearch and the data center's final pass check connectivity only for
a round's would-be winner (``GreedyCover.pick``'s ``connected`` argument),
member by member (:class:`~repro.search.coverage.MemberConnectivity`); SG
and SG+DITS filter every candidate first.  The order-independent size filter
makes all four give the same answer, selection for selection, and the same
answer as a brute-force "filter to connected, then pick" on frozensets.
The pools here engineer size and gain ties (repeated and shifted shapes
under permuted ids) and include blocks large enough for the KD-tree path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import DatasetNode
from repro.core.distance import cell_set_distance
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.distributed.center import DataCenter
from repro.index.dits import DITSLocalIndex
from repro.search.coverage import CoverageSearch, CoverageSearchStats, MemberConnectivity
from repro.search.coverage_baselines import StandardGreedy, StandardGreedyWithDITS

from set_oracle import ARITHMETICS, arithmetic

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))
WINDOW = 24

#: δ < 1 is shared-cell membership; the rest include realised grid distances
#: (1, √2, 2, √5), so candidates sit exactly at δ.
DELTAS = st.sampled_from([0.0, 0.5, 1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 3.0, 6.0])

CALL_SITES = ["CoverageSearch", "SG", "SG+DITS", "center"]


def node(name: str, coords: set[tuple[int, int]]) -> DatasetNode:
    return DatasetNode.from_cells(name, {GRID.cell_id_from_coords(x, y) for x, y in coords}, GRID)


scattered = st.sets(
    st.tuples(st.integers(0, WINDOW - 1), st.integers(0, WINDOW - 1)), min_size=1, max_size=4
)
#: Filled rectangles of up to 64 cells: two of them exceed the engine's
#: brute-force pair threshold, so the KD-tree path runs too.
blocks = st.builds(
    lambda x, y, w, h: {(x + i, y + j) for i in range(w) for j in range(h)},
    st.integers(0, WINDOW),
    st.integers(0, WINDOW),
    st.integers(1, 8),
    st.integers(1, 8),
)
shapes = st.one_of(scattered, blocks)


@st.composite
def pools(draw) -> tuple[DatasetNode, list[DatasetNode]]:
    """A query and a pool in which equal sizes and equal gains are common."""
    cell_sets = []
    for base in draw(st.lists(shapes, min_size=1, max_size=8)):
        cell_sets.append(base)
        for _ in range(draw(st.integers(0, 2))):
            dx, dy = draw(st.integers(0, 6)), draw(st.integers(0, 6))
            cell_sets.append({(x + dx, y + dy) for x, y in base})
    ids = draw(st.permutations(range(len(cell_sets))))
    pool = [node(f"d{i:02d}", cells) for i, cells in zip(ids, cell_sets)]
    return node("q", draw(shapes)), pool


def run(
    site: str, query: DatasetNode, pool: list[DatasetNode], k: int, delta: float, leaf_capacity: int
) -> list[tuple[str, float]]:
    if site == "center":
        proposals = {n.dataset_id: ("s0", n.cells_array) for n in pool}
        result = DataCenter(grid=GRID)._aggregate_coverage(query, k, delta, proposals)
    elif site == "SG":
        result = StandardGreedy(pool).search_node(query, k, delta)
    else:
        index = DITSLocalIndex(leaf_capacity=leaf_capacity)
        index.build(pool)
        search = CoverageSearch if site == "CoverageSearch" else StandardGreedyWithDITS
        result = search(index).search_node(query, k, delta)
    assert result.total_coverage == query.coverage + sum(e.score for e in result.entries)
    return [(entry.dataset_id, entry.score) for entry in result.entries]


def reference(query: DatasetNode, pool: list[DatasetNode], k: int, delta: float):
    """Each round: filter to the candidates within δ of the merged node, then pick."""
    covered = set(query.cells)  # the merged node's cells: query plus chosen
    remaining = list(pool)
    answer = []
    for _ in range(k):
        scored = [
            (len(c.cells - covered), c.dataset_id, c)
            for c in remaining
            if cell_set_distance(covered, c.cells) <= delta
        ]
        scored = [s for s in scored if s[0] > 0]
        if not scored:
            break
        gain, _, best = min(scored, key=lambda s: (-s[0], s[1]))
        answer.append((best.dataset_id, float(gain)))
        covered |= best.cells
        remaining.remove(best)
    return answer


@pytest.mark.parametrize("name", ARITHMETICS)
@settings(max_examples=60, deadline=None)
@given(case=pools(), delta=DELTAS, k=st.integers(1, 5), leaf_capacity=st.integers(2, 5))
def test_four_call_sites_give_the_reference_answer(name, case, delta, k, leaf_capacity):
    query, pool = case
    expected = reference(query, pool, k, delta)
    with arithmetic(name):
        for site in CALL_SITES:
            assert run(site, query, pool, k, delta, leaf_capacity) == expected, site


@settings(max_examples=80, deadline=None)
@given(
    members=st.lists(shapes, min_size=1, max_size=4),
    candidates=st.lists(shapes, min_size=1, max_size=6),
    data=st.data(),
)
def test_member_wise_predicate_is_the_merged_distance(members, candidates, data):
    member_nodes = [node(f"m{i}", cells) for i, cells in enumerate(members)]
    # A candidate sharing a cell with the last member, whatever was drawn.
    shared = {next(iter(members[-1])), (WINDOW + 20, WINDOW + 20)}
    candidate_nodes = [node(f"c{i}", cells) for i, cells in enumerate(candidates + [shared])]
    union = frozenset().union(*(n.cells for n in member_nodes))
    # Exactly at a realised distance, just below it, or one of the fixed δs.
    realised = cell_set_distance(union, data.draw(st.sampled_from(candidate_nodes)).cells)
    delta = data.draw(
        st.one_of(DELTAS, st.just(realised), st.just(float(np.nextafter(realised, 0.0))))
    )
    connectivity = MemberConnectivity(member_nodes[0], delta)
    merged: frozenset[int] = frozenset()
    for position, member in enumerate(member_nodes):
        if position:
            connectivity.add(member)
        merged |= member.cells
        # Asked again after every addition: a failed candidate is re-tested
        # against the new members only, a connected one stays connected.
        for candidate in candidate_nodes:
            expected = cell_set_distance(merged, candidate.cells) <= delta
            assert connectivity(candidate) == expected, (candidate.dataset_id, delta)


class TestMemberConnectivity:
    def test_exactly_at_delta_and_shared_cells(self):
        query = node("q", {(0, 0)})
        candidate = node("c", {(3, 4)})  # distance 5 to the query
        assert MemberConnectivity(query, 5.0)(candidate)
        assert not MemberConnectivity(query, float(np.nextafter(5.0, 0.0)))(candidate)
        overlapping = node("o", {(0, 0), (9, 9)})
        assert MemberConnectivity(query, 0.0)(overlapping)
        assert not MemberConnectivity(query, 0.0)(node("n", {(1, 0)}))

    def test_each_member_is_tested_once_per_candidate(self):
        # Pivot/radius bounds cannot decide these: the diagonal blocks' MBRs
        # reach within δ of each other while their cells do not.
        query = node("q", {(0, 0), (9, 9)})
        later = node("m1", {(30, 0), (39, 9)})
        candidate = node("c", {(18, 0), (19, 9), (20, 20)})
        stats = CoverageSearchStats()
        connectivity = MemberConnectivity(query, 3.0, stats)
        assert not connectivity(candidate)
        assert not connectivity(candidate)
        checks = stats.exact_distance_checks
        assert checks == 1
        connectivity.add(later)
        assert not connectivity(candidate)
        assert stats.exact_distance_checks == checks + 1
        connectivity.add(node("m2", {(20, 22)}))
        assert connectivity(candidate)
        assert connectivity(candidate)  # connected stays connected, unchecked
        assert stats.exact_distance_checks == checks + 2

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            MemberConnectivity(node("q", {(0, 0)}), -1.0)
