"""Tie-breaks and counters of the one greedy-coverage loop, at all four call sites.

``CoverageSearch``, ``StandardGreedy``, ``StandardGreedyWithDITS`` and
``DataCenter._aggregate_coverage`` share :class:`GreedyCover`.  The
differential suites compare them with references on random corpora, where
gain ties are rare; here the ties are engineered, and the expected ids and
``CoverageSearchStats`` values are pinned, so a change to the shared rule
shows up as a changed answer at a named call site.  The size filter's edge
(a candidate exactly as large as the best gain) is decided by id, so all
four call sites agree on it whatever order they scan in.  Every case runs
with the product's array arithmetic and with the frozenset oracle
(``set_oracle.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import DatasetNode
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.distributed.center import DataCenter
from repro.index.dits import DITSLocalIndex
from repro.search import coverage
from repro.search.coverage import CoverageSearch, CoverageSearchStats
from repro.search.coverage_baselines import StandardGreedy, StandardGreedyWithDITS

from set_oracle import ARITHMETICS, arithmetic

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))
DELTA = 6.0


@pytest.fixture(params=ARITHMETICS)
def backend(request):
    with arithmetic(request.param):
        yield request.param


def node(name: str, coords: set[tuple[int, int]]) -> DatasetNode:
    return DatasetNode.from_cells(name, {GRID.cell_id_from_coords(x, y) for x, y in coords}, GRID)


def row(y: int, x_from: int, count: int) -> set[tuple[int, int]]:
    return {(x, y) for x in range(x_from, x_from + count)}


QUERY = node("q", {(10, 10), (11, 10)})

#: Three disjoint two-cell datasets: every round is a three-way gain tie, and
#: each tied candidate's size equals the best gain (the size filter's edge).
DISJOINT_TIE = [
    node("tie-c", row(12, 12, 2)),
    node("tie-a", row(10, 12, 2)),
    node("tie-b", row(11, 12, 2)),
]

#: Gain 3 each; "z-big" is larger (it re-covers the query) so CoverageSearch
#: sees it first, but "a-mid" (size 4 > 3) is still evaluated and wins the tie
#: on its id at every call site.
TIE_CLAUSE = [
    node("z-big", {(10, 10), (11, 10)} | row(11, 12, 3)),
    node("a-mid", {(10, 10)} | row(12, 12, 3)),
]

#: As above, but the smaller-id candidate is exactly as large as the gain to
#: beat (|S_D| == gain == best_gain).  CoverageSearch takes candidates by
#: descending size and meets "a-edge" second; the size filter still evaluates
#: it (equal size, smaller id), so it wins the tie at every call site.
SIZE_FILTER_EDGE = [
    node("z-big", {(10, 10), (11, 10)} | row(11, 12, 3)),
    node("a-edge", row(12, 12, 3)),
]

CALL_SITES = ["CoverageSearch", "SG", "SG+DITS", "center"]


def run(site: str, nodes: list[DatasetNode], k: int) -> list[tuple[str, float]]:
    if site == "center":
        proposals = {n.dataset_id: ("s0", tuple(sorted(n.cells))) for n in nodes}
        result = DataCenter(grid=GRID)._aggregate_coverage(QUERY, k, DELTA, proposals)
        assert all(entry.source_id == "s0" for entry in result.entries)
    elif site == "SG":
        result = StandardGreedy(nodes).search_node(QUERY, k, DELTA)
    else:
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(nodes)
        search = CoverageSearch if site == "CoverageSearch" else StandardGreedyWithDITS
        result = search(index).search_node(QUERY, k, DELTA)
    assert result.total_coverage == len(QUERY.cells) + sum(e.score for e in result.entries)
    return [(entry.dataset_id, entry.score) for entry in result.entries]


class TestEngineeredTies:
    @pytest.mark.parametrize("site", CALL_SITES)
    def test_equal_gains_go_to_the_smaller_id(self, backend, site):
        assert run(site, DISJOINT_TIE, k=3) == [("tie-a", 2.0), ("tie-b", 2.0), ("tie-c", 2.0)]

    @pytest.mark.parametrize("site", CALL_SITES)
    def test_later_candidate_with_smaller_id_takes_the_tie(self, backend, site):
        assert run(site, TIE_CLAUSE, k=1) == [("a-mid", 3.0)]

    @pytest.mark.parametrize("site, winner", [(site, "a-edge") for site in CALL_SITES])
    def test_size_filter_edge(self, backend, site, winner):
        assert run(site, SIZE_FILTER_EDGE, k=2) == [(winner, 3.0), ("z-big", 3.0)]

    def test_size_filter_edge_counters(self, backend):
        # "z-big" first (larger), then "a-edge": as large as the best gain
        # with a smaller id, so it is evaluated rather than skipped.
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(SIZE_FILTER_EDGE)
        search = CoverageSearch(index)
        search.search_node(QUERY, 1, DELTA)
        assert (search.last_stats.gain_evaluations, search.last_stats.gain_skips) == (2, 0)


def seeded_nodes(count: int, seed: int, spread: int = 60, far: int = 0) -> list[DatasetNode]:
    """Random small datasets; every fourth one is shifted ``far`` cells away."""
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(count):
        shift = far if i % 4 == 3 else 0
        ox = shift + int(rng.integers(0, spread))
        oy = shift + int(rng.integers(0, spread))
        coords = {
            (ox + int(rng.integers(0, 10)), oy + int(rng.integers(0, 10)))
            for _ in range(int(rng.integers(3, 12)))
        }
        nodes.append(node(f"ds-{i:03d}", coords))
    return nodes


class TestPinnedStats:
    def test_all_six_counters(self, backend):
        # A dense cluster around the query (whole subtrees accepted, gains
        # smaller than sizes) plus a far one (whole subtrees rejected), so
        # every counter is exercised.  Only a round's would-be winner that
        # the bounds leave undecided costs exact checks, one per member.
        nodes = seeded_nodes(60, seed=2025, spread=20, far=150)
        index = DITSLocalIndex(leaf_capacity=4)
        index.build(nodes[1:])
        search = CoverageSearch(index)
        result = search.search_node(nodes[0], 6, 24.0)
        assert result.dataset_ids == [
            "ds-012", "ds-052", "ds-057", "ds-020", "ds-053", "ds-032"
        ]
        assert search.last_stats == CoverageSearchStats(
            iterations=6,
            subtree_accepts=6,
            subtree_rejects=6,
            exact_distance_checks=3,
            gain_evaluations=12,
            gain_skips=237,
        )


class TestStandardGreedyOrderIndependence:
    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_pool_same_answer(self, backend, seed):
        # Near-duplicate datasets make gain ties common.
        nodes = seeded_nodes(25, seed=seed)
        clones = [
            DatasetNode.from_cells(f"dup-{n.dataset_id}", n.cells, GRID) for n in nodes[1:9]
        ]
        pool = nodes[1:] + clones
        expected = StandardGreedy(pool).search_node(nodes[0], 6, 8.0)
        assert len(expected.entries) > 1
        rng = np.random.default_rng(seed + 40)
        for _ in range(4):
            shuffled = [pool[i] for i in rng.permutation(len(pool))]
            assert StandardGreedy(shuffled).search_node(nodes[0], 6, 8.0) == expected


class TestGreedyCover:
    def test_pick_is_none_without_positive_gain(self, backend):
        cover = coverage.GreedyCover(QUERY)
        assert cover.pick([]) is None
        assert cover.pick([node("inside", {(10, 10)})]) is None
        assert cover.result().entries == ()
        assert cover.result().total_coverage == cover.result().query_coverage == 2

    def test_pick_counts_only_when_given_stats(self, backend):
        cover = coverage.GreedyCover(QUERY)
        stats = CoverageSearchStats()
        by_size = sorted(SIZE_FILTER_EDGE, key=lambda n: (-len(n.cells), n.dataset_id))
        picked = cover.pick(by_size, stats)
        assert picked is not None and (picked[0].dataset_id, picked[1]) == ("a-edge", 3)
        assert (stats.gain_evaluations, stats.gain_skips) == (2, 0)
        assert cover.pick(by_size) == picked

    def test_add_advances_the_covered_set(self, backend):
        cover = coverage.GreedyCover(QUERY)
        first, gain = cover.pick(TIE_CLAUSE)
        cover.add(first, gain, source_id="s7")
        # "z-big" now adds only its own row; the query cells and nothing of
        # "a-mid" count twice.
        second, second_gain = cover.pick(TIE_CLAUSE)
        assert (second.dataset_id, second_gain) == ("z-big", 3)
        cover.add(second, second_gain)
        result = cover.result()
        assert [(e.dataset_id, e.score, e.source_id) for e in result.entries] == [
            ("a-mid", 3.0, "s7"),
            ("z-big", 3.0, None),
        ]
        assert result.total_coverage == 8
        assert cover.pick(TIE_CLAUSE) is None
