"""Federated answers against single-site answers: the contracts and the gaps.

Unmarked tests pin what the federation guarantees.  Each strict xfail states
the contract the federation should meet and fails today for the reason its
marker names.  ``strict=True`` makes the change that fixes a behaviour flip
the marker in the same diff; ``raises=AssertionError`` keeps an unrelated
crash from passing as the expected failure.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import DatasetNode, SpatialDataset
from repro.core.errors import EmptyDatasetError
from repro.core.grid import Grid
from repro.distributed.framework import MultiSourceFramework
from repro.index.dits import DITSLocalIndex
from repro.search.coverage_baselines import StandardGreedy
from repro.search.overlap import OverlapSearch

THETA = 8
GRID = Grid(theta=THETA)


def row(name: str, x_from: int, x_to: int, y: int = 10) -> DatasetNode:
    """A one-row dataset over cells ``x_from..x_to`` (inclusive) at row ``y``."""
    cells = [GRID.cell_id_from_coords(x, y) for x in range(x_from, x_to + 1)]
    return DatasetNode.from_cells(name, cells, GRID)


def federate(held: dict[str, list[DatasetNode]], **options) -> MultiSourceFramework:
    """One source per entry of ``held``, registered in its order, on ``GRID``."""
    framework = MultiSourceFramework(theta=THETA, **options)
    for source_id, nodes in held.items():
        framework.add_source_from_nodes(source_id, nodes)
    return framework


def positive_pairs(result) -> list[tuple[str, float]]:
    """The ``(dataset_id, score)`` pairs of ``result`` with a positive score, in order."""
    return [(entry.dataset_id, entry.score) for entry in result if entry.score > 0]


@pytest.mark.parametrize("order", [("S1", "S2"), ("S2", "S1")])
def test_federated_ojsp_breaks_score_ties_by_dataset_id(order):
    """Reproducer 1a: two sources tie on overlap 4; the smaller id must win.

    The center merges per-source answers by (score desc, dataset id asc), so
    it returns ``d_a`` in either registration order, as one DITS-L over both
    datasets does.
    """
    held = {"S1": [row("d_b", 10, 13)], "S2": [row("d_a", 12, 15)]}
    query = row("q", 10, 15)
    framework = federate({source_id: held[source_id] for source_id in order})
    try:
        federated = framework.overlap_search(query, k=1).dataset_ids
    finally:
        framework.close()
    single = DITSLocalIndex()
    single.build(held["S1"] + held["S2"])
    assert federated == OverlapSearch(single).search_node(query, 1).dataset_ids


@settings(max_examples=60, deadline=None)
@given(
    corpus=st.lists(
        st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=6),
        min_size=1,
        max_size=12,
    ),
    query_cells=st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=10),
    data=st.data(),
)
def test_federated_ojsp_equals_one_dits_l_over_the_union(corpus, query_cells, data):
    """Positive-score OJSP answers ignore the split and registration order.

    Unique dataset ids are cut into 1-4 sources registered in a random order
    with a random source leaf capacity; the positive
    entries must equal one DITS-L over the union corpus, pair for pair.
    """
    nodes = [
        DatasetNode.from_cells(
            f"d{i:02d}", [GRID.cell_id_from_coords(x, y) for x, y in coords], GRID
        )
        for i, coords in enumerate(corpus)
    ]
    query = DatasetNode.from_cells(
        "q", [GRID.cell_id_from_coords(x, y) for x, y in query_cells], GRID
    )
    k = data.draw(st.integers(1, 5), label="k")
    homes = data.draw(st.lists(st.integers(0, 3), min_size=len(nodes), max_size=len(nodes)))
    held: dict[str, list[DatasetNode]] = {}
    for node, home in zip(nodes, homes):
        held.setdefault(f"S{home}", []).append(node)
    order = data.draw(st.permutations(sorted(held)), label="order")
    framework = federate(
        {source_id: held[source_id] for source_id in order},
        leaf_capacity=data.draw(st.integers(2, 4), label="leaf_capacity"),
    )
    try:
        federated = framework.overlap_search(query, k)
    finally:
        framework.close()
    single = DITSLocalIndex()
    single.build(nodes)
    assert positive_pairs(federated) == positive_pairs(OverlapSearch(single).search_node(query, k))


@pytest.mark.parametrize("order", [("S1", "S2"), ("S2", "S1")])
def test_federated_ojsp_keeps_equal_ids_from_different_sources(order):
    """Reproducer 1e (OJSP): two sources each hold a ``d`` tying on overlap 3.

    The result entry key is ``(source_id, dataset_id)``: both ``d``s are
    returned, ties between them ordered by source id.
    """
    held = {"S1": [row("d", 10, 12)], "S2": [row("d", 13, 15)]}
    framework = federate({source_id: held[source_id] for source_id in order})
    try:
        federated = framework.overlap_search(row("q", 10, 15), k=3)
    finally:
        framework.close()
    assert [(e.dataset_id, e.score, e.source_id) for e in federated] == [
        ("d", 3.0, "S1"),
        ("d", 3.0, "S2"),
    ]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5")
def test_federated_cjsp_keeps_equal_ids_from_different_sources():
    """Reproducer 1e (CJSP): both ``d``s together cover 12 cells.

    The center keys proposals by dataset id alone, so S2's ``d`` overwrites
    S1's and the federation selects only one of them (coverage 9).
    """
    framework = federate({"S1": [row("d", 10, 12)], "S2": [row("d", 13, 15)]})
    try:
        federated = framework.coverage_search(row("q", 10, 15, y=11), k=2, delta=1.0)
    finally:
        framework.close()
    assert sorted((e.dataset_id, e.source_id) for e in federated) == [("d", "S1"), ("d", "S2")]
    assert federated.total_coverage == 12


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_federated_ojsp_pads_with_zero_scores_over_the_union():
    """Reproducer 1f: Algorithm 2's zero-score fill runs per contacted source.

    One DITS-L over the union returns ``[m, a0, z]``: ``m`` overlaps, and the
    two smallest remaining ids pad the answer.  The center never contacts S2
    (its region misses the query), so the federation returns ``[m, z]``.
    """
    held = {
        "S1": [row("m", 10, 13), row("z", 30, 33)],
        "S2": [row("a0", 40, 43, y=40)],
    }
    query = row("q", 10, 15)
    framework = federate(held)
    try:
        federated = framework.overlap_search(query, k=3).dataset_ids
    finally:
        framework.close()
    single = DITSLocalIndex()
    single.build(held["S1"] + held["S2"])
    assert federated == OverlapSearch(single).search_node(query, 3).dataset_ids


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5")
def test_federated_cjsp_follows_a_chain_through_another_source():
    """Reproducer 1b: ``B1`` connects to the query only through ``A1``.

    With θ = 8, δ = 3 and k = 3, greedy over the union corpus picks
    ``[A1, B1]`` (coverage 9).  The federation never routes to B, whose
    region is more than δ from the query, and returns ``[A1]`` (coverage 5).
    """
    a1, b1 = row("A1", 13, 15), row("B1", 17, 20)
    query = row("q", 10, 11)
    framework = federate({"A": [a1], "B": [b1]})
    try:
        federated = framework.coverage_search(query, k=3, delta=3.0)
    finally:
        framework.close()
    single = StandardGreedy([a1, b1]).search_node(query, k=3, delta=3.0)
    assert (federated.dataset_ids, federated.total_coverage) == (
        single.dataset_ids,
        single.total_coverage,
    )


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 7")
def test_federated_ojsp_scores_a_coarser_source_on_the_center_grid():
    """Reproducer 1c: a source indexing at θ 10 under a θ 12 center.

    A dataset overlaps itself on every one of its cells, counted on the
    center's grid: a source at the center's θ or coarser can score that
    exactly.  The θ 10 source scores in its own, larger cells instead, so the
    self-overlap reads 3 where the query covers 9 center cells.
    """
    track = SpatialDataset.from_coordinates(
        "track", [(-77.0 + 0.05 * i, 38.9) for i in range(15)]
    )
    framework = MultiSourceFramework(theta=12)
    framework.add_source("coarse", [track], theta=10)
    query = framework.query_from_dataset(track)
    try:
        federated = framework.overlap_search(query, k=1)
    finally:
        framework.close()
    assert [(e.dataset_id, e.score) for e in federated] == [("track", float(query.coverage))]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 7")
def test_removing_a_sources_last_dataset_unroutes_the_source():
    """Reproducer 1d: emptying a source must leave the center consistent.

    Removing S1's only dataset raises ``EmptyDatasetError`` today, and S1
    stays in the global index, routable, with no data behind it.
    """
    framework = federate({"S1": [row("d", 10, 12)], "S2": [row("e", 20, 22)]})
    try:
        try:
            framework.remove_dataset("S1", "d")
            raised = None
        except EmptyDatasetError as exc:
            raised = exc
        routable = [s.source_id for s in framework.center.global_index.all_summaries()]
    finally:
        framework.close()
    assert raised is None
    assert routable == ["S2"]
