"""Known gaps between federated and single-site answers, pinned as strict xfails.

Each test states the contract the federation should meet and fails today
for the reason its marker names.  ``strict=True`` makes the change that fixes
a behaviour flip the marker in the same diff; ``raises=AssertionError``
keeps an unrelated crash from passing as the expected failure.
"""

from __future__ import annotations

import pytest

from repro.core.dataset import DatasetNode
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


def federate(held: dict[str, list[DatasetNode]]) -> MultiSourceFramework:
    """One source per entry of ``held``, registered in its order, on ``GRID``."""
    framework = MultiSourceFramework(theta=THETA)
    for source_id, nodes in held.items():
        framework.add_source_from_nodes(source_id, nodes)
    return framework


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
@pytest.mark.parametrize("order", [("S1", "S2"), ("S2", "S1")])
def test_federated_ojsp_breaks_score_ties_by_dataset_id(order):
    """Reproducer 1a: two sources tie on overlap 4; the smaller id must win.

    The federation merges per-source answers by source order and returns
    ``d_b`` in either registration order; one DITS-L over both datasets
    returns ``d_a``.
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
