"""Churn invariants: random mutation streams vs a freshly rebuilt DITS-L.

This is the harness the PR-5 rebalancer must pass (and the bar every future
mutation-path change must clear): hypothesis drives random interleaved
insert/update/delete sequences against every rebalance policy, with the
product's array arithmetic and with the frozenset oracle (``set_oracle.py``),
then asserts

(a) the leaf registry (``leaf_for``) stays consistent with the ``leaves()``
    traversal,
(b) every node's MBR equals the exact union of its descendants' rects (after
    the deferred-refit flush a query triggers), subtree sizes match, empty
    leaves are collapsed, and
(c) OverlapSearch and CoverageSearch answer bit-identically to a freshly
    bulk-built tree over the same datasets — for any tree shape the churn
    produced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import DatasetNode
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.index.dits import DITSLocalIndex, InternalNode, LeafNode
from repro.index.dits_rebalance import RebalancePolicy
from repro.search.coverage import CoverageSearch
from repro.search.overlap import OverlapSearch

from set_oracle import ARITHMETICS, arithmetic

GRID = Grid(theta=8, space=BoundingBox(0, 0, 256, 256))

POLICIES = {
    "default": RebalancePolicy(),
    "deferred": RebalancePolicy(deferred_refit=True),
    "disabled": RebalancePolicy(enabled=False),
}


def make_node(name: str, rng: np.random.Generator) -> DatasetNode:
    ox = int(rng.integers(0, 244))
    oy = int(rng.integers(0, 244))
    cells = {
        GRID.cell_id_from_coords(ox + int(rng.integers(0, 12)), oy + int(rng.integers(0, 12)))
        for _ in range(int(rng.integers(2, 10)))
    }
    return DatasetNode.from_cells(name, cells, GRID)


def apply_ops(index: DITSLocalIndex, ops: list[int], seed: int) -> None:
    """Deterministically replay ``ops`` (0=insert, 1=delete, 2=update)."""
    rng = np.random.default_rng(seed)
    fresh = 0
    for op in ops:
        live = index.dataset_ids()
        if op == 0 or not live:
            index.insert(make_node(f"new-{fresh:04d}", rng))
            fresh += 1
        elif op == 1:
            index.delete(live[int(rng.integers(0, len(live)))])
        else:
            moved = live[int(rng.integers(0, len(live)))]
            index.update(make_node(moved, rng))


def check_registry(index: DITSLocalIndex) -> None:
    """Invariant (a): the leaf registry agrees with ``leaves()``."""
    leaves = list(index.leaves())
    registry_ids: list[str] = []
    for leaf in leaves:
        for dataset_id in leaf.dataset_ids():
            assert index.leaf_for(dataset_id) is leaf
            registry_ids.append(dataset_id)
    assert sorted(registry_ids) == index.dataset_ids()


def check_tree_invariants(index: DITSLocalIndex) -> None:
    """Invariant (b): exact MBRs, consistent sizes, no empty leaves."""
    if not index.is_built():
        assert len(index) == 0
        return

    def check(node) -> tuple[int, BoundingBox]:
        if isinstance(node, LeafNode):
            assert node.entries
            assert node.size == len(node.entries)
            tight = BoundingBox.union_of(entry.rect for entry in node.entries)
            assert node.rect == tight
            return node.size, tight
        assert isinstance(node, InternalNode)
        assert node.left.parent is node
        assert node.right.parent is node
        left_size, left_rect = check(node.left)
        right_size, right_rect = check(node.right)
        assert node.size == left_size + right_size
        assert node.rect == left_rect.union(right_rect)
        return node.size, node.rect

    total, _ = check(index.root)
    assert total == len(index)


def check_search_parity(index: DITSLocalIndex, seed: int) -> None:
    """Invariant (c): bit-identical OJSP/CJSP answers vs a fresh rebuild."""
    rebuilt = DITSLocalIndex(leaf_capacity=index.leaf_capacity)
    rebuilt.build(list(index.nodes()))
    rng = np.random.default_rng(seed + 9999)
    queries = [make_node(f"__q{i}", rng) for i in range(3)]
    overlap_a, overlap_b = OverlapSearch(index), OverlapSearch(rebuilt)
    coverage_a, coverage_b = CoverageSearch(index), CoverageSearch(rebuilt)
    for k in (1, 4):
        for query in queries:
            got = [(e.dataset_id, e.score) for e in overlap_a.search_node(query, k).entries]
            want = [(e.dataset_id, e.score) for e in overlap_b.search_node(query, k).entries]
            assert got == want
            got = [
                (e.dataset_id, e.score)
                for e in coverage_a.search_node(query, k, 6.0).entries
            ]
            want = [
                (e.dataset_id, e.score)
                for e in coverage_b.search_node(query, k, 6.0).entries
            ]
            assert got == want


class TestChurnInvariants:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("backend", ARITHMETICS)
    @settings(max_examples=12, deadline=None)
    @given(
        ops=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=30),
        initial=st.integers(min_value=0, max_value=40),
        capacity=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_churn_keeps_all_invariants(
        self, policy_name, backend, ops, initial, capacity, seed
    ):
        with arithmetic(backend):
            index = DITSLocalIndex(leaf_capacity=capacity, rebalance=POLICIES[policy_name])
            rng = np.random.default_rng(seed)
            index.build([make_node(f"ds-{i:04d}", rng) for i in range(initial)])
            apply_ops(index, ops, seed)
            check_registry(index)
            check_tree_invariants(index)
            check_search_parity(index, seed)

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_drain_and_refill(self, policy_name):
        """Empty the index through churn, then grow it back."""
        index = DITSLocalIndex(leaf_capacity=3, rebalance=POLICIES[policy_name])
        rng = np.random.default_rng(42)
        nodes = [make_node(f"ds-{i:04d}", rng) for i in range(25)]
        index.build(nodes)
        for node in nodes:
            index.delete(node.dataset_id)
        assert len(index) == 0
        assert not index.is_built()
        for node in nodes:
            index.insert(node)
        check_registry(index)
        check_tree_invariants(index)
        check_search_parity(index, 42)
