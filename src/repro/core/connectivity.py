"""Spatial connectivity between cell-based datasets (Definitions 7-9).

Two datasets are *directly connected* when their cell-based distance does not
exceed the threshold ``delta``.  A collection satisfies *spatial
connectivity* when every pair of datasets is directly or indirectly
connected, i.e. when the "directly connected" graph over the collection is
connected.

:class:`ConnectivityGraph` maintains that graph incrementally so CJSP result
sets can be validated cheaply, and the module-level helpers provide one-shot
predicates used by tests and by the baseline (non-indexed) greedy search.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.dataset import DatasetNode
from repro.core.distance import node_distance_bounds
from repro.core.distance_engine import get_engine
from repro.core.errors import InvalidParameterError

__all__ = [
    "is_directly_connected",
    "satisfies_spatial_connectivity",
    "connected_components",
    "ConnectivityGraph",
]


def is_directly_connected(  # public-api: pairwise oracle of the incremental-greedy parity suite
    node_a: DatasetNode, node_b: DatasetNode, delta: float
) -> bool:
    """Whether two dataset nodes are directly connected under threshold ``delta``.

    The Lemma 4 bounds are used to avoid the exact (quadratic) distance
    whenever they are decisive: if even the upper bound is within ``delta``
    the nodes must be connected, and if the lower bound already exceeds
    ``delta`` they cannot be.  Border cases fall through to the distance
    engine's δ-bounded exact predicate, which stops as soon as any cell pair
    is within ``delta`` instead of computing the true minimum.
    """
    if delta < 0:
        raise InvalidParameterError(f"delta must be non-negative, got {delta}")
    lower, upper = node_distance_bounds(node_a, node_b)
    if upper <= delta:
        return True
    if lower > delta:
        return False
    return get_engine().within_delta(node_a, node_b, delta)


def connected_components(
    nodes: Sequence[DatasetNode], delta: float
) -> list[set[str]]:
    """Partition ``nodes`` into connected components of the delta-graph."""
    graph = ConnectivityGraph(delta)
    for node in nodes:
        graph.add_node(node)
    return graph.components()


def satisfies_spatial_connectivity(nodes: Sequence[DatasetNode], delta: float) -> bool:
    """Whether the collection ``nodes`` satisfies spatial connectivity (Definition 9)."""
    if not nodes:
        return True
    return len(connected_components(nodes, delta)) == 1


class ConnectivityGraph:
    """Incremental connectivity structure over dataset nodes.

    Nodes are added one at a time; edges to previously added nodes are
    materialised by one batched ``DistanceEngine.connected_mask`` call (the
    vectorized :func:`is_directly_connected`), and a union-find keeps
    track of the components.  This matches how CJSP result sets grow: the
    greedy algorithm adds one dataset per iteration and must keep the result
    connected to the query.
    """

    def __init__(self, delta: float) -> None:
        if delta < 0:
            raise InvalidParameterError(f"delta must be non-negative, got {delta}")
        self._delta = delta
        self._nodes: dict[str, DatasetNode] = {}
        self._parent: dict[str, str] = {}
        self._rank: dict[str, int] = {}
        self._adjacency: dict[str, set[str]] = {}

    # ------------------------------------------------------------------ #
    # Union-find plumbing
    # ------------------------------------------------------------------ #
    def _find(self, node_id: str) -> str:
        root = node_id
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node_id] != root:
            self._parent[node_id], node_id = root, self._parent[node_id]
        return root

    def _union(self, id_a: str, id_b: str) -> None:
        root_a, root_b = self._find(id_a), self._find(id_b)
        if root_a == root_b:
            return
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def delta(self) -> float:
        """Connectivity threshold in grid-cell units."""
        return self._delta

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def add_node(self, node: DatasetNode) -> set[str]:
        """Add ``node`` and return the IDs it is directly connected to.

        The candidate frontier is batched: the Lemma 4 bounds settle most
        existing nodes, and the undecided remainder is resolved with one
        vectorized δ-bounded engine call instead of per-pair exact distances.
        """
        if node.dataset_id in self._nodes:
            return set(self._adjacency[node.dataset_id])
        neighbours: set[str] = set()
        if self._nodes:
            others = list(self._nodes.values())
            mask = get_engine().connected_mask(node, others, self._delta)
            neighbours = {other.dataset_id for other, ok in zip(others, mask) if ok}
        self._nodes[node.dataset_id] = node
        self._parent[node.dataset_id] = node.dataset_id
        self._rank[node.dataset_id] = 0
        self._adjacency[node.dataset_id] = set(neighbours)
        for other_id in neighbours:
            self._adjacency[other_id].add(node.dataset_id)
            self._union(node.dataset_id, other_id)
        return neighbours

    def components(self) -> list[set[str]]:
        """Connected components as sets of dataset IDs (deterministic order)."""
        groups: dict[str, set[str]] = {}
        for node_id in self._nodes:
            groups.setdefault(self._find(node_id), set()).add(node_id)
        return [groups[root] for root in sorted(groups)]
