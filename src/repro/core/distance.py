"""Cell-based dataset distances and the node distance bounds of Lemma 4.

Definition 6 measures the distance between two cell-based datasets as the
Euclidean distance between their two closest cells (in grid coordinates).
The exact computation is quadratic in the number of cells, so CoverageSearch
relies on cheap lower/upper bounds derived from the pivot/radius of each
dataset node (Lemma 4):

    max(||p1 - p2|| - r1 - r2, 0)  <=  dist(S1, S2)  <=  ||p1 - p2|| + r1 + r2

The bounds let FindConnectSet accept whole subtrees (upper bound <= delta)
or reject them (lower bound > delta) without touching individual cells.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
from scipy.spatial import cKDTree

from repro.core.dataset import DatasetNode
from repro.core.distance_engine import (
    KDTREE_PAIR_THRESHOLD,
    cell_coords_of_array,
    get_engine,
)
from repro.core.errors import EmptyDatasetError
from repro.utils import cellsets
from repro.utils.zorder import zorder_decode

__all__ = [
    "cell_distance",
    "cell_set_distance",
    "node_distance_bounds",
    "exact_node_distance",
]


def cell_distance(cell_a: int, cell_b: int) -> float:  # public-api: scalar Def. 6 test oracle
    """Euclidean distance between two cells identified by z-order IDs.

    Cell IDs are decoded into grid coordinates and compared with the L2
    norm, so horizontally/vertically adjacent cells are at distance 1 and
    diagonal neighbours at ``sqrt(2)``.
    """
    ax, ay = zorder_decode(cell_a)
    bx, by = zorder_decode(cell_b)
    return math.hypot(ax - bx, ay - by)


def cell_set_distance(  # public-api: the stateless Def. 6 oracle of the engine parity suites
    cells_a: Iterable[int], cells_b: Iterable[int]
) -> float:
    """Exact distance between two cell-based datasets (Definition 6).

    The distance is the minimum pairwise cell distance.  Small instances
    compute the full pairwise distance matrix in one vectorized pass (after
    an early exit at distance 0 for shared cells); large instances build a
    KD-tree over the smaller set and run one vectorised nearest-neighbour
    query, which keeps the multi-thousand-cell datasets of the worldwide
    portals tractable.  Grid coordinates are integers, so the squared
    distances are exact in float64 and both paths return bit-identical
    results.

    This is the stateless reference kernel for raw cell-ID iterables;
    node-level callers go through :class:`~repro.core.distance_engine.DistanceEngine`,
    which caches decoded coordinates and KD-trees per dataset id.
    """
    set_a = cells_a if isinstance(cells_a, frozenset) else frozenset(cells_a)
    set_b = cells_b if isinstance(cells_b, frozenset) else frozenset(cells_b)
    if not set_a or not set_b:
        raise EmptyDatasetError("cell set distance requires two non-empty sets")
    if set_a & set_b:
        return 0.0
    coords_a = cell_coords_of_array(cellsets.as_cell_array(set_a))
    coords_b = cell_coords_of_array(cellsets.as_cell_array(set_b))
    if coords_a.shape[0] * coords_b.shape[0] <= KDTREE_PAIR_THRESHOLD:
        deltas = coords_a[:, None, :] - coords_b[None, :, :]
        return float(np.sqrt(np.einsum("ijk,ijk->ij", deltas, deltas).min()))
    if coords_a.shape[0] > coords_b.shape[0]:
        coords_a, coords_b = coords_b, coords_a
    distances, _ = cKDTree(coords_a).query(coords_b, k=1)
    return float(distances.min())


def exact_node_distance(  # public-api: the exact-distance oracle of the connectivity tests
    node_a: DatasetNode, node_b: DatasetNode
) -> float:
    """Exact cell-based distance between the cells of two dataset nodes.

    Delegates to the default :class:`~repro.core.distance_engine.DistanceEngine`
    so decoded coordinates and KD-trees are reused across calls.
    """
    return get_engine().pair_distance(node_a, node_b)


def node_distance_bounds(node_a: DatasetNode, node_b: DatasetNode) -> tuple[float, float]:
    """Both Lemma 4 bounds as ``(lower, upper)`` in one pivot-distance pass."""
    pivot_distance = node_a.pivot.distance_to(node_b.pivot)
    slack = node_a.radius + node_b.radius
    return max(pivot_distance - slack, 0.0), pivot_distance + slack

