"""Leaf-level intersection bounds for OverlapSearch (Lemmas 2 and 3).

For a DITS-L leaf and a query cell set the paper derives two bounds from the
leaf's inverted index alone, without touching individual dataset entries:

* **Upper bound (Lemma 2)** — the number of query cells that appear as a key
  of the leaf's inverted index.  No dataset inside the leaf can overlap the
  query on more cells than that.
* **Lower bound (Lemma 3)** — the number of query cells whose posting list
  contains *every* dataset of the leaf.  Each of those cells is guaranteed to
  be shared by any dataset inside the leaf, so every dataset overlaps the
  query by at least that much.

OverlapSearch keeps candidate leaves in a priority queue ordered by upper
bound and prunes a leaf in batch whenever its upper bound cannot beat the
best lower bounds already enqueued (Algorithm 2, lines 16–22).
"""

from __future__ import annotations

from typing import Iterable

from repro.index.dits import LeafNode

__all__ = ["leaf_intersection_bounds"]


def leaf_intersection_bounds(leaf: LeafNode, query_cells: Iterable[int]) -> tuple[int, int]:
    """Return ``(lower, upper)`` intersection bounds between ``leaf`` and the query.

    Both bounds are C-level set intersections: the upper bound intersects
    the query cells with the inverted index's key set, the lower bound
    intersects the shared cells with the leaf's precomputed
    :attr:`~repro.index.dits.LeafNode.full_cells` — no per-cell posting-list
    inspection remains.
    """
    query_set = query_cells if isinstance(query_cells, (set, frozenset)) else set(query_cells)
    shared = query_set & leaf.inverted.keys()
    upper = len(shared)
    if upper == 0:
        return 0, 0
    return len(shared & leaf.full_cells), upper

