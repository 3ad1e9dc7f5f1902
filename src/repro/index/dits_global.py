"""DITS-G building blocks: source summaries and the Section VI-A pruning tree.

Each data source builds its own DITS-L and ships only its *root summary*
(MBR, pivot, radius, dataset count) to the data center, converted to
geographic coordinates so that sources gridded at different resolutions can
coexist.  The data center arranges these summaries into the same kind of
binary tree as DITS-L (without leaf inverted indexes) and uses it to answer
one question: *which sources could possibly contain results for this query?*

Pruning rules (Section VI-A):

* a source whose MBR does not intersect the query MBR cannot contribute to
  OJSP results;
* for CJSP, a source whose distance lower bound to the query exceeds the
  connectivity threshold ``delta`` cannot contain directly connected
  datasets.

The candidate set is *defined* as the set of summaries passing the
per-summary predicate (:func:`summary_may_contain`); internal tree nodes are
pruned with a bound (:func:`node_may_contain`) that is provably never
stricter than any contained summary's predicate, so the answer does not
depend on the shape of the tree.  That invariant lets the one DITS-G,
:class:`~repro.index.dits_global_sharded.ShardedDITSGlobalIndex`, split the
summaries into any number of trees (one per shard) and still return exactly
the flat predicate's candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.geometry import BoundingBox, Point

__all__ = [
    "SourceSummary",
    "summary_may_contain",
    "node_may_contain",
    "build_summary_tree",
]

DEFAULT_FANOUT = 4


@dataclass(frozen=True, slots=True)
class SourceSummary:
    """A data source's root-node summary in geographic coordinates."""

    source_id: str
    rect: BoundingBox
    dataset_count: int

    @property
    def pivot(self) -> Point:
        """Centre of the source's MBR."""
        return self.rect.center

    @property
    def radius(self) -> float:
        """Half of the MBR diagonal."""
        return self.rect.radius

    def wire_payload(self) -> dict[str, object]:
        """Compact payload for communication accounting."""
        return {
            "source": self.source_id,
            "rect": self.rect.as_tuple(),
            "count": self.dataset_count,
        }


class _GlobalNode:
    """Internal/leaf node of the global tree over source summaries."""

    __slots__ = ("rect", "pivot", "radius", "children", "summaries")

    def __init__(
        self,
        rect: BoundingBox,
        children: list["_GlobalNode"] | None = None,
        summaries: list[SourceSummary] | None = None,
    ) -> None:
        self.rect = rect
        self.pivot = rect.center
        self.radius = rect.radius
        self.children = children or []
        self.summaries = summaries or []

    def is_leaf(self) -> bool:
        return not self.children


def build_summary_tree(
    summaries: list[SourceSummary], leaf_capacity: int
) -> _GlobalNode:
    """Build the DITS-G binary tree over ``summaries`` (non-empty)."""
    rect = BoundingBox.union_of(summary.rect for summary in summaries)
    if len(summaries) <= leaf_capacity:
        return _GlobalNode(rect, summaries=summaries)
    split_dim = 0 if rect.width >= rect.height else 1
    ordered = sorted(
        summaries,
        key=lambda s: (s.pivot.x if split_dim == 0 else s.pivot.y, s.source_id),
    )
    midpoint = len(ordered) // 2
    left = build_summary_tree(ordered[:midpoint], leaf_capacity)
    right = build_summary_tree(ordered[midpoint:], leaf_capacity)
    return _GlobalNode(rect, children=[left, right])


def collect_candidates(
    root: _GlobalNode | None,
    query_rect: BoundingBox,
    delta_geo: float,
    out: list[SourceSummary],
) -> None:
    """Append every summary under ``root`` passing the pruning predicate."""
    if root is None:
        return
    query_pivot = query_rect.center
    query_radius = query_rect.radius
    stack = [root]
    while stack:
        node = stack.pop()
        if not node_may_contain(node.rect, query_rect, query_pivot, query_radius, delta_geo):
            continue
        if node.is_leaf():
            for summary in node.summaries:
                if summary_may_contain(
                    summary.rect, query_rect, query_pivot, query_radius, delta_geo
                ):
                    out.append(summary)
        else:
            stack.extend(node.children)


def summary_may_contain(
    rect: BoundingBox,
    query_rect: BoundingBox,
    query_pivot: Point,
    query_radius: float,
    delta_geo: float,
) -> bool:
    """Pruning predicate of Section VI-A applied to one source summary."""
    if rect.intersects(query_rect):
        return True
    if delta_geo <= 0:
        return False
    pivot_distance = rect.center.distance_to(query_pivot)
    lower_bound = max(pivot_distance - rect.radius - query_radius, 0.0)
    return lower_bound <= delta_geo or math.isclose(lower_bound, delta_geo)


def node_may_contain(
    rect: BoundingBox,
    query_rect: BoundingBox,
    query_pivot: Point,
    query_radius: float,
    delta_geo: float,
) -> bool:
    """Whether a tree node could hold a summary passing :func:`summary_may_contain`.

    For any summary under the node, the summary's pivot lies inside the node
    rect and its radius is at most the node radius, so
    ``min_distance_to_point(query_pivot) - rect.radius - query_radius`` is a
    lower bound on every contained summary's own pruning bound.  Descending
    on this weaker bound guarantees the candidate set equals the flat
    per-summary filter regardless of how the summaries are split into nodes
    (or into shards).
    """
    if rect.intersects(query_rect):
        return True
    if delta_geo <= 0:
        return False
    lower_bound = max(
        rect.min_distance_to_point(query_pivot) - rect.radius - query_radius, 0.0
    )
    return lower_bound <= delta_geo or math.isclose(lower_bound, delta_geo)
