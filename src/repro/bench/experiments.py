"""Experiment drivers for the paper's tables and figures.

Two drivers cover the parameter sweeps: :func:`search_time_sweep` times every
method of one problem as one parameter moves (Figs. 9-12 and 15-18), and
:func:`communication_sweep` counts the bytes of routed-and-clipped dispatch
against broadcast (Figs. 13-14 and 19-20).  The other drivers regenerate one
table or figure each.  ``benchmarks/conftest.py`` holds the table of figure
parameters that both the benchmark tests and ``benchmarks/run_bench.py`` run.

Every driver returns a list of plain dictionaries (one row per measurement)
so the benchmark tests can both assert on the measured *shape* (who wins,
how the curve moves) and print the rows the way the paper reports them.
"""

from __future__ import annotations

import functools
import gc
import math
import time
import zlib
from typing import Sequence

import numpy as np

from repro.bench.harness import ExperimentConfig, Workbench, time_call
from repro.core.dataset import DatasetNode
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.core.problems import CoverageQuery, OverlapQuery
from repro.data.sources import SOURCE_PROFILES, build_source_datasets
from repro.distributed.center import DistributionPolicy
from repro.distributed.framework import MultiSourceFramework
from repro.index import DATASET_INDEX_CLASSES
from repro.index.dits_global import DITSGlobalIndex, SourceSummary, summary_may_contain
from repro.index.dits import DITSLocalIndex
from repro.index.stats import index_memory_bytes
from repro.search.coverage import CoverageSearch
from repro.search.coverage_baselines import StandardGreedy, StandardGreedyWithDITS
from repro.search.overlap import OverlapSearch
from repro.search.overlap_baselines import (
    JosieOverlap,
    QuadTreeOverlap,
    RTreeOverlap,
    STS3Overlap,
)

__all__ = [
    "table1_source_statistics",
    "fig7_source_heatmaps",
    "fig8_index_construction",
    "search_time_sweep",
    "communication_sweep",
    "fig21_22_index_updates",
    "fig23_global_index_churn",
    "fig24_local_index_churn",
    "OVERLAP_METHODS",
    "COVERAGE_METHODS",
    "SEARCH_AXES",
]

#: Parameter defaults mirroring Table II, shrunk where the synthetic corpora
#: are smaller than the real portals.
DEFAULT_THETA_VALUES = (10, 11, 12, 13, 14)
DEFAULT_UPDATE_BATCHES = (20, 40, 60, 80, 100)

OVERLAP_METHODS = ("OverlapSearch", "Rtree", "Josie", "QuadTree", "STS3")
COVERAGE_METHODS = ("CoverageSearch", "SG+DITS", "SG")


# ---------------------------------------------------------------------- #
# Table I / Fig. 7 — data source statistics
# ---------------------------------------------------------------------- #
def table1_source_statistics(scale: float = 0.02, seed: int = 7) -> list[dict]:
    """Per-source statistics mirroring Table I (at synthetic scale)."""
    rows = []
    for name, profile in SOURCE_PROFILES.items():
        datasets = build_source_datasets(profile, scale=scale, seed=seed)
        point_count = sum(len(dataset) for dataset in datasets)
        rows.append(
            {
                "source": name,
                "datasets": len(datasets),
                "points": point_count,
                "lon_range": f"[{profile.region.min_x:.2f}, {profile.region.max_x:.2f}]",
                "lat_range": f"[{profile.region.min_y:.2f}, {profile.region.max_y:.2f}]",
                "paper_datasets": profile.dataset_count,
            }
        )
    return rows


def fig7_source_heatmaps(
    scale: float = 0.02, seed: int = 7, theta: int = 6
) -> dict[str, list[dict]]:
    """Coarse occupancy histograms per source (the Fig. 7 heat-map analogue).

    Returns, for every source, rows of ``(cell, count)`` at a coarse
    resolution — enough to verify that the spatial skew of each profile is
    present (Transit dense and compact, BTAA sparse and wide).
    """
    grid = Grid(theta=theta)
    heatmaps: dict[str, list[dict]] = {}
    for name, profile in SOURCE_PROFILES.items():
        datasets = build_source_datasets(profile, scale=scale, seed=seed)
        counts: dict[int, int] = {}
        for dataset in datasets:
            for cell in grid.cell_ids_of(dataset.points):
                counts[cell] = counts.get(cell, 0) + 1
        heatmaps[name] = [
            {"cell": cell, "datasets": count}
            for cell, count in sorted(counts.items(), key=lambda kv: -kv[1])[:20]
        ]
    return heatmaps


# ---------------------------------------------------------------------- #
# Fig. 8 — index construction time and memory vs theta
# ---------------------------------------------------------------------- #
def fig8_index_construction(
    thetas: Sequence[int] = DEFAULT_THETA_VALUES,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """Construction time (ms) and memory (bytes) of the five indexes per theta."""
    base_bench = Workbench(config or ExperimentConfig())
    rows = []
    for theta in thetas:
        bench = base_bench.with_theta(theta)
        nodes = bench.all_nodes()
        for index_name, index_cls in DATASET_INDEX_CLASSES.items():
            index = index_cls()
            # Collect the previous build's garbage now: inside this build's
            # single timed run a full collection costs as much as the build.
            gc.collect()
            elapsed_ms, _ = time_call(lambda idx=index: idx.build(nodes))
            rows.append(
                {
                    "theta": theta,
                    "index": index_name,
                    "build_ms": elapsed_ms,
                    "memory_bytes": index_memory_bytes(index),
                    "datasets": len(nodes),
                }
            )
    return rows


# ---------------------------------------------------------------------- #
# Search time as one parameter moves (Figs. 9-12 OJSP, Figs. 15-18 CJSP)
# ---------------------------------------------------------------------- #
#: The axes each problem's search-time sweep can move.
SEARCH_AXES = {"ojsp": ("k", "theta", "q", "f"), "cjsp": ("k", "theta", "q", "delta")}
_PROBLEM_METHODS = {"ojsp": OVERLAP_METHODS, "cjsp": COVERAGE_METHODS}
#: Methods that search a DITS-L, so a leaf-capacity (``f``) sweep rebuilds them.
_ON_DITS = frozenset({"OverlapSearch", "CoverageSearch", "SG+DITS"})


def _build_methods(
    bench: Workbench, names: Sequence[str], leaf_capacity: int | None = None
) -> dict:
    """The named OJSP/CJSP methods over the workbench's nodes, in ``names`` order."""
    if not names:
        return {}
    nodes = bench.all_nodes()

    @functools.cache
    def dits() -> DITSLocalIndex:
        index = DITSLocalIndex(leaf_capacity=leaf_capacity or bench.config.leaf_capacity)
        index.build(nodes)
        return index

    builders = {
        "OverlapSearch": lambda: OverlapSearch(dits()),
        "Rtree": lambda: RTreeOverlap(bench.build_rtree(nodes)),
        "Josie": lambda: JosieOverlap(bench.build_josie(nodes)),
        "QuadTree": lambda: QuadTreeOverlap(bench.build_quadtree(nodes)),
        "STS3": lambda: STS3Overlap(bench.build_sts3(nodes)),
        "CoverageSearch": lambda: CoverageSearch(dits()),
        "SG+DITS": lambda: StandardGreedyWithDITS(dits()),
        "SG": lambda: StandardGreedy(nodes),
    }
    return {name: builders[name]() for name in names}


def _time_methods(methods: dict, requests: Sequence) -> dict[str, float]:
    """Best of 3 wall-clock readings (ms) per method, interleaved across methods.

    Each round times every method once on the whole request list, so a burst
    of host load lands on one reading of each method instead of on the only
    reading of one of them.
    """
    timings = dict.fromkeys(methods, float("inf"))
    for _ in range(3):
        for name, method in methods.items():
            elapsed_ms, _ = time_call(lambda m=method: [m.search(r) for r in requests])
            timings[name] = min(timings[name], elapsed_ms)
    return timings


def search_time_sweep(
    problem: str,
    axis: str,
    values: Sequence[float],
    *,
    k: int = 5,
    delta: float = 10.0,
    query_count: int = 5,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """Search time of each method as ``axis`` moves over ``values``.

    ``problem`` is ``"ojsp"`` (Figs. 9-12) or ``"cjsp"`` (Figs. 15-18), and
    ``axis`` one of its :data:`SEARCH_AXES`:

    * ``k`` and ``delta`` change only the query;
    * ``q`` answers the first ``q`` of ``max(values)`` sampled queries;
    * ``theta`` re-grids the corpus and rebuilds every method per value;
    * ``f`` rebuilds DITS-L at each leaf capacity and times only
      OverlapSearch against the R-tree.

    One row per ``(value, method)``: ``{axis: value, "method": ...,
    "time_ms": ...}``, the time being the best of 3 interleaved readings of
    the whole workload.
    """
    if axis not in SEARCH_AXES.get(problem, ()):
        raise ValueError(f"no {problem!r} search-time sweep over axis {axis!r}")
    names = ("OverlapSearch", "Rtree") if axis == "f" else _PROBLEM_METHODS[problem]
    base = Workbench(config or ExperimentConfig())
    # theta re-grids every method's input; f changes only the DITS-L ones.
    per_value = [n for n in names if axis == "theta" or (axis == "f" and n in _ON_DITS)]
    fixed = _build_methods(base, [n for n in names if n not in per_value])
    queries = base.query_nodes(int(max(values)) if axis == "q" else query_count)
    rows = []
    for value in values:
        bench = base
        if axis == "theta":
            bench = base.with_theta(int(value))
            queries = bench.query_nodes(query_count)
        leaf_capacity = int(value) if axis == "f" else None
        at_value = {**fixed, **_build_methods(bench, per_value, leaf_capacity)}
        k_at = int(value) if axis == "k" else k
        requests = [
            OverlapQuery(query=query, k=k_at)
            if problem == "ojsp"
            else CoverageQuery(query=query, k=k_at, delta=value if axis == "delta" else delta)
            for query in (queries[: int(value)] if axis == "q" else queries)
        ]
        timings = _time_methods({name: at_value[name] for name in names}, requests)
        rows.extend(
            {axis: value, "method": name, "time_ms": elapsed}
            for name, elapsed in timings.items()
        )
    return rows


# ---------------------------------------------------------------------- #
# Communication cost and transmission time (Figs. 13-14 OJSP, 19-20 CJSP)
# ---------------------------------------------------------------------- #
def _build_framework(config: ExperimentConfig, policy: DistributionPolicy) -> MultiSourceFramework:
    framework = MultiSourceFramework(
        theta=config.theta, leaf_capacity=config.leaf_capacity, policy=policy
    )
    for source_name in config.sources:
        datasets = build_source_datasets(
            SOURCE_PROFILES[source_name], scale=config.scale, seed=config.seed
        )
        framework.add_source(source_name, datasets)
    return framework


def communication_sweep(
    problem: str,
    q_values: Sequence[int],
    *,
    k: int = 5,
    delta: float = 10.0,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """Bytes, messages and transmission time of a federated workload as ``q`` grows.

    The method row (``OverlapSearch`` for ``"ojsp"``, ``CoverageSearch`` for
    ``"cjsp"``) uses both distribution strategies, candidate routing and
    query clipping; the ``Broadcast`` row sends the full query to every
    source, which is how the paper's comparison methods behave.
    """
    if problem not in SEARCH_AXES:
        raise ValueError(f"unknown problem {problem!r}")
    cfg = config or ExperimentConfig()
    frameworks = (
        (
            _PROBLEM_METHODS[problem][0],
            _build_framework(cfg, DistributionPolicy(route_to_candidates=True, clip_query=True)),
        ),
        (
            "Broadcast",
            _build_framework(cfg, DistributionPolicy(route_to_candidates=False, clip_query=False)),
        ),
    )
    all_queries = Workbench(cfg).query_nodes(max(q_values))
    rows = []
    try:
        for q in q_values:
            for label, framework in frameworks:
                framework.reset_communication_stats()
                for query in all_queries[:q]:
                    if problem == "ojsp":
                        framework.overlap_search(query, k)
                    else:
                        framework.coverage_search(query, k, delta)
                stats = framework.communication_stats()
                rows.append(
                    {
                        "q": q,
                        "method": label,
                        "bytes": stats.total_bytes,
                        "messages": stats.messages_sent,
                        "transmission_ms": framework.transmission_time_ms(),
                    }
                )
    finally:
        for _, framework in frameworks:
            framework.close()
    return rows


# ---------------------------------------------------------------------- #
# Fig. 23 (repo extension) — DITS-G registration churn and pruning latency
# ---------------------------------------------------------------------- #
_CHURN_REGION = BoundingBox(-125.0, 24.0, -66.0, 49.0)


def _synthetic_summaries(count: int, rng: np.random.Generator) -> list[SourceSummary]:
    """Random source summaries over a continental region (mixed MBR sizes)."""
    summaries = []
    for i in range(count):
        cx = rng.uniform(_CHURN_REGION.min_x, _CHURN_REGION.max_x)
        cy = rng.uniform(_CHURN_REGION.min_y, _CHURN_REGION.max_y)
        half_w, half_h = rng.uniform(0.05, 2.5, size=2)
        summaries.append(
            SourceSummary(
                source_id=f"src-{i:05d}",
                rect=BoundingBox(cx - half_w, cy - half_h, cx + half_w, cy + half_h),
                dataset_count=int(rng.integers(10, 5000)),
            )
        )
    return summaries


def _churn_query_rects(count: int, rng: np.random.Generator) -> list[BoundingBox]:
    rects = []
    for _ in range(count):
        cx = rng.uniform(_CHURN_REGION.min_x, _CHURN_REGION.max_x)
        cy = rng.uniform(_CHURN_REGION.min_y, _CHURN_REGION.max_y)
        half = rng.uniform(0.2, 2.0)
        rects.append(BoundingBox(cx - half, cy - half, cx + half, cy + half))
    return rects


def _candidate_checksum(index, rects: Sequence[BoundingBox], delta_geo: float) -> int:
    """Order-sensitive CRC of every query's candidate ID list (variant parity)."""
    crc = 0
    for rect in rects:
        ids = ",".join(s.source_id for s in index.candidate_sources(rect, delta_geo))
        crc = zlib.crc32(ids.encode(), crc)
    return crc


class _OneSummaryTree:
    """The paper's single DITS-G tree, rebuilt on the first query after a change.

    The baseline of Fig. 23.  The tree splits on the wider axis at the pivot
    median down to four summaries per leaf, and a query descends it on a
    node bound never stricter than
    :func:`~repro.index.dits_global.summary_may_contain`, so it answers
    exactly what the table answers.
    """

    def __init__(self) -> None:
        self.rebuild_count = 0
        self._summaries: dict[str, SourceSummary] = {}
        self._root = None  # None while stale

    def register_all(self, summaries) -> None:
        self._summaries.update((s.source_id, s) for s in summaries)
        self._root = None

    def register(self, summary: SourceSummary) -> None:
        self.register_all((summary,))

    def unregister(self, source_id: str) -> None:
        del self._summaries[source_id]
        self._root = None

    def candidate_sources(self, query_rect: BoundingBox, delta_geo: float = 0.0):
        if self._root is None and self._summaries:
            self._root = self._build(list(self._summaries.values()))
            self.rebuild_count += 1
        pivot, radius = query_rect.center, query_rect.radius
        found: list[SourceSummary] = []
        stack = [self._root] if self._summaries else []
        while stack:
            rect, children, summaries = stack.pop()
            # A summary under ``rect`` has its pivot inside it and a radius
            # of at most ``rect.radius``: this bounds its own lower bound.
            lower = max(rect.min_distance_to_point(pivot) - rect.radius - radius, 0.0)
            if rect.intersects(query_rect) or (
                delta_geo > 0 and (lower <= delta_geo or math.isclose(lower, delta_geo))
            ):
                stack.extend(children)
                found.extend(
                    s for s in summaries
                    if summary_may_contain(s.rect, query_rect, pivot, radius, delta_geo)
                )
        return sorted(found, key=lambda s: s.source_id)

    def _build(self, summaries: list[SourceSummary]):
        rect = BoundingBox.union_of(s.rect for s in summaries)
        if len(summaries) <= 4:
            return rect, (), summaries
        axis = 0 if rect.width >= rect.height else 1
        summaries.sort(key=lambda s: (s.pivot.as_tuple()[axis], s.source_id))
        middle = len(summaries) // 2
        return rect, (self._build(summaries[:middle]), self._build(summaries[middle:])), ()


def fig23_global_index_churn(
    source_counts: Sequence[int] = (250, 1000, 2000),
    churn_ops: int = 200,
    query_count: int = 50,
    delta_geo: float = 1.0,
    seed: int = 7,
) -> list[dict]:
    """DITS-G registration churn and pruning latency: one tree vs the summary table.

    The baseline row, ``one-tree``, is the paper's single DITS-G tree,
    rebuilt on the first query after a change; ``table`` is
    :class:`~repro.index.dits_global.DITSGlobalIndex`.  For every source
    count and variant the driver measures

    * ``register_ms`` — bulk-registering all sources plus the first query
      (the initial build);
    * ``churn_ms`` — ``churn_ops`` interleaved (unregister, register, query)
      steps, the worst case for rebuild cost: the tree is rebuilt whole
      after every step, the table copies its arrays once per change;
    * ``prune_ms`` — ``query_count`` candidate queries on a quiescent index;
    * ``checksum`` — CRC over the ordered candidate lists, identical across
      variants by construction (asserted by the fig23 benchmark test).
    """
    rows = []
    for sources in source_counts:
        for label, factory in (("one-tree", _OneSummaryTree), ("table", DITSGlobalIndex)):
            rng = np.random.default_rng(seed)
            summaries = _synthetic_summaries(sources, rng)
            probe_rects = _churn_query_rects(query_count, rng)
            churn_rects = _churn_query_rects(churn_ops, rng)
            replacements = _synthetic_summaries(churn_ops, np.random.default_rng(seed + 1))
            victims = rng.integers(0, sources, size=churn_ops)

            index = factory()

            def initial_build():
                index.register_all(summaries)
                index.candidate_sources(probe_rects[0], delta_geo)

            register_ms, _ = time_call(initial_build)

            def churn():
                for op in range(churn_ops):
                    victim = summaries[int(victims[op])].source_id
                    index.unregister(victim)
                    moved = SourceSummary(
                        source_id=victim,
                        rect=replacements[op].rect,
                        dataset_count=replacements[op].dataset_count,
                    )
                    index.register(moved)
                    index.candidate_sources(churn_rects[op], delta_geo)

            churn_ms, _ = time_call(churn)
            prune_ms, _ = time_call(
                lambda: [index.candidate_sources(rect, delta_geo) for rect in probe_rects]
            )
            rows.append(
                {
                    "sources": sources,
                    "variant": label,
                    "register_ms": register_ms,
                    "churn_ms": churn_ms,
                    "prune_ms": prune_ms,
                    "rebuilds": index.rebuild_count,
                    "checksum": _candidate_checksum(index, probe_rects, delta_geo),
                }
            )
    return rows


# ---------------------------------------------------------------------- #
# Figs. 21-22 — index update time
# ---------------------------------------------------------------------- #
def fig21_22_index_updates(
    batch_sizes: Sequence[int] = DEFAULT_UPDATE_BATCHES,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """Batch insert and batch update time of the five indexes (Figs. 21-22)."""
    bench = Workbench(config or ExperimentConfig())
    base_nodes = bench.all_nodes()
    grid = bench.grid
    profile = SOURCE_PROFILES[bench.config.sources[0]]
    extra_datasets = build_source_datasets(
        profile, scale=bench.config.scale, seed=bench.config.seed + 99
    )
    extra_nodes = [
        dataset.to_node(grid)
        for dataset in extra_datasets
    ]
    # Re-identify the extra nodes so they never collide with indexed IDs.
    extra_nodes = [
        DatasetNode(
            dataset_id=f"new-{i}",
            rect=node.rect,
            cells_array=node.cells_array,
            point_count=node.point_count,
        )
        for i, node in enumerate(extra_nodes)
    ]

    rows = []
    for batch in batch_sizes:
        inserts = extra_nodes[:batch]
        for index_name, index_cls in DATASET_INDEX_CLASSES.items():
            # Batch inserts (Fig. 21).
            index = index_cls()
            index.build(base_nodes)
            insert_ms, _ = time_call(
                lambda idx=index: [idx.insert(node) for node in inserts]
            )
            # Batch updates (Fig. 22): re-grid existing datasets with a shifted rect.
            index = index_cls()
            index.build(base_nodes)
            to_update = base_nodes[: min(batch, len(base_nodes))]
            replacements = [
                DatasetNode(
                    dataset_id=node.dataset_id,
                    rect=node.rect,
                    cells_array=node.cells_array,
                    point_count=node.point_count,
                )
                for node in to_update
            ]
            update_ms, _ = time_call(
                lambda idx=index, reps=replacements: [idx.update(node) for node in reps]
            )
            rows.append(
                {
                    "batch": batch,
                    "index": index_name,
                    "insert_ms": insert_ms,
                    "update_ms": update_ms,
                }
            )
    return rows


# ---------------------------------------------------------------------- #
# Fig. 24 (repo extension) — DITS-L churn: rebalancing vs a skewing tree
# ---------------------------------------------------------------------- #
def _churn_grid() -> Grid:
    return Grid(theta=10, space=BoundingBox(0.0, 0.0, 1024.0, 1024.0))


def _churn_dataset_node(grid: Grid, dataset_id: str, ox: int, oy: int, rng) -> "DatasetNode":
    extent = int(grid.space.width)
    ox = min(max(ox, 0), extent - 13)
    oy = min(max(oy, 0), extent - 13)
    cells = {
        grid.cell_id_from_coords(ox + int(rng.integers(0, 12)), oy + int(rng.integers(0, 12)))
        for _ in range(int(rng.integers(4, 16)))
    }
    return DatasetNode.from_cells(dataset_id, cells, grid)


def _churn_corpus(grid: Grid, count: int, rng) -> list[DatasetNode]:
    extent = int(grid.space.width)
    return [
        _churn_dataset_node(
            grid,
            f"ds-{i:06d}",
            int(rng.integers(0, extent)),
            int(rng.integers(0, extent)),
            rng,
        )
        for i in range(count)
    ]


def _churn_queries(grid: Grid, count: int, rng) -> list[DatasetNode]:
    extent = int(grid.space.width)
    return [
        _churn_dataset_node(
            grid,
            f"__churn_query__{i}",
            int(rng.integers(0, extent)),
            int(rng.integers(0, extent)),
            rng,
        )
        for i in range(count)
    ]


def _local_search_checksum(index: DITSLocalIndex, queries, k: int, delta: float) -> int:
    """Order-sensitive CRC over OJSP + CJSP results for every query."""
    overlap = OverlapSearch(index)
    coverage = CoverageSearch(index)
    crc = 0
    for query in queries:
        result = overlap.search_node(query, k)
        payload = ";".join(f"{e.dataset_id}:{e.score:.6f}" for e in result.entries)
        crc = zlib.crc32(payload.encode(), crc)
        selection = coverage.search_node(query, k, delta)
        payload = ";".join(f"{e.dataset_id}:{e.score:.6f}" for e in selection.entries)
        crc = zlib.crc32(payload.encode(), crc)
    return crc


def fig24_local_index_churn(
    dataset_counts: Sequence[int] = (1000, 5000, 10000),
    churn_ops: int = 1000,
    query_count: int = 12,
    k: int = 5,
    delta: float = 6.0,
    leaf_capacity: int = 30,
    query_every: int = 50,
    seed: int = 7,
) -> list[dict]:
    """DITS-L query latency and tree height under sustained local churn.

    For every corpus size the driver replays the same drifting mutation
    stream — interleaved inserts (whose cluster center slides across the
    data space, the classic skew generator), deletes and far-moving updates,
    with a query every ``query_every`` operations — against three
    maintenance policies:

    * ``static`` — the legacy never-rebalance behaviour
      (``RebalancePolicy(enabled=False)``);
    * ``rebalance`` — the default alpha-balance policy with eager refits;
    * ``deferred`` — rebalancing plus burst-batched MBR re-tightening
      (``deferred_refit=True``).

    After the stream, each variant's query workload is timed (per probe
    query the best of 5 CPU-time readings, alternating with the rebuilt
    tree's) and compared against ``rebuilt`` — a freshly bulk-built tree
    over the same final dataset set, the paper's implicit gold standard.
    ``checksum`` is a CRC over the ordered OJSP/CJSP results of every probe
    query; because the searches are exact and canonically tie-broken, every
    variant must match the rebuilt tree bit-for-bit (asserted by the fig24
    benchmark test).
    """
    from repro.index.dits_rebalance import RebalancePolicy

    variants = (
        ("static", lambda: RebalancePolicy(enabled=False)),
        ("rebalance", lambda: RebalancePolicy()),
        ("deferred", lambda: RebalancePolicy(deferred_refit=True)),
    )
    grid = _churn_grid()
    extent = int(grid.space.width)

    rows = []
    for count in dataset_counts:
        for label, policy_factory in variants:
            rng = np.random.default_rng(seed)
            corpus = _churn_corpus(grid, count, rng)
            queries = _churn_queries(grid, query_count, rng)
            op_rng = np.random.default_rng(seed + 1)

            index = DITSLocalIndex(leaf_capacity=leaf_capacity, rebalance=policy_factory())
            build_ms, _ = time_call(lambda: index.build(corpus))
            overlap = OverlapSearch(index)

            live_ids = [node.dataset_id for node in corpus]

            def churn() -> None:
                for op in range(churn_ops):
                    kind = op % 3
                    # Insert clusters drift corner-to-corner across the
                    # space so a non-rebalancing tree keeps splitting the
                    # same frontier region into an ever-deeper spine.
                    drift = int((op / max(churn_ops - 1, 1)) * (extent - 48))
                    if kind == 0 or not live_ids:
                        jitter = int(op_rng.integers(0, 48))
                        node = _churn_dataset_node(
                            grid, f"new-{op:06d}", drift + jitter, drift + jitter, op_rng
                        )
                        index.insert(node)
                        live_ids.append(node.dataset_id)
                    elif kind == 1:
                        victim = live_ids.pop(int(op_rng.integers(0, len(live_ids))))
                        index.delete(victim)
                    else:
                        moved_id = live_ids[int(op_rng.integers(0, len(live_ids)))]
                        node = _churn_dataset_node(
                            grid,
                            moved_id,
                            int(op_rng.integers(0, extent)),
                            int(op_rng.integers(0, extent)),
                            op_rng,
                        )
                        index.update(node)
                    if op % query_every == 0:
                        overlap.search_node(queries[op // query_every % len(queries)], k)

            churn_ms, _ = time_call(churn)

            rebuilt = DITSLocalIndex(leaf_capacity=leaf_capacity)
            rebuilt.build(list(index.nodes()))

            # Each probe query (OJSP then CJSP) is timed on both trees in
            # turn, five rounds with the tree order swapped every round, and
            # a tree's latency is the sum of its per-query minima.  The
            # readings are CPU time, so the scheduler's gifts to other
            # processes are charged to neither tree, and a burst of host
            # contention spoils a few short readings of both trees instead of
            # every reading of one.
            trees = [(OverlapSearch(tree), CoverageSearch(tree)) for tree in (index, rebuilt)]
            best_ms = np.full((len(trees), len(queries)), np.inf)
            gc.collect()
            for round_ in range(5):
                for q, query in enumerate(queries):
                    for t in (0, 1) if round_ % 2 == 0 else (1, 0):
                        search, cover = trees[t]
                        start = time.process_time()
                        search.search_node(query, k)
                        cover.search_node(query, k, delta)
                        elapsed_ms = (time.process_time() - start) * 1000.0
                        best_ms[t, q] = min(best_ms[t, q], elapsed_ms)
            query_ms, rebuilt_query_ms = (float(total) for total in best_ms.sum(axis=1))

            maintenance = index.rebalance_stats.as_dict()
            rows.append(
                {
                    "datasets": count,
                    "variant": label,
                    "build_ms": build_ms,
                    "churn_ms": churn_ms,
                    "query_ms": query_ms,
                    "rebuilt_query_ms": rebuilt_query_ms,
                    "height": index.height(),
                    "rebuilt_height": rebuilt.height(),
                    "rebalances": maintenance["rebalance_count"],
                    "rebuilt_entries": maintenance["rebuilt_entries"],
                    "leaf_merges": maintenance["leaf_merges"],
                    "deferred_refits": maintenance["deferred_refits"],
                    "refit_flushes": maintenance["refit_flushes"],
                    "checksum": _local_search_checksum(index, queries, k, delta),
                    "rebuilt_checksum": _local_search_checksum(rebuilt, queries, k, delta),
                }
            )
    return rows
