"""Experiment drivers: one function per paper table/figure.

Every driver returns a list of plain dictionaries (one row per measurement)
so the benchmark tests can both assert on the measured *shape* (who wins,
how the curve moves) and print the rows the way the paper reports them.
The drivers deliberately accept the sweep values as arguments with defaults
matching Table II of the paper, scaled to the synthetic corpora.
"""

from __future__ import annotations

import gc
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
from repro.index.dits_global import SourceSummary
from repro.index.dits_global_sharded import ShardedDITSGlobalIndex, ShardPolicy
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
    "fig9_overlap_vs_k",
    "fig10_overlap_vs_theta",
    "fig11_overlap_vs_q",
    "fig12_overlap_vs_leaf_capacity",
    "fig13_14_overlap_communication",
    "fig15_coverage_vs_k",
    "fig16_coverage_vs_theta",
    "fig17_coverage_vs_q",
    "fig18_coverage_vs_delta",
    "fig19_20_coverage_communication",
    "fig21_22_index_updates",
    "fig23_global_index_churn",
    "fig24_local_index_churn",
    "OVERLAP_METHODS",
    "COVERAGE_METHODS",
]

#: Parameter defaults mirroring Table II, shrunk where the synthetic corpora
#: are smaller than the real portals.
DEFAULT_K_VALUES = (2, 4, 6, 8, 10)
DEFAULT_Q_VALUES = (2, 4, 6, 8, 10)
DEFAULT_THETA_VALUES = (10, 11, 12, 13, 14)
DEFAULT_DELTA_VALUES = (0.0, 5.0, 10.0, 15.0, 20.0)
DEFAULT_LEAF_CAPACITIES = (10, 20, 30, 40, 50)
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
# OJSP search-time sweeps (Figs. 9-12)
# ---------------------------------------------------------------------- #
def _overlap_methods(bench: Workbench, leaf_capacity: int | None = None):
    """Build all five OJSP methods over the workbench's nodes."""
    nodes = bench.all_nodes()
    dits = DITSLocalIndex(leaf_capacity=leaf_capacity or bench.config.leaf_capacity)
    dits.build(nodes)
    rtree = bench.build_rtree(nodes)
    quad = bench.build_quadtree(nodes)
    sts3 = bench.build_sts3(nodes)
    josie = bench.build_josie(nodes)
    return {
        "OverlapSearch": OverlapSearch(dits),
        "Rtree": RTreeOverlap(rtree),
        "Josie": JosieOverlap(josie),
        "QuadTree": QuadTreeOverlap(quad),
        "STS3": STS3Overlap(sts3),
    }


def _run_overlap_workload(
    methods, queries, k: int, repeats: int = 3
) -> dict[str, float]:
    """Best-of-``repeats`` time (ms) per method to answer every query in ``queries``.

    The OJSP workloads are sub-millisecond per query at laptop scale, so each
    measurement is repeated and the minimum kept to suppress cold-cache and
    scheduler noise.
    """
    timings: dict[str, float] = {}
    for name, method in methods.items():
        def run(m=method):
            for query in queries:
                m.search(OverlapQuery(query=query, k=k))
        elapsed_ms, _ = time_call(run, repeats=repeats)
        timings[name] = elapsed_ms
    return timings


def fig9_overlap_vs_k(
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    query_count: int = 5,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """OJSP search time of the five methods as ``k`` grows (Fig. 9)."""
    bench = Workbench(config or ExperimentConfig())
    methods = _overlap_methods(bench)
    queries = bench.query_nodes(query_count)
    rows = []
    for k in k_values:
        timings = _run_overlap_workload(methods, queries, k)
        for name, elapsed in timings.items():
            rows.append({"k": k, "method": name, "time_ms": elapsed, "queries": query_count})
    return rows


def fig10_overlap_vs_theta(
    thetas: Sequence[int] = DEFAULT_THETA_VALUES,
    k: int = 5,
    query_count: int = 5,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """OJSP search time as the grid resolution grows (Fig. 10)."""
    base_bench = Workbench(config or ExperimentConfig())
    rows = []
    for theta in thetas:
        bench = base_bench.with_theta(theta)
        methods = _overlap_methods(bench)
        queries = bench.query_nodes(query_count)
        timings = _run_overlap_workload(methods, queries, k)
        for name, elapsed in timings.items():
            rows.append({"theta": theta, "method": name, "time_ms": elapsed})
    return rows


def fig11_overlap_vs_q(
    q_values: Sequence[int] = DEFAULT_Q_VALUES,
    k: int = 5,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """OJSP search time as the number of queries grows (Fig. 11)."""
    bench = Workbench(config or ExperimentConfig())
    methods = _overlap_methods(bench)
    all_queries = bench.query_nodes(max(q_values))
    rows = []
    for q in q_values:
        timings = _run_overlap_workload(methods, all_queries[:q], k)
        for name, elapsed in timings.items():
            rows.append({"q": q, "method": name, "time_ms": elapsed})
    return rows


def fig12_overlap_vs_leaf_capacity(
    capacities: Sequence[int] = DEFAULT_LEAF_CAPACITIES,
    k: int = 5,
    query_count: int = 5,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """OJSP search time of OverlapSearch vs. the R-tree as ``f`` grows (Fig. 12)."""
    bench = Workbench(config or ExperimentConfig())
    nodes = bench.all_nodes()
    queries = bench.query_nodes(query_count)
    rtree = bench.build_rtree(nodes)
    rtree_method = RTreeOverlap(rtree)
    rows = []
    for capacity in capacities:
        dits = DITSLocalIndex(leaf_capacity=capacity)
        dits.build(nodes)
        methods = {"OverlapSearch": OverlapSearch(dits), "Rtree": rtree_method}
        timings = _run_overlap_workload(methods, queries, k)
        for name, elapsed in timings.items():
            rows.append({"f": capacity, "method": name, "time_ms": elapsed})
    return rows


# ---------------------------------------------------------------------- #
# Figs. 13-14 — OJSP communication cost and transmission time
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


def fig13_14_overlap_communication(
    q_values: Sequence[int] = DEFAULT_Q_VALUES,
    k: int = 5,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """Bytes transferred and transmission time for OJSP as ``q`` grows.

    ``OverlapSearch`` uses both distribution strategies (candidate routing +
    query clipping); the baselines broadcast the full query to every source,
    which is how the paper's comparison methods behave.
    """
    cfg = config or ExperimentConfig()
    optimised = _build_framework(cfg, DistributionPolicy(route_to_candidates=True, clip_query=True))
    broadcast = _build_framework(cfg, DistributionPolicy(route_to_candidates=False, clip_query=False))
    bench = Workbench(cfg)
    all_queries = bench.query_nodes(max(q_values))

    rows = []
    for q in q_values:
        queries = all_queries[:q]
        for label, framework in (("OverlapSearch", optimised), ("Broadcast", broadcast)):
            framework.reset_communication_stats()
            for query in queries:
                framework.overlap_search(query, k)
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
    return rows


# ---------------------------------------------------------------------- #
# CJSP search-time sweeps (Figs. 15-18)
# ---------------------------------------------------------------------- #
def _coverage_methods(bench: Workbench):
    nodes = bench.all_nodes()
    dits = bench.build_dits(nodes)
    return {
        "CoverageSearch": CoverageSearch(dits),
        "SG+DITS": StandardGreedyWithDITS(dits),
        "SG": StandardGreedy(nodes),
    }


def _run_coverage_workload(methods, queries, k: int, delta: float) -> dict[str, float]:
    timings: dict[str, float] = {}
    for name, method in methods.items():
        def run(m=method):
            for query in queries:
                m.search(CoverageQuery(query=query, k=k, delta=delta))
        elapsed_ms, _ = time_call(run)
        timings[name] = elapsed_ms
    return timings


def fig15_coverage_vs_k(
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    delta: float = 10.0,
    query_count: int = 3,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """CJSP search time of the three methods as ``k`` grows (Fig. 15)."""
    bench = Workbench(config or ExperimentConfig())
    methods = _coverage_methods(bench)
    queries = bench.query_nodes(query_count)
    rows = []
    for k in k_values:
        timings = _run_coverage_workload(methods, queries, k, delta)
        for name, elapsed in timings.items():
            rows.append({"k": k, "method": name, "time_ms": elapsed})
    return rows


def fig16_coverage_vs_theta(
    thetas: Sequence[int] = DEFAULT_THETA_VALUES,
    k: int = 5,
    delta: float = 10.0,
    query_count: int = 3,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """CJSP search time as the grid resolution grows (Fig. 16)."""
    base_bench = Workbench(config or ExperimentConfig())
    rows = []
    for theta in thetas:
        bench = base_bench.with_theta(theta)
        methods = _coverage_methods(bench)
        queries = bench.query_nodes(query_count)
        timings = _run_coverage_workload(methods, queries, k, delta)
        for name, elapsed in timings.items():
            rows.append({"theta": theta, "method": name, "time_ms": elapsed})
    return rows


def fig17_coverage_vs_q(
    q_values: Sequence[int] = DEFAULT_Q_VALUES,
    k: int = 5,
    delta: float = 10.0,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """CJSP search time as the number of queries grows (Fig. 17)."""
    bench = Workbench(config or ExperimentConfig())
    methods = _coverage_methods(bench)
    all_queries = bench.query_nodes(max(q_values))
    rows = []
    for q in q_values:
        timings = _run_coverage_workload(methods, all_queries[:q], k, delta)
        for name, elapsed in timings.items():
            rows.append({"q": q, "method": name, "time_ms": elapsed})
    return rows


def fig18_coverage_vs_delta(
    delta_values: Sequence[float] = DEFAULT_DELTA_VALUES,
    k: int = 5,
    query_count: int = 3,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """CJSP search time as the connectivity threshold grows (Fig. 18)."""
    bench = Workbench(config or ExperimentConfig())
    methods = _coverage_methods(bench)
    queries = bench.query_nodes(query_count)
    rows = []
    for delta in delta_values:
        timings = _run_coverage_workload(methods, queries, k, delta)
        for name, elapsed in timings.items():
            rows.append({"delta": delta, "method": name, "time_ms": elapsed})
    return rows


# ---------------------------------------------------------------------- #
# Figs. 19-20 — CJSP communication cost and transmission time
# ---------------------------------------------------------------------- #
def fig19_20_coverage_communication(
    q_values: Sequence[int] = DEFAULT_Q_VALUES,
    k: int = 5,
    delta: float = 10.0,
    config: ExperimentConfig | None = None,
) -> list[dict]:
    """Bytes transferred and transmission time for CJSP as ``q`` grows."""
    cfg = config or ExperimentConfig()
    optimised = _build_framework(cfg, DistributionPolicy(route_to_candidates=True, clip_query=True))
    broadcast = _build_framework(cfg, DistributionPolicy(route_to_candidates=False, clip_query=False))
    bench = Workbench(cfg)
    all_queries = bench.query_nodes(max(q_values))

    rows = []
    for q in q_values:
        queries = all_queries[:q]
        for label, framework in (("CoverageSearch", optimised), ("Broadcast", broadcast)):
            framework.reset_communication_stats()
            for query in queries:
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


def fig23_global_index_churn(
    source_counts: Sequence[int] = (250, 1000, 2000),
    shard_counts: Sequence[int] = (4, 16),
    churn_ops: int = 200,
    query_count: int = 50,
    delta_geo: float = 1.0,
    seed: int = 7,
) -> list[dict]:
    """DITS-G registration churn and pruning latency, one shard vs many.

    The baseline row, ``sharded-1``, keeps every summary in one tree and
    defers rebuilds to the next query: the paper's single DITS-G tree.  For
    every source count and index variant the driver measures

    * ``register_ms`` — bulk-registering all sources plus the first query
      (the initial build);
    * ``churn_ms`` — ``churn_ops`` interleaved (mutate, query) steps, the
      worst case for rebuild cost: the one-shard index reconstructs its
      whole tree after every mutation, the many-shard index only the
      touched shard;
    * ``prune_ms`` — ``query_count`` candidate queries on a quiescent index;
    * ``checksum`` — CRC over the ordered candidate lists, identical across
      variants by construction (asserted by the fig23 benchmark test).

    ``shard_counts`` must not contain 1: that label is the baseline's.
    """
    if 1 in shard_counts:
        raise ValueError("shard_counts must not contain 1; sharded-1 is the baseline")

    def variants():
        yield "sharded-1", lambda: ShardedDITSGlobalIndex(
            ShardPolicy(shard_count=1, defer_rebuild=True)
        )
        for count in shard_counts:
            yield (
                f"sharded-{count}",
                lambda c=count: ShardedDITSGlobalIndex(ShardPolicy(shard_count=c)),
            )

    rows = []
    for sources in source_counts:
        for label, factory in variants():
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

    After the stream, each variant's query workload is timed (best of 5) and
    compared against ``rebuilt`` — a freshly bulk-built tree over the same
    final dataset set, the paper's implicit gold standard.  ``checksum`` is
    a CRC over the ordered OJSP/CJSP results of every probe query; because
    the searches are exact and canonically tie-broken, every variant must
    match the rebuilt tree bit-for-bit (asserted by the fig24 benchmark
    test).
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

            def query_workload(idx: DITSLocalIndex) -> None:
                search = OverlapSearch(idx)
                cover = CoverageSearch(idx)
                for query in queries:
                    search.search_node(query, k)
                    cover.search_node(query, k, delta)

            # Best-of-5: the per-query latencies are small enough that one
            # scheduler hiccup would otherwise dominate the comparison.
            query_ms, _ = time_call(lambda: query_workload(index), repeats=5)

            rebuilt = DITSLocalIndex(leaf_capacity=leaf_capacity)
            rebuilt.build(list(index.nodes()))
            rebuilt_query_ms, _ = time_call(lambda: query_workload(rebuilt), repeats=5)

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
