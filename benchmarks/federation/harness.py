"""Runs one workload in this process and returns its result document.

Protocol (the same for every workload): load the cached corpus, build the
federation several times (``setup_s``), grid the query panel, run one cold
pass and then the warm passes over the same queries, read the memory peak,
and only then verify the answers.  The loop is closed with one client.  With
``trace`` the last warm pass runs under the wrappers of :mod:`layers`; its
timings feed the per-layer metrics only.

A fixed pure-Python loop is timed before and after every pass, outside the
timed region: on a quiet host every reading is the same, so a pass whose
readings stand out was disturbed.  The readings are reported and feed no metric.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Any, Callable, Sequence

import numpy as np
import scipy

from repro import MultiSourceFramework, SpatialDataset
from repro.core.connectivity import satisfies_spatial_connectivity
from repro.core.problems import brute_force_overlap

import layers
import workloads
from workloads import Workload, Write

RESULT_SCHEMA = "repro-fedbench/v1"

SETUP_BUILDS = 3
#: Queries checked against brute force: per read-only workload, and after each
#: segment of a workload with writes.
VERIFY_SAMPLE = 50
VERIFY_SAMPLE_PER_SEGMENT = 20
#: Untraced warm passes before the traced one in a ``trace`` run.
UNTRACED_WARM_PASSES = 1
_PROBE_ITERATIONS = 1_000_000

_IMPORTED_AT = perf_counter()


def log(message: str) -> None:
    """Progress on stderr, stamped with the seconds since the worker started."""
    print(f"[fedbench +{perf_counter() - _IMPORTED_AT:5.1f}s] {message}", file=sys.stderr, flush=True)


def probe_ms() -> float:
    """Time the fixed pure-Python calibration loop (about 50 ms on the reference VM)."""
    start = perf_counter()
    total = 0
    for i in range(_PROBE_ITERATIONS):
        total += i * i
    return 1e3 * (perf_counter() - start)


# ---------------------------------------------------------------------- #
# One pass
# ---------------------------------------------------------------------- #
@dataclass
class PassResult:
    """What one pass (or churn segment) produced and how long it took."""

    kind: str  # "cold", "warm" or "traced"
    wall_s: float = 0.0
    query_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    #: Calibration-loop readings right before and right after the pass.
    probe_ms: tuple[float, float] = (0.0, 0.0)
    results: list[Any] = field(default_factory=list)
    raised: int = 0
    checksum: str = ""
    bytes_total: int = 0
    #: ``(query position, answer)`` pairs taken right after a segment's writes.
    boundary: list[tuple[int, Any]] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.query_s) + len(self.write_s)


def result_checksum(results: Sequence[Any]) -> str:
    """Order-sensitive digest of every answer of a pass."""
    digest = hashlib.sha256()
    for result in results:
        entries = getattr(result, "entries", None)
        if entries is None:
            digest.update(b"<failed>")
            continue
        digest.update(
            repr(
                [(e.dataset_id, e.score, e.source_id) for e in entries]
                + [getattr(result, "total_coverage", None)]
            ).encode()
        )
    return digest.hexdigest()[:16]


def apply_write(framework: MultiSourceFramework, write: Write) -> None:
    if write.action == "update":
        framework.update_dataset(write.source_id, write.dataset)
    elif write.action == "add":
        framework.add_dataset(write.source_id, write.dataset)
    else:
        framework.remove_dataset(write.source_id, write.dataset_id)


def timed(call: Callable[..., Any], *args: Any) -> tuple[float, Any, int]:
    """``(seconds, result, 1 if it raised else 0)`` for one operation."""
    start = perf_counter()
    try:
        result = call(*args)
    except Exception:  # a failed operation is counted and reported, never fatal
        elapsed = perf_counter() - start
        log(f"operation raised:\n{traceback.format_exc()}")
        return elapsed, None, 1
    return perf_counter() - start, result, 0


def run_pass(
    kind: str,
    framework: MultiSourceFramework,
    search: Callable[[Any], Any],
    queries: Sequence[Any],
    writes: Sequence[Write] = (),
    recorder: layers.Recorder | None = None,
) -> PassResult:
    """Execute every query once, each followed by its write if there are any."""
    done = PassResult(kind=kind)
    gc.collect()
    framework.reset_communication_stats()
    probe_before = probe_ms()
    begin = perf_counter()
    for position, query in enumerate(queries):
        if recorder is not None:
            recorder.op, recorder.phase = position, "read"
        elapsed, result, raised = timed(search, query)
        done.query_s.append(elapsed)
        done.results.append(result)
        done.raised += raised
        if writes:
            if recorder is not None:
                recorder.phase = "write"
            elapsed, _, raised = timed(apply_write, framework, writes[position])
            done.write_s.append(elapsed)
            done.raised += raised
    done.wall_s = perf_counter() - begin
    done.probe_ms = (probe_before, probe_ms())
    done.checksum = result_checksum(done.results)
    done.bytes_total = framework.communication_stats().total_bytes
    return done


def tracing_overhead(
    search: Callable[[Any], Any], queries: Sequence[Any], recorder: layers.Recorder
) -> tuple[float, int, int]:
    """``(traced / untraced latency, executions, raised)`` from paired runs.

    No ratio of one pass to another measures a few percent on a host whose
    speed drifts by tens of percent.  Instead each query runs twice back to
    back, once with the installed wrappers switched off, alternating which
    goes first (whichever runs second finds warm caches and is ~10 % faster),
    and the ratio is the geometric mean over the queries.  Runs after the
    traced pass, read-only, and feeds nothing else.
    """
    recorder.phase = "overhead"
    ratios: list[float] = []
    failures = 0
    for position, query in enumerate(queries):
        seconds = {}
        for traced in (False, True) if position % 2 else (True, False):
            recorder.enabled = traced
            seconds[traced], _, raised = timed(search, query)
            failures += raised
        ratios.append(seconds[True] / seconds[False])
    recorder.enabled = True
    return float(np.exp(np.mean(np.log(ratios)))), 2 * len(queries), failures


# ---------------------------------------------------------------------- #
# Verification (never timed)
# ---------------------------------------------------------------------- #
def verify_overlap(query: Any, result: Any, reference: dict[str, Any], k: int) -> str | None:
    """Why ``result`` is not the exact top-k overlap answer, or ``None``."""
    if result is None:
        return "raised"
    truth = brute_force_overlap(query, list(reference.values()), k).scores
    scores = [entry.score for entry in result.entries]
    if scores != truth[: len(scores)] or any(truth[len(scores) :]):
        return f"scores {scores} != brute force {truth}"
    for entry in result.entries:
        node = reference.get(entry.dataset_id)
        if node is None or len(query.cells & node.cells) != entry.score:
            return f"{entry.dataset_id}: score {entry.score} is not its overlap"
    return None


def verify_coverage(
    query: Any, result: Any, reference: dict[str, Any], k: int, delta: float
) -> str | None:
    """Why ``result`` is not a valid greedy CJSP answer, or ``None``."""
    if result is None:
        return "raised"
    ids = [entry.dataset_id for entry in result.entries]
    if len(ids) > k or len(set(ids)) != len(ids) or not set(ids) <= reference.keys():
        return f"invalid selection {ids}"
    covered = set(query.cells)
    for entry in result.entries:
        gain = len(reference[entry.dataset_id].cells - covered)
        if gain != entry.score:
            return f"{entry.dataset_id}: score {entry.score} != marginal gain {gain}"
        covered |= reference[entry.dataset_id].cells
    if result.total_coverage != len(covered):
        return f"total_coverage {result.total_coverage} != {len(covered)}"
    if not satisfies_spatial_connectivity([query, *(reference[i] for i in ids)], delta):
        return f"selection {ids} is not connected"
    return None


def sample_positions(count: int, sample: int, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return sorted(rng.permutation(count)[: min(sample, count)].tolist())


def verify_passes(
    spec: Workload,
    framework: MultiSourceFramework,
    sources: dict[str, list[SpatialDataset]],
    queries: Sequence[Any],
    passes: Sequence[PassResult],
    seed: int,
) -> list[str]:
    """Every reason an answer is wrong (empty when all are right).

    The reference is every dataset gridded on the center grid, independent of
    any index.  With writes the stream is replayed segment by segment, and
    each segment's boundary sample is checked against the data then live.
    """
    reference = {
        dataset.dataset_id: framework.query_from_dataset(dataset)
        for group in sources.values()
        for dataset in group
    }
    failures: list[str] = []
    if spec.writes:
        stream = workloads.churn_writes(sources)
        for number, done in enumerate(passes):
            for write in islice(stream, spec.writes):
                if write.dataset is None:
                    del reference[write.dataset_id]
                else:
                    reference[write.dataset_id] = framework.query_from_dataset(write.dataset)
            for position, result in done.boundary:
                why = verify_overlap(queries[position], result, reference, spec.k)
                if why is not None:
                    failures.append(f"after pass {number}, query {position}: {why}")
        return failures
    last = passes[-1]
    for position in sample_positions(len(queries), VERIFY_SAMPLE, seed):
        if spec.kind == "ojsp":
            why = verify_overlap(queries[position], last.results[position], reference, spec.k)
        else:
            why = verify_coverage(
                queries[position], last.results[position], reference, spec.k, spec.delta
            )
        if why is not None:
            failures.append(f"query {position}: {why}")
    if len({done.checksum for done in passes}) != 1:
        failures.append(f"passes disagree: checksums {[done.checksum for done in passes]}")
    return failures


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #
def build_repeatedly(
    sources: dict[str, list[SpatialDataset]], recorder: layers.Recorder | None
) -> tuple[MultiSourceFramework, list[float]]:
    """Build the federation several times; keep the last one and every timing.

    A traced run builds once untraced (first-touch page faults make the first
    build of a process up to three times slower) and once under the wrappers.
    """
    seconds: list[float] = []
    framework: MultiSourceFramework | None = None
    for number in range(SETUP_BUILDS if recorder is None else 2):
        if framework is not None:
            framework.close()
            framework = None  # dropped before the next build starts
        gc.collect()
        if recorder is not None and number == 1:
            recorder.install()
        try:
            start = perf_counter()
            framework = workloads.build_federation(sources)
            seconds.append(perf_counter() - start)
        finally:
            if recorder is not None:
                recorder.uninstall()
    assert framework is not None
    return framework, seconds


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def end_to_end_metrics(
    spec: Workload,
    warm: Sequence[PassResult],
    builds_s: Sequence[float],
    peak_rss_mb: float,
) -> dict[str, float]:
    """The end-to-end metrics of one untraced run, as clocked."""
    per_query = np.array([done.query_s for done in warm])
    # Host noise only ever adds time, so on a read-only workload a query's
    # latency is its fastest warm execution.  With writes the index differs
    # from segment to segment and that spread is signal: take the median.
    latency_s = np.median(per_query, axis=0) if spec.writes else per_query.min(axis=0)
    metrics = {
        "query_p50_ms": 1e3 * float(np.median(latency_s)),
        "query_heavy_ms": 1e3 * float(np.sort(latency_s)[-heavy_queries(len(latency_s)) :].mean()),
        "ops_per_s": warm[0].ops / min(done.wall_s for done in warm),
        "bytes_per_query": warm[0].bytes_total / len(latency_s),
        "setup_s": statistics.median(builds_s),
        "peak_rss_mb": peak_rss_mb,
    }
    if spec.writes:
        metrics["write_p50_ms"] = 1e3 * statistics.median(
            seconds for done in warm for seconds in done.write_s
        )
    return metrics


def heavy_queries(queries: int) -> int:
    """How many queries ``query_heavy_ms`` averages: the slowest tenth of the panel."""
    return -(-queries // 10)


def counter_metrics(
    framework: MultiSourceFramework,
    queries: int,
    before: dict[str, float] | None,
    after: dict[str, float] | None,
    warnings: list[str],
) -> dict[str, float | None]:
    """Per-layer metrics read from the program's own counters."""
    values: dict[str, float | None] = dict.fromkeys(layers.COUNTER_METRICS)
    if before is None or after is None:
        warnings.append(f"engine.* counters are null: cannot resolve {layers.ENGINE_STATS}")
    else:
        delta = {key: after[key] - before.get(key, 0) for key in after}
        lookups = delta.get("hits", 0) + delta.get("misses", 0)
        values.update(
            {
                "dits_g.rebuilds": delta.get("rebuild_count"),
                "engine.batch_queries_per_query": delta.get("batch_queries", 0) / queries,
                "engine.pair_queries_per_query": delta.get("pair_queries", 0) / queries,
                "engine.trees_built_per_query": delta.get("trees_built", 0) / queries,
                "engine.hit_ratio": delta.get("hits", 0) / lookups if lookups else 0.0,
                "engine.evictions": delta.get("evictions", 0),
                "engine.invalidations": delta.get("invalidations", 0),
            }
        )
    try:
        stats = [
            framework.center.source(source_id).index_stats()
            for source_id in framework.source_ids()
        ]
    except AttributeError:
        warnings.append("dits_l.* counters are null: DataSource.index_stats() is gone")
        return values
    for key, combine in (
        ("memory_bytes", sum),
        ("max_depth", max),
        ("rebalance_count", sum),
        ("leaf_merges", sum),
        ("deferred_refits", sum),
    ):
        readings = [s[key] for s in stats if isinstance(s.get(key), (int, float))]
        values[f"dits_l.{key}"] = float(combine(readings)) if readings else None
    return values


def program_counters(framework: MultiSourceFramework) -> dict[str, float] | None:
    """Cumulative engine counters plus DITS-G's rebuild count, where readable."""
    counters = layers.engine_counters()
    if counters is not None:
        try:
            counters["rebuild_count"] = float(framework.center.global_index.rebuild_count)
        except AttributeError:
            pass
    return counters


# ---------------------------------------------------------------------- #
# One workload
# ---------------------------------------------------------------------- #
def run_workload(spec: Workload, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Measure ``spec`` once and return the result document."""
    load_before = os.getloadavg()
    recorder = layers.Recorder() if trace else None
    warnings: list[str] = []

    corpus = workloads.load_corpus(spec)
    sources = workloads.cut_sources(spec, corpus)
    log(f"{spec.name}: {sum(map(len, corpus.values()))} datasets in {len(sources)} sources")
    framework, builds_s = build_repeatedly(sources, recorder)
    log(f"set-up {[round(seconds, 3) for seconds in builds_s]} s")
    queries = [
        framework.query_from_dataset(dataset)
        for dataset in workloads.query_panel(corpus, spec.queries, seed)
    ]
    if spec.kind == "ojsp":
        def search(query: Any) -> Any:
            return framework.overlap_search(query, spec.k)
    else:
        def search(query: Any) -> Any:
            return framework.coverage_search(query, spec.k, spec.delta)

    # -- passes ---------------------------------------------------------- #
    kinds = ["cold"] + ["warm"] * (UNTRACED_WARM_PASSES if trace else spec.warm_passes(seconds))
    if trace:
        kinds.append("traced")
    write_stream = workloads.churn_writes(sources)
    passes: list[PassResult] = []
    counters_before = counters_after = None
    overhead_ratio, overhead_ops, overhead_raised = 0.0, 0, 0
    for number, kind in enumerate(kinds):
        segment = list(islice(write_stream, spec.writes))  # generated here, not in the loop
        if kind == "traced":
            assert recorder is not None
            counters_before = program_counters(framework)
            recorder.install()
            try:
                done = run_pass(kind, framework, search, queries, segment, recorder)
                counters_after = program_counters(framework)
                overhead_ratio, overhead_ops, overhead_raised = tracing_overhead(
                    search, queries, recorder
                )
            finally:
                recorder.uninstall()
        else:
            done = run_pass(kind, framework, search, queries, segment)
        if segment:
            # The index just changed: answer a sample against the now-live
            # data (untimed); the answers are checked with the rest, below.
            done.boundary = [
                (position, timed(search, queries[position])[1])
                for position in sample_positions(len(queries), VERIFY_SAMPLE_PER_SEGMENT, seed + number)
            ]
        passes.append(done)
        log(f"{kind} pass: {done.wall_s:.2f} s, probe {done.probe_ms[0]:.1f} / {done.probe_ms[1]:.1f} ms")
    # Before verification grids a second copy of every dataset (ru_maxrss is
    # KiB on Linux and a high-water mark, so this is the peak up to here).
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = verify_passes(spec, framework, sources, queries, passes, seed)
    for why in failures:
        log(f"VERIFICATION FAILED: {why}")
    log(f"answers verified, {len(failures)} wrong")
    attempted = sum(done.ops for done in passes) + overhead_ops
    failed = sum(done.raised for done in passes) + overhead_raised + len(failures)

    # -- metrics --------------------------------------------------------- #
    warm = [done for done in passes if done.kind == "warm"]
    end_to_end = end_to_end_metrics(spec, warm, builds_s, peak_rss_mb)
    metrics: dict[str, float | None] = dict(end_to_end)
    if recorder is not None:
        # A traced run reports the per-layer metrics and nothing else, so its
        # timings cannot leak into an end-to-end number.
        for span_name, missing in recorder.unresolved.items():
            warnings.append(
                f"span {span_name} not traced, its metrics are null: cannot resolve {missing}"
            )
        for span_name, error in recorder.hook_errors.items():
            warnings.append(f"span {span_name}: counts at its boundary are missing: {error}")
        metrics = layers.span_metrics(recorder, len(queries))
        metrics.update(
            counter_metrics(framework, len(queries), counters_before, counters_after, warnings)
        )
        metrics["center.cold_query_ms"] = 1e3 * statistics.fmean(passes[0].query_s)
        metrics["trace.overhead_ratio"] = overhead_ratio
        metrics["write_p50_ms"] = end_to_end.get("write_p50_ms", 0.0)
        candidates = metrics["dits_g.candidates_per_query"]
        metrics["dits_g.selectivity"] = (
            None if candidates is None else candidates / len(framework.source_ids())
        )
        recorder.write(
            workloads.CACHE_DIR / f"trace-{spec.name}-seed{seed}.jsonl",
            {"workload": spec.name, "seed": seed, "queries": len(queries)},
        )
    framework.close()

    return {
        "schema": RESULT_SCHEMA,
        "workload": spec.name,
        "seed": seed,
        "trace": trace,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "sizes": {
            "datasets": sum(map(len, corpus.values())),
            "sources": len(sources),
            "queries": len(queries),
            "heavy_queries": heavy_queries(len(queries)),
            "writes_per_pass": spec.writes,
            "warm_passes": len(warm),
            "executions": attempted,
            "k": spec.k,
            "delta": spec.delta,
        },
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "verified_queries": sum(len(done.boundary) for done in passes)
        or min(VERIFY_SAMPLE, len(queries)),
        "checksums": [done.checksum for done in passes],
        "builds_s": builds_s,
        "passes": [
            {"kind": done.kind, "wall_s": done.wall_s, "ops": done.ops, "probe_ms": done.probe_ms}
            for done in passes
        ],
        "cpu_shares": layers.cpu_shares(recorder) if recorder is not None else None,
        "metrics": metrics,
        "warnings": warnings,
    }
