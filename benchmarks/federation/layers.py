"""Outside-in layer trace for the federation benchmark.

The program has no span recorder of its own yet, so the benchmark installs
wrappers at class level around the public method each layer is entered
through, runs one traced pass, and removes them again.  Every wrapped call
becomes a span: name, wall start/end (``perf_counter``), CPU of the calling
thread (``thread_time``), the span that caused it, the operation it belongs
to and the thread it ran on.  Spans stay in memory and are written as JSON
lines when the run ends.

Busy is thread CPU; wait is wall minus CPU (GIL and scheduler); a span's self
time is its own minus what its children on the same thread used.  Nothing in
this module runs during an untraced measurement.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time, thread_time
from typing import Any, Callable, Iterable

import numpy as np

TRACE_SCHEMA = "repro-fedbench-trace/v1"

#: Span name -> the public callables it wraps, by dotted name.  This table is
#: the only place the benchmark names program internals: a name a later change
#: renames or deletes turns the metrics of its span into ``null`` with a
#: warning and leaves the end-to-end run alone.
TRACED_SYMBOLS: dict[str, tuple[str, ...]] = {
    "center.query": (
        "repro.distributed.center.DataCenter.overlap_search",
        "repro.distributed.center.DataCenter.coverage_search",
    ),
    "center.refresh": ("repro.distributed.center.DataCenter.refresh_source",),
    "center.register": ("repro.distributed.center.DataCenter.register_source",),
    "dits_g.route": (
        "repro.index.dits_global_sharded.ShardedDITSGlobalIndex.candidate_sources",
    ),
    "dits_g.register": ("repro.index.dits_global_sharded.ShardedDITSGlobalIndex.register",),
    "dispatch.map": ("repro.distributed.executor.SourceDispatcher.map",),
    "channel.send": ("repro.distributed.channel.SimulatedChannel.send",),
    "source.handle": (
        "repro.distributed.source.DataSource.handle_overlap",
        "repro.distributed.source.DataSource.handle_coverage",
    ),
    "source.write": (
        "repro.distributed.source.DataSource.update_dataset",
        "repro.distributed.source.DataSource.add_dataset",
        "repro.distributed.source.DataSource.remove_dataset",
    ),
    "source.load": ("repro.distributed.source.DataSource.load_datasets",),
    "overlap.search": ("repro.search.overlap.OverlapSearch.search_node",),
    "coverage.search": ("repro.search.coverage.CoverageSearch.search_node",),
    "engine.kernel": (
        "repro.core.distance_engine.DistanceEngine.connected_mask",
        "repro.core.distance_engine.DistanceEngine.within_delta_many",
        "repro.core.distance_engine.DistanceEngine.min_distances",
        "repro.core.distance_engine.DistanceEngine.within_delta",
        "repro.core.distance_engine.DistanceEngine.pair_distance",
    ),
    "dits_l.build": ("repro.index.dits.DITSLocalIndex.build",),
    "grid.to_node": ("repro.core.dataset.SpatialDataset.to_node",),
}
#: Counter readers that are called, not wrapped; resolved the same way.
ENGINE_STATS = "repro.index.stats.distance_engine_stats"

_MISSING = object()


def resolve(dotted: str) -> tuple[Any, str] | None:
    """``(owner, attribute)`` for a dotted name, or ``None`` if it is gone."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
            getattr(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1]
    return None


def unresolved_symbols() -> list[str]:
    """Every dotted name in the tables that does not resolve on this tree."""
    names = [name for group in TRACED_SYMBOLS.values() for name in group] + [ENGINE_STATS]
    return [name for name in names if resolve(name) is None]


def engine_counters() -> dict[str, float] | None:
    """The process-wide distance engine's cumulative counters, if readable."""
    target = resolve(ENGINE_STATS)
    if target is None:
        return None
    stats = getattr(*target)()
    return {key: value for key, value in stats.items() if isinstance(value, (int, float))}


# ---------------------------------------------------------------------- #
# Recording
# ---------------------------------------------------------------------- #
class Span:
    """One wrapped call."""

    __slots__ = ("id", "name", "parent", "op", "phase", "thread", "start", "end", "cpu", "attrs")

    def __init__(self, span_id: int, name: str, parent: int, op: int, phase: str) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.phase = phase
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.cpu = 0.0
        self.attrs: dict[str, Any] | None = None

    @property
    def wall(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    """Collects spans while its wrappers are installed.

    ``op`` and ``phase`` are set by the benchmark loop (one client, closed
    loop, so one operation is in flight at a time); ``list.append`` is atomic
    under the GIL, so pool threads record without a lock.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self.phase = "setup"
        self.enabled = True  # off: installed wrappers call straight through
        self.unresolved: dict[str, list[str]] = {}
        self.hook_errors: dict[str, str] = {}  # span name -> why its counts are missing
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------- #
    def install(self) -> None:
        """Wrap every resolvable symbol; remember what could not be found."""
        self.unresolved = {}
        for span_name, group in TRACED_SYMBOLS.items():
            targets = [resolve(dotted) for dotted in group]
            missing = [dotted for dotted, target in zip(group, targets) if target is None]
            if missing:
                # A partly traced layer would report partial numbers as whole.
                self.unresolved[span_name] = missing
                continue
            for owner, attribute in targets:  # type: ignore[misc]
                original = getattr(owner, attribute)
                self._installed.append(
                    (owner, attribute, vars(owner).get(attribute, _MISSING))
                )
                setattr(owner, attribute, self._wrapper(span_name, attribute, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        for owner, attribute, previous in reversed(self._installed):
            if previous is _MISSING:
                delattr(owner, attribute)  # it was inherited
            else:
                setattr(owner, attribute, previous)
        self._installed.clear()

    # -- wrappers -------------------------------------------------------- #
    def _wrapper(self, span_name: str, attribute: str, original: Callable) -> Callable:
        before, after = _HOOKS.get(span_name, (None, None))
        traced = self.traced

        if span_name == "engine.kernel":
            # Kernels call each other (connected_mask -> within_delta_many);
            # only the outermost call on a thread is a span.
            local = self._local

            def kernel(*args: Any, **kwargs: Any) -> Any:
                if getattr(local, "in_kernel", False):
                    return original(*args, **kwargs)
                local.in_kernel = True
                try:
                    return traced(span_name, original, args, kwargs)
                finally:
                    local.in_kernel = False

            return kernel

        prepare = self._trace_tasks if span_name == "dispatch.map" else None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return traced(span_name, original, args, kwargs, None, prepare, before, after, attribute)

        return wrapper

    def _trace_tasks(self, span: Span, args: tuple) -> tuple:
        """Wrap the function ``SourceDispatcher.map`` is about to fan out.

        Tasks run on pool threads, whose span stacks are empty, so each one
        is handed its parent explicitly.
        """
        if len(args) < 2 or not callable(args[1]):
            return args
        function = args[1]

        def task(item: Any) -> Any:
            return self.traced("dispatch.task", function, (item,), {}, span.id)

        return (args[0], task, *args[2:])

    def traced(
        self,
        span_name: str,
        function: Callable,
        args: tuple,
        kwargs: dict,
        parent: int | None = None,
        prepare: Callable | None = None,
        before: Callable | None = None,
        after: Callable | None = None,
        label: str | None = None,
    ) -> Any:
        """Call ``function`` inside a new span and return its result."""
        if not self.enabled:
            return function(*args, **kwargs)
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if parent is None:
            parent = stack[-1] if stack else -1
        span = Span(next(self._ids), span_name, parent, self.op, self.phase)
        if prepare is not None:
            args = prepare(span, args)
        token = before() if before is not None else None
        stack.append(span.id)
        # CPU is read inside the wall interval, so wait = wall - cpu >= 0.
        span.start = perf_counter()
        cpu_start = thread_time()
        try:
            result = function(*args, **kwargs)
        finally:
            span.cpu = thread_time() - cpu_start
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)
        if after is not None:
            try:
                span.attrs = after(token, label, args, kwargs, result)
            except Exception as error:  # a count we cannot take never fails the call
                self.hook_errors[span_name] = repr(error)
        return result

    # -- output ---------------------------------------------------------- #
    def write(self, path: Path, header: dict[str, Any]) -> None:
        """Write the header and every span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": TRACE_SCHEMA, **header}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.as_json()) + "\n")


# ---------------------------------------------------------------------- #
# Counts taken at the span boundary (``after`` hooks return span attrs)
# ---------------------------------------------------------------------- #
def _after_query(token: float, _label: str, _args: tuple, _kwargs: dict, result: Any) -> dict:
    entries = getattr(result, "entries", ())
    return {
        "process_cpu": process_time() - token,
        "answer_sources": len({getattr(entry, "source_id", None) for entry in entries}),
    }


def _after_route(_token: Any, _label: str, _args: tuple, _kwargs: dict, result: Any) -> dict:
    return {"candidates": len(result)}


def _after_send(_token: Any, _label: str, args: tuple, kwargs: dict, result: Any) -> dict:
    to_center = kwargs.get("to_center", args[3] if len(args) > 3 else False)
    return {"bytes": result, "to_center": bool(to_center)}


def _after_search(_token: Any, _label: str, args: tuple, _kwargs: dict, _result: Any) -> dict:
    stats = getattr(args[0], "last_stats", None)
    return {
        slot: value
        for slot in getattr(stats, "__slots__", ())
        if isinstance(value := getattr(stats, slot), int)
    }


def _after_write(_token: Any, label: str, _args: tuple, _kwargs: dict, _result: Any) -> dict:
    return {"method": label}


_HOOKS: dict[str, tuple[Callable | None, Callable | None]] = {
    "center.query": (process_time, _after_query),
    "dits_g.route": (None, _after_route),
    "channel.send": (None, _after_send),
    "overlap.search": (None, _after_search),
    "coverage.search": (None, _after_search),
    "source.write": (None, _after_write),
}


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #
class _Unresolved(Exception):
    """A metric needs a span whose symbols could not be wrapped."""


class SpanTree:
    """Spans indexed by name and by parent, with the derived times."""

    def __init__(self, spans: Iterable[Span], unresolved: Iterable[str]) -> None:
        self._unresolved = set(unresolved)
        self._by_id: dict[int, Span] = {}
        self._by_name: dict[tuple[str, str], list[Span]] = defaultdict(list)
        self._children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            self._by_id[span.id] = span
            self._by_name[span.phase, span.name].append(span)
            self._children[span.parent].append(span)

    def named(self, name: str, phase: str = "read") -> list[Span]:
        needs = "dispatch.map" if name == "dispatch.task" else name
        if needs in self._unresolved:
            raise _Unresolved(needs)
        return self._by_name.get((phase, name), [])

    def children(self, span: Span) -> list[Span]:
        return self._children.get(span.id, [])

    def parent_name(self, span: Span) -> str | None:
        parent = self._by_id.get(span.parent)
        return parent.name if parent is not None else None

    def under(self, span: Span, ancestor: str) -> bool:
        """Whether some ancestor of ``span`` is named ``ancestor``."""
        current = self._by_id.get(span.parent)
        while current is not None:
            if current.name == ancestor:
                return True
            current = self._by_id.get(current.parent)
        return False

    def self_cpu(self, span: Span) -> float:
        """CPU of ``span`` minus its children's on the same thread."""
        return span.cpu - sum(
            child.cpu for child in self.children(span) if child.thread == span.thread
        )

    def total_cpu(self, span: Span) -> float:
        """CPU of ``span`` and everything below it, on every thread."""
        total = span.cpu
        for child in self.children(span):
            total += self.total_cpu(child)
            if child.thread == span.thread:
                total -= child.cpu  # already inside span.cpu
        return total

    def uncovered_wall(self, span: Span) -> float:
        """Wall time of ``span`` during which none of its children ran."""
        covered = 0.0
        reach = span.start
        for child in sorted(self.children(span), key=lambda c: c.start):
            if child.end > reach:
                covered += child.end - max(child.start, reach)
                reach = child.end
        return span.wall - covered


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile; 0 for an empty sample."""
    data = list(values)
    return float(np.percentile(data, q)) if data else 0.0


def _mean(values: Iterable[float]) -> float:
    data = list(values)
    return sum(data) / len(data) if data else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _attr(spans: Iterable[Span], key: str) -> float:
    return float(sum((span.attrs or {}).get(key, 0) for span in spans))


def _share(spans: list[Span], part: str, rest: str) -> float:
    """``part / (part + rest)`` over two counters summed across ``spans``."""
    counted = _attr(spans, part)
    return _ratio(counted, counted + _attr(spans, rest))


def _sent_bytes(tree: SpanTree, to_center: bool) -> float:
    return _attr(
        (s for s in tree.named("channel.send") if bool((s.attrs or {}).get("to_center")) == to_center),
        "bytes",
    )


def _request_maps(tree: SpanTree) -> list[Span]:
    """``dispatch.map`` calls that fan requests out (not DITS-G shard pruning)."""
    return [
        span for span in tree.named("dispatch.map") if tree.parent_name(span) == "center.query"
    ]


def _request_tasks(tree: SpanTree) -> list[Span]:
    maps = {span.id for span in _request_maps(tree)}
    return [span for span in tree.named("dispatch.task") if span.parent in maps]


def _kernels(tree: SpanTree, at_source: bool) -> list[Span]:
    return [
        span
        for span in tree.named("engine.kernel")
        if tree.under(span, "source.handle") == at_source
    ]


def _handle_max_ms(tree: SpanTree) -> float:
    slowest: dict[int, float] = defaultdict(float)
    for span in tree.named("source.handle"):
        slowest[span.op] = max(slowest[span.op], span.wall)
    return 1e3 * _mean(slowest.values())


def _write_ms(tree: SpanTree, method: str) -> float:
    return 1e3 * _mean(
        span.wall
        for span in tree.named("source.write", "write")
        if (span.attrs or {}).get("method") == method
    )


def _prune_ratio(tree: SpanTree) -> float:
    searches = tree.named("overlap.search")
    pruned = _attr(searches, "pruned_by_mbr") + _attr(searches, "pruned_by_bounds")
    visited = (
        _attr(searches, "visited_internal")
        + _attr(searches, "visited_leaves")
        + _attr(searches, "pruned_by_mbr")
    )
    return _ratio(pruned, visited)


def _unattributed(tree: SpanTree) -> float:
    queries = tree.named("center.query")
    return 1.0 - _ratio(
        sum(tree.total_cpu(span) for span in queries), _attr(queries, "process_cpu")
    )


#: Per-layer metric -> (unit, better, how to compute it).  ``n`` is the number
#: of queries in the traced pass; time metrics are means per query unless the
#: name says otherwise.  Metrics that come from counters outside the spans are
#: listed in :data:`COUNTER_METRICS` and filled in by the harness.
SPAN_METRICS: dict[str, tuple[str, str, Callable[[SpanTree, int], float]]] = {
    "center.self_cpu_ms": (
        "ms", "lower",
        lambda t, n: 1e3 * sum(map(t.self_cpu, t.named("center.query"))) / n,
    ),
    "center.refresh_ms": (
        "ms", "lower", lambda t, n: 1e3 * _mean(s.wall for s in t.named("center.refresh", "write")),
    ),
    "center.register_ms": (
        "ms", "lower", lambda t, n: 1e3 * _mean(s.wall for s in t.named("center.register", "setup")),
    ),
    "dits_g.route_cpu_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(map(t.total_cpu, t.named("dits_g.route"))) / n,
    ),
    "dits_g.route_wait_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(s.wall - s.cpu for s in t.named("dits_g.route")) / n,
    ),
    "dits_g.candidates_per_query": (
        "count", "lower", lambda t, n: _attr(t.named("dits_g.route"), "candidates") / n,
    ),
    "dits_g.register_ms": (
        "ms", "lower", lambda t, n: 1e3 * _mean(s.wall for s in t.named("dits_g.register", "setup")),
    ),
    "dispatch.wall_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(s.wall for s in _request_maps(t)) / n,
    ),
    "dispatch.wait_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(map(t.uncovered_wall, _request_maps(t))) / n,
    ),
    "dispatch.parallelism": (
        "ratio", "higher",
        lambda t, n: _ratio(
            sum(map(t.total_cpu, _request_tasks(t))), sum(s.wall for s in _request_maps(t))
        ),
    ),
    "dispatch.tasks_per_query": ("count", "lower", lambda t, n: len(_request_tasks(t)) / n),
    "channel.send_cpu_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(s.cpu for s in t.named("channel.send")) / n,
    ),
    "channel.messages_per_query": (
        "count", "lower", lambda t, n: len(t.named("channel.send")) / n,
    ),
    "channel.bytes_to_sources_per_query": (
        "bytes", "lower", lambda t, n: _sent_bytes(t, to_center=False) / n,
    ),
    "channel.bytes_to_center_per_query": (
        "bytes", "lower", lambda t, n: _sent_bytes(t, to_center=True) / n,
    ),
    "channel.ns_per_byte": (
        "ns", "lower",
        lambda t, n: _ratio(
            1e9 * sum(s.cpu for s in t.named("channel.send")),
            _attr(t.named("channel.send"), "bytes"),
        ),
    ),
    "source.handle_cpu_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(s.cpu for s in t.named("source.handle")) / n,
    ),
    "source.handle_max_ms": ("ms", "lower", lambda t, n: _handle_max_ms(t)),
    "source.self_cpu_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(map(t.self_cpu, t.named("source.handle"))) / n,
    ),
    "source.wait_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(s.wall - s.cpu for s in t.named("source.handle")) / n,
    ),
    "source.contacted_per_query": (
        "count", "lower", lambda t, n: len(t.named("source.handle")) / n,
    ),
    "source.useful_ratio": (
        "ratio", "higher",
        lambda t, n: _ratio(
            _attr(t.named("center.query"), "answer_sources"), len(t.named("source.handle"))
        ),
    ),
    "source.update_ms": ("ms", "lower", lambda t, n: _write_ms(t, "update_dataset")),
    "source.add_ms": ("ms", "lower", lambda t, n: _write_ms(t, "add_dataset")),
    "source.remove_ms": ("ms", "lower", lambda t, n: _write_ms(t, "remove_dataset")),
    "source.write_p90_ms": (
        "ms", "lower",
        lambda t, n: 1e3 * percentile((s.wall for s in t.named("source.write", "write")), 90),
    ),
    "source.load_s": (
        "s", "lower", lambda t, n: sum(s.wall for s in t.named("source.load", "setup")),
    ),
    "overlap.search_cpu_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(s.cpu for s in t.named("overlap.search")) / n,
    ),
    "overlap.candidate_leaves_per_query": (
        "count", "lower", lambda t, n: _attr(t.named("overlap.search"), "candidate_leaves") / n,
    ),
    "overlap.verified_per_query": (
        "count", "lower", lambda t, n: _attr(t.named("overlap.search"), "verified_datasets") / n,
    ),
    "overlap.prune_ratio": ("ratio", "higher", lambda t, n: _prune_ratio(t)),
    "coverage.self_cpu_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(map(t.self_cpu, t.named("coverage.search"))) / n,
    ),
    "coverage.iterations_per_query": (
        "count", "lower", lambda t, n: _attr(t.named("coverage.search"), "iterations") / n,
    ),
    "coverage.exact_checks_per_query": (
        "count", "lower",
        lambda t, n: _attr(t.named("coverage.search"), "exact_distance_checks") / n,
    ),
    "coverage.gain_evals_per_query": (
        "count", "lower", lambda t, n: _attr(t.named("coverage.search"), "gain_evaluations") / n,
    ),
    "coverage.gain_skip_ratio": (
        "ratio", "higher",
        lambda t, n: _share(t.named("coverage.search"), "gain_skips", "gain_evaluations"),
    ),
    "coverage.subtree_reject_ratio": (
        "ratio", "higher",
        lambda t, n: _share(t.named("coverage.search"), "subtree_rejects", "subtree_accepts"),
    ),
    "engine.kernel_source_cpu_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(s.cpu for s in _kernels(t, at_source=True)) / n,
    ),
    "engine.kernel_center_cpu_ms": (
        "ms", "lower", lambda t, n: 1e3 * sum(s.cpu for s in _kernels(t, at_source=False)) / n,
    ),
    "dits_l.build_s": (
        "s", "lower", lambda t, n: sum(s.wall for s in t.named("dits_l.build", "setup")),
    ),
    "grid.to_node_s": (
        "s", "lower", lambda t, n: sum(s.wall for s in t.named("grid.to_node", "setup")),
    ),
    "grid.to_node_ms": (
        "ms", "lower", lambda t, n: 1e3 * _mean(s.wall for s in t.named("grid.to_node", "write")),
    ),
    "trace.unattributed_ratio": ("ratio", "lower", lambda t, n: _unattributed(t)),
}

#: Per-layer metrics read from the program's own counters or from the
#: harness's clocks rather than from spans: name -> (unit, better).
COUNTER_METRICS: dict[str, tuple[str, str]] = {
    "center.cold_query_ms": ("ms", "lower"),
    "dits_g.selectivity": ("ratio", "lower"),
    "dits_g.rebuilds": ("count", "lower"),
    "engine.batch_queries_per_query": ("count", "lower"),
    "engine.pair_queries_per_query": ("count", "lower"),
    "engine.trees_built_per_query": ("count", "lower"),
    "engine.hit_ratio": ("ratio", "higher"),
    "engine.evictions": ("count", "lower"),
    "engine.invalidations": ("count", "lower"),
    "dits_l.memory_bytes": ("bytes", "lower"),
    "dits_l.max_depth": ("count", "lower"),
    "dits_l.rebalance_count": ("count", "lower"),
    "dits_l.leaf_merges": ("count", "lower"),
    "dits_l.deferred_refits": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "write_p50_ms": ("ms", "lower"),
}


def span_metrics(recorder: Recorder, queries: int) -> dict[str, float | None]:
    """Every span-derived metric; ``None`` where the span could not be traced."""
    tree = SpanTree(recorder.spans, recorder.unresolved)
    values: dict[str, float | None] = {}
    for name, (_unit, _better, compute) in SPAN_METRICS.items():
        try:
            values[name] = float(compute(tree, queries))
        except _Unresolved:
            values[name] = None
    return values


def cpu_shares(recorder: Recorder) -> dict[str, float]:
    """Each span name's share of the CPU spent under ``center.query`` spans.

    The numbers behind the workload table's "who does the work" column:
    self CPU per span name over all threads, as a share of their sum.
    """
    tree = SpanTree(recorder.spans, ())
    totals: dict[str, float] = defaultdict(float)
    for span in recorder.spans:
        if span.phase == "read" and (span.name == "center.query" or tree.under(span, "center.query")):
            totals[span.name] += tree.self_cpu(span)
    whole = sum(totals.values())
    return {name: _ratio(cpu, whole) for name, cpu in sorted(totals.items())}
