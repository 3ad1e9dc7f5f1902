"""Federated-query benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/federation/run.py [--workload W] [--seed 7] [--seconds 16]
                                         [--trace [0|1]] [--repeat N] [--json out.json]
    python3 benchmarks/federation/run.py compare A.json B.json

Each workload runs in a fresh worker process (the distance engine is
process-wide and ``peak_rss_mb`` is per process) with ``PYTHONHASHSEED=0`` and
the ``REPRO_*`` tuning variables removed.  The worker measures (see
``harness.py``); this file starts it, prints its report and, as the last line
for each run, the one-line JSON result the PR gate reads.  ``--trace`` reports
the per-layer metrics from a separate traced run instead of the end-to-end
ones.  ``compare`` judges two result files against the metrics' ceilings.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, NamedTuple, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
PROGRAM = REPO_ROOT / "src" / "repro"
for entry in (str(REPO_ROOT / "src"), str(BENCH_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import layers  # noqa: E402  (needs the path set above; pulls in numpy only)

DEFAULT_SEED = 7
DEFAULT_SECONDS = 16  # BENCHMARK.json's run_seconds
WORKER_TIMEOUT_S = 170
#: Environment variables that change how the program runs; a benchmark worker
#: never inherits them.
_DROPPED_ENV = ("REPRO_CELLSET_BACKEND", "REPRO_DISTANCE_CACHE_SIZE")
_DROPPED_ENV_PREFIX = "REPRO_BENCH_"

class EndToEnd(NamedTuple):
    """An end-to-end metric: its unit, direction and the two bounds it is held to.

    ``ceiling`` is what ``compare`` applies to the medians of two sets of
    repeated runs with one seed (the issue's numbers; ``bytes_per_query`` is a
    count that repeats exactly there).  ``gate`` is the bound in
    ``BENCHMARK.json``, which the PR gate applies to single runs across ten
    seeds: at least three times the quartile distance measured between such
    runs on the reference VM (README, "Measured spread"), and 0.25 is the most
    the gate accepts.
    """

    unit: str
    better: str
    ceiling: float
    gate: float


#: ``write_p50_ms`` exists on ``churn-mixed`` only, so ``BENCHMARK.json``
#: (whose end-to-end metrics must be non-zero on every workload) lists it with
#: the per-layer metrics; ``compare`` still holds it to its ceiling.
END_TO_END: dict[str, EndToEnd] = {
    "query_p50_ms": EndToEnd("ms", "lower", 0.10, 0.25),
    "query_heavy_ms": EndToEnd("ms", "lower", 0.15, 0.25),
    "ops_per_s": EndToEnd("ops/s", "higher", 0.10, 0.25),
    "bytes_per_query": EndToEnd("bytes", "lower", 0.0, 0.01),
    "setup_s": EndToEnd("s", "lower", 0.15, 0.25),
    "peak_rss_mb": EndToEnd("MiB", "lower", 0.05, 0.05),
    "write_p50_ms": EndToEnd("ms", "lower", 0.15, 0.25),
}

_DEFINITIONS = {
    "query_p50_ms": "median over the queries of each query's latency",
    "query_heavy_ms": "mean latency of the slowest tenth of the queries",
    "ops_per_s": "operations / wall of the fastest warm pass (closed loop, one client)",
    "bytes_per_query": "requests + responses on the channel, first warm pass",
    "setup_s": "median federation build: gridding + DITS-L + DITS-G registration",
    "peak_rss_mb": "ru_maxrss of the worker after the last pass (before verification)",
    "write_p50_ms": "median latency of update/add/remove incl. refresh_source",
}


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def worker_main(args: argparse.Namespace) -> int:
    """Measure one workload in this process; the document goes to stdout."""
    import harness
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    if args.smoke:
        spec = spec.smoke()
    document = harness.run_workload(spec, args.seed, args.seconds, bool(args.trace))
    json.dump(document, sys.stdout)
    return 0


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
def spawn_worker(workload: str, args: argparse.Namespace) -> dict[str, Any]:
    """Run one workload in a fresh, clean-environment process."""
    environment = {
        key: value
        for key, value in os.environ.items()
        if key not in _DROPPED_ENV and not key.startswith(_DROPPED_ENV_PREFIX)
    }
    environment["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    worker = subprocess.Popen(command, stdout=subprocess.PIPE, env=environment, text=True)
    try:
        output, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    if worker.returncode != 0:
        raise SystemExit(f"worker for {workload} exited with code {worker.returncode}")
    return json.loads(output)


def gate_metric_names(trace: bool) -> list[str]:
    """The metric names ``BENCHMARK.json`` lists for this kind of run."""
    if trace:
        return [*layers.SPAN_METRICS, *layers.COUNTER_METRICS]
    return [name for name in END_TO_END if name != "write_p50_ms"]


def metric_unit(name: str) -> str:
    for table in (END_TO_END, layers.SPAN_METRICS, layers.COUNTER_METRICS):
        if name in table:
            return table[name][0]
    raise KeyError(name)


def gate_line(document: dict[str, Any]) -> str:
    """The one-line result: every listed metric as a number (``null`` -> 0)."""
    metrics = document["metrics"]
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {"value": metrics.get(name) or 0.0, "unit": metric_unit(name)}
                for name in gate_metric_names(document["trace"])
            },
        }
    )


def print_report(document: dict[str, Any]) -> None:
    sizes = document["sizes"]
    mode = "traced (per-layer metrics)" if document["trace"] else "untraced (end-to-end metrics)"
    print(f"== {document['workload']} | seed {document['seed']} | {mode} ==")
    passes = document["passes"]
    per_pass = f"{sizes['queries']} queries"
    if sizes["writes_per_pass"]:
        per_pass += f" alternating with {sizes['writes_per_pass']} writes"
    print(
        f"   {sizes['datasets']} datasets in {sizes['sources']} sources; "
        f"{len(passes)} passes ({' '.join(p['kind'] for p in passes)}) of {per_pass}; "
        f"k={sizes['k']}" + (f" delta={sizes['delta']}" if sizes["delta"] else "")
    )
    for name, value in document["metrics"].items():
        shown = "null (not traced)" if value is None else f"{value:.6g}"
        print(f"   {name:<36} {shown:>14} {metric_unit(name):<6} {_DEFINITIONS.get(name, '')}")
    if not document["trace"]:
        how = "median across" if sizes["writes_per_pass"] else "fastest of"
        print(
            f"   latency per query: {how} its {sizes['warm_passes']} warm executions; "
            f"p50 over the {sizes['queries']} queries, heavy = the slowest {sizes['heavy_queries']}"
        )
    checksums = document["checksums"]
    same = "identical in every pass" if len(set(checksums)) == 1 else " ".join(checksums)
    print(
        f"   ops: {document['attempted']} attempted, {document['failed']} failed; "
        f"{document['verified_queries']} answers verified; result checksum {checksums[0]} ({same})"
    )
    print("   pass wall s: " + " ".join(f"{p['kind']}={p['wall_s']:.2f}" for p in passes))
    print(
        "   calibration loop before/after each pass, ms (a reading far from the others marks a "
        "disturbed pass): " + " ".join("{:.1f}/{:.1f}".format(*p["probe_ms"]) for p in passes)
    )
    if document["cpu_shares"]:
        shares = sorted(document["cpu_shares"].items(), key=lambda item: -item[1])
        print("   CPU shares: " + ", ".join(f"{name} {share:.1%}" for name, share in shares))
    host = document["host"]
    print(
        f"   builds s: {' '.join(format(seconds, '.3f') for seconds in document['builds_s'])}; "
        f"loadavg {document['loadavg_before'][0]:.2f} -> {document['loadavg_after'][0]:.2f}; "
        f"nproc {host['nproc']}, python {host['python']}, numpy {host['numpy']}, "
        f"scipy {host['scipy']}"
    )
    for warning in document["warnings"]:
        print(f"   WARNING: {warning}")
    print(gate_line(document), flush=True)


def run_main(args: argparse.Namespace) -> int:
    if args.workload:
        names = [args.workload]
    else:
        import workloads

        names = list(workloads.WORKLOADS)
    documents = []
    for name in names:
        for _ in range(args.repeat):
            document = spawn_worker(name, args)
            documents.append(document)
            print_report(document)
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": documents}, indent=1) + "\n")
    return 0 if all(document["correct"] for document in documents) else 1


# ---------------------------------------------------------------------- #
# compare
# ---------------------------------------------------------------------- #
def _spread(values: Sequence[float]) -> float:
    """Interquartile range (plain range below four runs; 0 for one run)."""
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return quartiles[2] - quartiles[0]
    return max(values) - min(values)


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> tuple[float, float, str]:
    """``(worsening, spread, verdict)`` as shares of the baseline's median.

    ``worse``: the median is past the bound by more than the two sets' own
    spread.  ``unresolved``: the spread reaches across the bound, so the runs
    cannot tell which side of it the change is on.  ``better``: every changed
    run beats every baseline run, by more than the spread.
    """
    base_median = statistics.median(base)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (statistics.median(change) - base_median) / base_median
    spread = max(_spread(base), _spread(change)) / base_median
    if worsening - spread > bound:
        return worsening, spread, "worse"
    if worsening + spread > bound:
        return worsening, spread, "unresolved"
    separated = (
        max(change) < min(base) if better == "lower" else min(change) > max(base)
    ) and min(len(base), len(change)) >= 2
    if separated and -worsening > spread:
        return worsening, spread, "better"
    return worsening, spread, "same"


def _inputs(run: dict[str, Any]) -> dict[str, Any]:
    """What a run measured: two runs compare only when these are equal.

    ``--seconds`` sets the warm passes and latency is the fastest of them, so
    the statistic itself moves with the flag; the seed sets the queries.
    """
    sizes = {key: value for key, value in run["sizes"].items() if key != "executions"}
    return {"seed": run["seed"], **sizes}


def compare_main(paths: Sequence[str]) -> int:
    """Print the comparison table; 0 only if no median is past its ceiling."""
    if len(paths) != 2:
        raise SystemExit("usage: run.py compare A.json B.json")
    sides = []
    for path in paths:
        runs: dict[str, list[dict[str, Any]]] = {}
        for run in json.loads(Path(path).read_text())["runs"]:
            if not run["trace"]:
                runs.setdefault(run["workload"], []).append(run)
        sides.append(runs)
    base_runs, change_runs = sides
    print(f"A = {paths[0]}   B = {paths[1]}   (medians; worsening and spread as shares of A)")
    print(
        f"{'workload':<14} {'metric':<16} {'unit':<6} {'A':>12} {'B':>12} "
        f"{'worsening':>10} {'spread':>8} {'ceiling':>7}  n    verdict"
    )
    status = 0
    for workload in base_runs:
        if workload not in change_runs:
            continue
        both = base_runs[workload] + change_runs[workload]
        differing = sorted(
            key for key in _inputs(both[0]) if len({str(_inputs(r)[key]) for r in both}) > 1
        )
        if differing:
            print(f"{workload:<14} NOT COMPARED: the runs differ in {', '.join(differing)}")
            status = 2
            continue
        for name, metric in END_TO_END.items():
            base = [r["metrics"][name] for r in base_runs[workload] if name in r["metrics"]]
            change = [r["metrics"][name] for r in change_runs[workload] if name in r["metrics"]]
            if not base or not change:
                continue
            worsening, spread, outcome = verdict(base, change, metric.better, metric.ceiling)
            # A median past its ceiling fails even while the spread leaves it
            # unresolved: more runs settle it, silence would not.
            past = worsening > metric.ceiling
            print(
                f"{workload:<14} {name:<16} {metric.unit:<6} {statistics.median(base):>12.6g} "
                f"{statistics.median(change):>12.6g} {worsening:>+10.2%} {spread:>8.2%} "
                f"{metric.ceiling:>7.0%}  {len(base)}/{len(change)}  {outcome}"
                + (", median past the ceiling" if past and outcome != "worse" else "")
            )
            if past:
                status = status or 1
        checksums = [
            sorted({tuple(r["checksums"]) for r in runs[workload]})
            for runs in (base_runs, change_runs)
        ]
        agree = "agree" if checksums[0] == checksums[1] else "DIFFER"
        probes = [
            statistics.median(ms for r in runs[workload] for p in r["passes"] for ms in p["probe_ms"])
            for runs in (base_runs, change_runs)
        ]
        print(
            f"{workload:<14} result checksums {agree}; "
            f"calibration loop A {probes[0]:.1f} ms, B {probes[1]:.1f} ms"
        )
    return status


# ---------------------------------------------------------------------- #
def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="measuring time per run; sets the number of warm passes",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run instead of end-to-end ones",
    )  # fmt: skip
    parser.add_argument("--repeat", type=int, default=1, help="fresh runs per workload")
    parser.add_argument("--json", help="write every run's result document to this file")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    args = parse_args(argv)
    if not PROGRAM.is_dir():
        # An installed copy of the package is not what this checkout holds.
        raise SystemExit(f"nothing to measure: {PROGRAM} is missing from this checkout")
    if args.worker:
        return worker_main(args)
    # Turn SIGTERM into an exit so the worker is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run_main(args)


if __name__ == "__main__":
    sys.exit(main())
