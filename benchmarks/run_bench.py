#!/usr/bin/env python
"""Benchmark entry point: run figure sweeps and emit a perf-trajectory JSON.

Runs the ``FIGURES`` table of ``benchmarks/conftest.py`` (the sweeps the
pytest benchmarks run), measures the wall-clock of each sweep, and writes a
``BENCH_*.json`` file so successive PRs can record their performance
trajectory::

    PYTHONPATH=src python benchmarks/run_bench.py --json BENCH_PR1.json
    PYTHONPATH=src python benchmarks/run_bench.py --figures fig10,fig12 --json out.json

The JSON schema (``repro-bench/v1``)::

    {
      "schema": "repro-bench/v1",
      "created": "...",             # ISO timestamp
      "python": "3.11.7",
      "config": {...},              # scales/sources/theta/seed used
      "baseline": {...},            # optional: the --baseline-json contents
      "figures": {
        "fig10": {"wall_s": 22.8, "rows": [...],
                  "seed_wall_s": 73.6, "speedup_vs_seed": 3.28},
        "fig13": {"wall_s": 0.9, "bytes": {"OverlapSearch": ..., "Broadcast": ...}},
        ...
      }
    }

``--baseline-json`` points at a reference measurement (e.g.
``benchmarks/baselines/seed.json``, recorded from the seed commit) of the
form ``{"label": ..., "figures": {"fig10": {"wall_s": ...}, ...}}``; when
given, per-figure ``seed_wall_s``/``speedup_vs_seed`` fields are filled in
so successive ``BENCH_*.json`` files carry the whole trajectory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# Cache generated corpora between sweeps/runs (invalidated automatically when
# the generation source changes); export REPRO_CORPUS_CACHE="" to disable.
os.environ.setdefault(
    "REPRO_CORPUS_CACHE", str(Path(__file__).resolve().parent / ".cache")
)

from conftest import BENCH_CONFIG, FIGURES, OJSP_CONFIG, run_figure  # noqa: E402

from repro.index.stats import distance_engine_stats  # noqa: E402

#: Monotone distance-engine counters reported per figure as deltas.
_ENGINE_COUNTERS = (
    "hits",
    "misses",
    "evictions",
    "invalidations",
    "trees_built",
    "batch_queries",
    "pair_queries",
)

DEFAULT_FIGURES = (
    "fig9", "fig10", "fig11", "fig12", "fig13", "fig15", "fig19", "fig23", "fig24"
)


def run(figures: list[str], include_rows: bool, baseline: dict | None = None) -> dict:
    """Run the selected sweeps and return the trajectory document."""
    baseline_figures = (baseline or {}).get("figures", {})
    results: dict[str, dict] = {}
    for name in figures:
        print(f"[run_bench] {name} ...", flush=True)
        engine_before = distance_engine_stats()
        start = time.perf_counter()
        rows = run_figure(name)
        wall_s = time.perf_counter() - start
        engine_after = distance_engine_stats()
        entry: dict = {"wall_s": round(wall_s, 3)}
        entry["distance_engine"] = {
            key: engine_after[key] - engine_before[key] for key in _ENGINE_COUNTERS
        }
        entry["distance_engine"]["currsize"] = engine_after["currsize"]
        reference = baseline_figures.get(name, {}).get("wall_s")
        if reference:
            entry["seed_wall_s"] = reference
            entry["speedup_vs_seed"] = round(reference / wall_s, 2)
        if rows and "bytes" in rows[0]:
            # Communication figures: per-method byte totals are deterministic,
            # so they are recorded even when the rows are not.
            entry["bytes"] = {}
            for row in rows:
                entry["bytes"][row["method"]] = entry["bytes"].get(row["method"], 0) + row["bytes"]
        if include_rows:
            entry["rows"] = rows
        results[name] = entry
        print(f"[run_bench] {name}: {wall_s:.2f}s ({len(rows)} rows)", flush=True)
    document = {
        "schema": "repro-bench/v1",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "bench": dataclasses.asdict(BENCH_CONFIG),
            "ojsp": dataclasses.asdict(OJSP_CONFIG),
        },
        "figures": results,
    }
    if baseline is not None:
        document["baseline"] = baseline
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the trajectory JSON to PATH (default: print to stdout)",
    )
    parser.add_argument(
        "--figures",
        default=",".join(DEFAULT_FIGURES),
        help=(
            "comma-separated figure sweeps to run, or 'all' "
            f"(known: {', '.join(FIGURES)}; default: {','.join(DEFAULT_FIGURES)})"
        ),
    )
    parser.add_argument(
        "--no-rows",
        action="store_true",
        help="record only wall-clock per figure, not the measured rows",
    )
    parser.add_argument(
        "--baseline-json",
        metavar="PATH",
        help=(
            "reference measurement file ({'label': ..., 'figures': {name: "
            "{'wall_s': ...}}}) used to fill in per-figure speedups, e.g. "
            "benchmarks/baselines/seed.json"
        ),
    )
    args = parser.parse_args(argv)

    if args.figures.strip().lower() == "all":
        figures = list(FIGURES)
    else:
        figures = [name.strip() for name in args.figures.split(",") if name.strip()]
    unknown = [name for name in figures if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figures: {', '.join(unknown)} (known: {', '.join(FIGURES)})")

    baseline = None
    if args.baseline_json:
        baseline = json.loads(Path(args.baseline_json).read_text())
    document = run(figures, include_rows=not args.no_rows, baseline=baseline)
    payload = json.dumps(document, indent=2, sort_keys=True)
    if args.json:
        Path(args.json).write_text(payload + "\n")
        print(f"[run_bench] wrote {args.json}")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
