"""Command-line interface for the joinable spatial dataset search library.

The CLI covers the workflow a data engineer would actually run against a
corpus on disk:

``python -m repro.cli generate``
    materialise one of the synthetic source profiles into a directory of CSV
    files (one file per dataset), so the other commands have something real
    to chew on;

``python -m repro.cli overlap``
    load a corpus directory, build DITS-L and run an overlap joinable search
    (OJSP) for a query CSV;

``python -m repro.cli coverage``
    the coverage joinable search (CJSP) counterpart, with a connectivity
    threshold in cells;

``python -m repro.cli stats``
    corpus statistics: dataset count, point count, cell coverage at a chosen
    resolution and DITS-L construction time.

``python -m repro.cli federate``
    multi-source mode: partition the corpus across several simulated data
    sources behind a data center with a DITS-G global index, run an OJSP or
    CJSP query end to end and report the per-source results, global-index
    statistics and simulated communication cost.

``python -m repro.cli lint``
    run the :mod:`repro.analysis` static checkers (lock discipline, unsafe
    caches, parity purity, API drift) over the installed package tree;
    ``--strict`` additionally fails on stale suppression comments.  The CI
    gate runs ``lint --strict``.

Every command prints a small aligned table to stdout and returns a process
exit code of 0 on success, which makes the CLI easy to wire into shell
pipelines and CI smoke tests.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.bench.reporting import format_table
from repro.core.dataset import SpatialDataset
from repro.core.grid import Grid
from repro.core.problems import CoverageQuery, OverlapQuery
from repro.data.loaders import load_source_csv, save_source_csv
from repro.data.sources import SOURCE_PROFILES, build_source_datasets
from repro.distributed.framework import MultiSourceFramework
from repro.index.dits import DITSLocalIndex
from repro.index.stats import global_index_stats, local_index_stats
from repro.search.coverage import CoverageSearch
from repro.search.overlap import OverlapSearch

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Joinable search over spatial datasets (DITS reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="materialise a synthetic source profile into CSV files"
    )
    generate.add_argument("--profile", choices=sorted(SOURCE_PROFILES), default="Transit")
    generate.add_argument("--scale", type=float, default=0.02,
                          help="fraction of the paper's dataset count (default 0.02)")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", type=Path, required=True, help="output directory")

    for name, help_text in (
        ("overlap", "overlap joinable search (OJSP)"),
        ("coverage", "coverage joinable search (CJSP)"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--corpus", type=Path, required=True,
                         help="directory of dataset CSV files (columns x,y)")
        sub.add_argument("--query", type=Path, required=True, help="query CSV file")
        sub.add_argument("--theta", type=int, default=12, help="grid resolution (default 12)")
        sub.add_argument("--k", type=int, default=5, help="number of results (default 5)")
        sub.add_argument("--leaf-capacity", type=int, default=30)
        if name == "coverage":
            sub.add_argument("--delta", type=float, default=10.0,
                             help="connectivity threshold in cells (default 10)")

    stats = subparsers.add_parser("stats", help="corpus statistics and index build time")
    stats.add_argument("--corpus", type=Path, required=True)
    stats.add_argument("--theta", type=int, default=12)
    stats.add_argument("--leaf-capacity", type=int, default=30)

    federate = subparsers.add_parser(
        "federate", help="multi-source search through a DITS-G data center"
    )
    federate.add_argument("--corpus", type=Path, required=True,
                          help="directory of dataset CSV files (columns x,y)")
    federate.add_argument("--query", type=Path, required=True, help="query CSV file")
    federate.add_argument("--sources", type=int, default=3,
                          help="number of simulated data sources the corpus is split across")
    federate.add_argument("--theta", type=int, default=12)
    federate.add_argument("--k", type=int, default=5)
    federate.add_argument("--leaf-capacity", type=int, default=30)
    federate.add_argument("--mode", choices=("overlap", "coverage"), default="overlap")
    federate.add_argument("--delta", type=float, default=10.0,
                          help="CJSP connectivity threshold in cells (coverage mode)")

    lint = subparsers.add_parser(
        "lint", help="run the repro.analysis static checkers over the package"
    )
    lint.add_argument(
        "--root", type=Path, default=None,
        help="package root to analyse (default: the installed repro package)",
    )
    lint.add_argument(
        "--select", action="append", default=None, metavar="CODE",
        help="only report codes with this prefix (repeatable, e.g. REPRO1)",
    )
    lint.add_argument("--format", choices=("table", "json"), default="table")
    lint.add_argument(
        "--strict", action="store_true",
        help="also fail on suppression comments that matched no finding",
    )

    return parser


def _load_corpus(directory: Path) -> list[SpatialDataset]:
    datasets = load_source_csv(directory)
    if not datasets:
        raise SystemExit(f"no CSV datasets found in {directory}")
    return datasets


def _load_query(path: Path) -> SpatialDataset:
    import csv

    coordinates = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            coordinates.append((float(row["x"]), float(row["y"])))
    if not coordinates:
        raise SystemExit(f"query file {path} has no points")
    return SpatialDataset.from_coordinates(path.stem, coordinates)


def _build_index(datasets: list[SpatialDataset], grid: Grid, leaf_capacity: int) -> DITSLocalIndex:
    index = DITSLocalIndex(leaf_capacity=leaf_capacity)
    index.build([dataset.to_node(grid) for dataset in datasets])
    return index


def _command_generate(args: argparse.Namespace) -> int:
    datasets = build_source_datasets(args.profile, scale=args.scale, seed=args.seed)
    written = save_source_csv(datasets, args.out)
    print(f"wrote {len(written)} datasets from profile {args.profile!r} to {args.out}")
    return 0


def _command_overlap(args: argparse.Namespace) -> int:
    grid = Grid(theta=args.theta)
    corpus = _load_corpus(args.corpus)
    index = _build_index(corpus, grid, args.leaf_capacity)
    query = _load_query(args.query).to_node(grid)
    result = OverlapSearch(index).search(OverlapQuery(query=query, k=args.k))
    rows = [
        {"rank": rank + 1, "dataset": entry.dataset_id, "overlap_cells": int(entry.score)}
        for rank, entry in enumerate(result)
    ]
    print(format_table(rows, title=f"OJSP top-{args.k} (theta={args.theta})"))
    return 0


def _command_coverage(args: argparse.Namespace) -> int:
    grid = Grid(theta=args.theta)
    corpus = _load_corpus(args.corpus)
    index = _build_index(corpus, grid, args.leaf_capacity)
    query = _load_query(args.query).to_node(grid)
    result = CoverageSearch(index).search(
        CoverageQuery(query=query, k=args.k, delta=args.delta)
    )
    rows = [
        {"pick": rank + 1, "dataset": entry.dataset_id, "marginal_gain": int(entry.score)}
        for rank, entry in enumerate(result)
    ]
    print(format_table(rows, title=f"CJSP selection (k={args.k}, delta={args.delta})"))
    print(
        f"coverage: {result.query_coverage} cells (query) -> {result.total_coverage} cells (with selection)"
    )
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    grid = Grid(theta=args.theta)
    corpus = _load_corpus(args.corpus)
    start = time.perf_counter()
    index = _build_index(corpus, grid, args.leaf_capacity)
    build_ms = (time.perf_counter() - start) * 1000.0
    total_points = sum(len(dataset) for dataset in corpus)
    total_cells = sum(node.coverage for node in index.nodes())
    rows = [
        {
            "datasets": len(corpus),
            "points": total_points,
            "cells@theta": total_cells,
            "tree_height": index.height(),
            "build_ms": build_ms,
        }
    ]
    print(format_table(rows, title=f"corpus statistics ({args.corpus})"))
    index_stats = local_index_stats(index)
    print(
        format_table(
            [
                {
                    "tree_nodes": index_stats["tree_nodes"],
                    "max_depth": index_stats["max_depth"],
                    "rebalances": index_stats["rebalance_count"],
                    "leaf_merges": index_stats["leaf_merges"],
                    "deferred_refits": index_stats["deferred_refits"],
                    "mbr_slack": f"{index_stats['mbr_slack']:.1f}",
                }
            ],
            title="DITS-L local index",
        )
    )
    return 0


def _command_federate(args: argparse.Namespace) -> int:
    if args.sources < 1:
        raise SystemExit(f"--sources must be at least 1, got {args.sources}")
    corpus = _load_corpus(args.corpus)
    framework = MultiSourceFramework(
        theta=args.theta,
        leaf_capacity=args.leaf_capacity,
    )
    try:
        source_count = min(args.sources, len(corpus))
        for portal in range(source_count):
            framework.add_source(f"src-{portal}", corpus[portal::source_count])
        query = framework.query_from_dataset(_load_query(args.query))

        if args.mode == "overlap":
            result = framework.overlap_search(query, args.k)
            rows = [
                {
                    "rank": rank + 1,
                    "source": entry.source_id,
                    "dataset": entry.dataset_id,
                    "overlap_cells": int(entry.score),
                }
                for rank, entry in enumerate(result)
            ]
            title = f"federated OJSP top-{args.k} ({source_count} sources)"
        else:
            result = framework.coverage_search(query, args.k, args.delta)
            rows = [
                {
                    "pick": rank + 1,
                    "source": entry.source_id,
                    "dataset": entry.dataset_id,
                    "marginal_gain": int(entry.score),
                }
                for rank, entry in enumerate(result)
            ]
            title = f"federated CJSP selection (k={args.k}, delta={args.delta})"
        print(format_table(rows, title=title))

        index_stats = global_index_stats(framework.center.global_index)
        del index_stats["schema"]
        print(format_table([index_stats], title="DITS-G global index"))
        comm = framework.communication_stats()
        print(
            f"communication: {comm.messages_sent} messages, {comm.total_bytes} bytes, "
            f"{framework.transmission_time_ms():.2f} ms simulated transmission"
        )
    finally:
        framework.close()
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis import AnalysisEngine

    if args.root is not None:
        engine = AnalysisEngine(args.root, select=args.select)
    else:
        engine = AnalysisEngine.for_package(select=args.select)
    report = engine.run()

    stale_failure = args.strict and bool(report.unused_suppressions)
    if args.format == "json":
        document = report.as_dict()
        document["strict"] = args.strict
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        if report.findings:
            rows = [
                {
                    "code": finding.code,
                    "location": finding.location(),
                    "symbol": finding.symbol,
                    "message": finding.message,
                }
                for finding in report.findings
            ]
            print(format_table(rows, title=f"{len(report.findings)} finding(s)"))
        for path, line, code in report.unused_suppressions:
            print(f"stale suppression: {path}:{line} disables {code} but nothing fires")
        print(
            f"lint: {report.modules_scanned} modules, "
            f"{len(report.findings)} finding(s), "
            f"{len(report.suppressed)} suppressed, "
            f"{len(report.unused_suppressions)} stale suppression(s)"
        )
    if report.findings or stale_failure:
        return 1
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "overlap": _command_overlap,
    "coverage": _command_coverage,
    "stats": _command_stats,
    "federate": _command_federate,
    "lint": _command_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
