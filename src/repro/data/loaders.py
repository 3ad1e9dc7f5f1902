"""Persistence helpers: CSV round-trips for spatial datasets.

Real deployments of a dataset-search service ingest files from disk; these
helpers provide a minimal but complete ingestion path so the examples can
demonstrate loading a directory of CSV files into a data source, and so users
can persist synthetic corpora for repeatable experiments.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from repro.core.dataset import SpatialDataset
from repro.core.errors import EmptyDatasetError

__all__ = ["save_source_csv", "load_source_csv"]


def save_source_csv(datasets: Iterable[SpatialDataset], directory: str | Path) -> list[Path]:
    """Write one ``<dataset_id>.csv`` file (columns ``x,y``) per dataset."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for dataset in datasets:
        file_path = out_dir / f"{dataset.dataset_id}.csv"
        with file_path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "y"])
            for point in dataset.points:
                writer.writerow([point.x, point.y])
        written.append(file_path)
    return written


def load_source_csv(directory: str | Path) -> list[SpatialDataset]:
    """Read every ``*.csv`` file in ``directory`` as one dataset each."""
    datasets = []
    for file_path in sorted(Path(directory).glob("*.csv")):
        coordinates = []
        with file_path.open(newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                coordinates.append((float(row["x"]), float(row["y"])))
        if not coordinates:
            raise EmptyDatasetError(f"CSV file {file_path} has no points")
        datasets.append(SpatialDataset.from_coordinates(file_path.stem, coordinates))
    return datasets
