"""Tests for dataset persistence (CSV round-trips)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import EmptyDatasetError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.data.generators import generate_route_dataset
from repro.data.loaders import load_source_csv, save_source_csv

REGION = BoundingBox(-77.5, 38.5, -76.5, 39.5)


def make_corpus(count: int = 5) -> list:
    rng = np.random.default_rng(1)
    return [generate_route_dataset(f"d{i}", REGION, rng, length=20) for i in range(count)]


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        corpus = make_corpus(3)
        written = save_source_csv(corpus, tmp_path / "source")
        assert len(written) == 3
        loaded = load_source_csv(tmp_path / "source")
        assert [d.dataset_id for d in loaded] == sorted(d.dataset_id for d in corpus)
        by_id = {d.dataset_id: d for d in corpus}
        for restored in loaded:
            original = by_id[restored.dataset_id]
            assert len(restored) == len(original)

    def test_round_trip_preserves_every_coordinate(self, tmp_path):
        corpus = make_corpus(4)
        save_source_csv(corpus, tmp_path)
        by_id = {d.dataset_id: d for d in corpus}
        for restored in load_source_csv(tmp_path):
            assert restored.points == by_id[restored.dataset_id].points

    def test_round_trip_discretises_to_the_same_cells(self, tmp_path):
        grid = Grid(theta=12, space=REGION)
        corpus = make_corpus(4)
        save_source_csv(corpus, tmp_path)
        by_id = {d.dataset_id: d for d in corpus}
        for restored in load_source_csv(tmp_path):
            assert restored.to_node(grid) == by_id[restored.dataset_id].to_node(grid)

    def test_other_files_are_ignored(self, tmp_path):
        save_source_csv(make_corpus(2), tmp_path)
        (tmp_path / "README.txt").write_text("not a dataset", encoding="utf-8")
        (tmp_path / "nested").mkdir()
        assert [d.dataset_id for d in load_source_csv(tmp_path)] == ["d0", "d1"]

    def test_empty_csv_rejected(self, tmp_path):
        directory = tmp_path / "source"
        directory.mkdir()
        (directory / "empty.csv").write_text("x,y\n", encoding="utf-8")
        with pytest.raises(EmptyDatasetError):
            load_source_csv(directory)

    def test_loading_empty_directory(self, tmp_path):
        directory = tmp_path / "nothing"
        directory.mkdir()
        assert load_source_csv(directory) == []
