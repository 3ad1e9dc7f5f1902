"""Tests for the command-line interface."""

from __future__ import annotations

import csv

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def corpus_dir(tmp_path):
    """A small on-disk corpus generated through the CLI itself."""
    out = tmp_path / "corpus"
    exit_code = main(
        ["generate", "--profile", "Transit", "--scale", "0.01", "--seed", "3", "--out", str(out)]
    )
    assert exit_code == 0
    return out


@pytest.fixture()
def query_file(corpus_dir, tmp_path):
    """A query CSV: the first dataset of the generated corpus."""
    first_csv = sorted(corpus_dir.glob("*.csv"))[0]
    query_path = tmp_path / "query.csv"
    query_path.write_text(first_csv.read_text(encoding="utf-8"), encoding="utf-8")
    return query_path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "somewhere"])
        assert args.profile == "Transit"
        assert args.scale == pytest.approx(0.02)

    def test_coverage_has_delta(self):
        args = build_parser().parse_args(
            ["coverage", "--corpus", "c", "--query", "q", "--delta", "3.5"]
        )
        assert args.delta == pytest.approx(3.5)

    def test_federate_defaults(self):
        args = build_parser().parse_args(["federate", "--corpus", "c", "--query", "q"])
        assert args.sources == 3
        assert args.mode == "overlap"


class TestGenerate:
    def test_writes_csv_files(self, corpus_dir):
        files = list(corpus_dir.glob("*.csv"))
        assert len(files) >= 20
        with files[0].open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert {"x", "y"} <= set(rows[0].keys())


class TestSearchCommands:
    def test_overlap_outputs_ranked_table(self, corpus_dir, query_file, capsys):
        exit_code = main(
            [
                "overlap",
                "--corpus", str(corpus_dir),
                "--query", str(query_file),
                "--theta", "12",
                "--k", "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "OJSP top-3" in output
        assert "overlap_cells" in output
        # The query is one of the corpus datasets, so the top hit must share
        # every one of its cells (rank 1 appears in the table).
        assert "1" in output

    def test_coverage_outputs_selection_and_totals(self, corpus_dir, query_file, capsys):
        exit_code = main(
            [
                "coverage",
                "--corpus", str(corpus_dir),
                "--query", str(query_file),
                "--k", "3",
                "--delta", "10",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "CJSP selection" in output
        assert "coverage:" in output

    def test_stats_command(self, corpus_dir, capsys):
        exit_code = main(["stats", "--corpus", str(corpus_dir), "--theta", "11"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "corpus statistics" in output
        assert "build_ms" in output

    def test_federate_overlap_reports_index(self, corpus_dir, query_file, capsys):
        exit_code = main(
            [
                "federate",
                "--corpus", str(corpus_dir),
                "--query", str(query_file),
                "--sources", "3",
                "--k", "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "federated OJSP top-3 (3 sources)" in output
        assert "DITS-G global index" in output
        assert "rebuilds" in output
        assert "communication:" in output
        assert "src-" in output  # results carry the owning source

    def test_federate_coverage_mode(self, corpus_dir, query_file, capsys):
        exit_code = main(
            [
                "federate",
                "--corpus", str(corpus_dir),
                "--query", str(query_file),
                "--mode", "coverage",
                "--sources", "2",
                "--k", "3",
                "--delta", "8",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "federated CJSP selection" in output
        assert "marginal_gain" in output

    def test_federate_matches_single_source_overlap(self, corpus_dir, query_file, capsys):
        """One source reproduces the single-machine ranking."""
        assert main(
            ["overlap", "--corpus", str(corpus_dir), "--query", str(query_file), "--k", "3"]
        ) == 0
        single = capsys.readouterr().out
        assert main(
            [
                "federate",
                "--corpus", str(corpus_dir),
                "--query", str(query_file),
                "--sources", "1",
                "--k", "3",
            ]
        ) == 0
        federated = capsys.readouterr().out
        import re

        def ranked(text):
            return re.findall(r"\w+-D\d+", text)

        assert ranked(single), "expected ranked dataset IDs in the single-source table"
        assert ranked(federated) == ranked(single)

    def test_federate_rejects_zero_sources(self, corpus_dir, query_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "federate",
                    "--corpus", str(corpus_dir),
                    "--query", str(query_file),
                    "--sources", "0",
                ]
            )

    def test_missing_corpus_errors(self, tmp_path, query_file):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["overlap", "--corpus", str(empty), "--query", str(query_file)])

    def test_empty_query_errors(self, corpus_dir, tmp_path):
        bad_query = tmp_path / "empty_query.csv"
        bad_query.write_text("x,y\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["overlap", "--corpus", str(corpus_dir), "--query", str(bad_query)])


class TestLint:
    @pytest.fixture()
    def dirty_package(self, tmp_path):
        """A package seeded with one violation per checker family."""
        root = tmp_path / "dirty"
        root.mkdir()
        (root / "__init__.py").write_text("")
        (root / "locks.py").write_text(
            "import threading\n\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self.total = 0  # guarded-by: _lock\n"
            "        self._lock = threading.Lock()\n\n"
            "    def peek(self):\n"
            "        return self.total\n"
        )
        (root / "caches.py").write_text(
            "import functools\n\n"
            "@functools.lru_cache(maxsize=8192)\n"
            "def distance(cells: frozenset) -> float:\n"
            "    return 0.0\n"
        )
        (root / "hotpath.py").write_text(
            "import time\n\n"
            "def rank(items):  # parity-critical\n"
            "    return (sorted(items), time.perf_counter())\n"
        )
        (root / "exports.py").write_text('__all__ = ["does_not_exist"]\n')
        return root

    def test_shipped_tree_is_clean_in_strict_mode(self, capsys):
        assert main(["lint", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_seeded_violations_fail_with_all_families(self, dirty_package, capsys):
        assert main(["lint", "--root", str(dirty_package)]) == 1
        out = capsys.readouterr().out
        for code in ("REPRO101", "REPRO201", "REPRO301", "REPRO401"):
            assert code in out, f"{code} missing from lint output"

    def test_json_format_is_schema_stable(self, dirty_package, capsys):
        import json

        assert main(["lint", "--root", str(dirty_package), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-lint/v1"
        assert document["summary"]["finding_count"] == len(document["findings"])
        locations = [(f["path"], f["line"], f["code"]) for f in document["findings"]]
        assert locations == sorted(locations)

    def test_select_restricts_codes(self, dirty_package, capsys):
        assert main(["lint", "--root", str(dirty_package), "--select", "REPRO3"]) == 1
        out = capsys.readouterr().out
        assert "REPRO301" in out
        assert "REPRO101" not in out

    def test_strict_fails_on_stale_suppression(self, tmp_path, capsys):
        root = tmp_path / "stale"
        root.mkdir()
        (root / "__init__.py").write_text("")
        (root / "clean.py").write_text(
            "def fine() -> int:\n    return 1  # repro-lint: disable=REPRO301\n"
        )
        assert main(["lint", "--root", str(root)]) == 0
        assert main(["lint", "--root", str(root), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "stale suppression" in out
