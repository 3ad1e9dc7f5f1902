"""Engine-level tests: suppressions, selection, ordering and the self-check.

The final class asserts the shipped tree's own contract: running the full
checker registry over ``src/repro`` produces **zero** live findings — the
same gate CI enforces via ``python -m repro.cli lint --strict``.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import AnalysisEngine, CHECKER_CODES, Finding, all_checkers
from repro.analysis.contracts import parse_suppressions


def write_package(tmp_path, files: dict[str, str]):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    for name, source in files.items():
        (root / name).write_text(textwrap.dedent(source))
    return root


VIOLATIONS = {
    "locks.py": """
        import threading

        class Counter:
            def __init__(self):
                self.total = 0  # guarded-by: _lock
                self._lock = threading.Lock()

            def peek(self):
                return self.total
    """,
    "caches.py": """
        import functools

        @functools.lru_cache(maxsize=8192)
        def distance(cells: frozenset) -> float:
            return 0.0
    """,
    "hotpath.py": """
        import time

        def rank(items):  # parity-critical
            return (sorted(items), time.perf_counter())
    """,
    "exports.py": """
        __all__ = ["does_not_exist"]
    """,
}


class TestSuppressions:
    def test_suppressed_finding_moves_to_suppressed(self, tmp_path):
        root = write_package(
            tmp_path,
            {
                "hot.py": """
                    def rank(items):  # parity-critical
                        return list(set(items))  # repro-lint: disable=REPRO301
                """
            },
        )
        report = AnalysisEngine(root).run()
        assert not report.findings
        assert [finding.code for finding in report.suppressed] == ["REPRO301"]
        assert report.unused_suppressions == []

    def test_all_wildcard_suppresses_everything(self, tmp_path):
        root = write_package(
            tmp_path,
            {
                "hot.py": """
                    def rank(items):  # parity-critical
                        return list(set(items))  # repro-lint: disable=all
                """
            },
        )
        report = AnalysisEngine(root).run()
        assert not report.findings and len(report.suppressed) == 1

    def test_stale_suppression_reported(self, tmp_path):
        root = write_package(
            tmp_path,
            {
                "clean.py": """
                    def fine() -> int:
                        return 1  # repro-lint: disable=REPRO301
                """
            },
        )
        report = AnalysisEngine(root).run()
        assert not report.findings
        assert report.unused_suppressions == [("pkg/clean.py", 3, "REPRO301")]

    def test_docstring_mention_is_not_a_suppression(self):
        lines = (
            '"""Docs may cite the marker literally:',
            "",
            "    # repro-lint: disable=REPRO301",
            '"""',
            "x = 1  # repro-lint: disable=REPRO201",
        )
        suppressions = parse_suppressions(lines)
        assert suppressions == {5: frozenset({"REPRO201"})}


class TestSelectionAndOrdering:
    def test_select_filters_by_code_prefix(self, tmp_path):
        root = write_package(tmp_path, VIOLATIONS)
        report = AnalysisEngine(root, select=["REPRO2"]).run()
        assert {finding.code for finding in report.findings} == {"REPRO201"}
        # Suppression staleness is not audited under a select filter.
        assert report.unused_suppressions == []

    def test_findings_sorted_by_location(self, tmp_path):
        root = write_package(tmp_path, VIOLATIONS)
        report = AnalysisEngine(root).run()
        keys = [finding.sort_key() for finding in report.findings]
        assert keys == sorted(keys)

    def test_every_checker_family_fires_on_seeded_violations(self, tmp_path):
        root = write_package(tmp_path, VIOLATIONS)
        report = AnalysisEngine(root).run()
        families = {finding.code[:6] for finding in report.findings}
        assert {"REPRO1", "REPRO2", "REPRO3", "REPRO4"} <= families


class TestReportShape:
    def test_as_dict_schema(self, tmp_path):
        root = write_package(tmp_path, VIOLATIONS)
        document = AnalysisEngine(root).run().as_dict()
        assert document["schema"] == "repro-lint/v1"
        assert document["summary"]["modules_scanned"] == 1 + len(VIOLATIONS)
        assert len(document["findings"]) == document["summary"]["finding_count"]

    def test_finding_round_trip(self):
        finding = Finding(path="a.py", line=3, code="REPRO101", message="m", symbol="S.f")
        assert finding.location() == "a.py:3"
        assert finding.as_dict() == {
            "code": "REPRO101",
            "column": 0,
            "line": 3,
            "message": "m",
            "path": "a.py",
            "symbol": "S.f",
        }

    def test_checker_codes_cover_registry(self):
        registered = {code for checker in all_checkers() for code in checker.codes}
        assert registered == set(CHECKER_CODES)


class TestSelfCheck:
    """The shipped tree must be clean under its own linter."""

    @pytest.fixture(scope="class")
    def report(self):
        return AnalysisEngine.for_package().run()

    def test_live_tree_has_no_findings(self, report):
        assert report.findings == [], [f.location() for f in report.findings]

    def test_live_tree_has_no_stale_suppressions(self, report):
        assert report.unused_suppressions == []

    def test_live_tree_scans_the_whole_package(self, report):
        assert report.modules_scanned >= 50

    def test_live_tree_has_no_suppressions(self, report):
        assert report.suppressed == [], [f.location() for f in report.suppressed]
