"""The analysis engine: source-tree walking, parsing and checker dispatch.

The engine reads every ``*.py`` file under a package root exactly once,
parses it into a :class:`ModuleSource` (AST + raw lines + suppression table)
and hands the assembled :class:`Project` to each checker pass.  Checkers are
pure functions of the project view; the engine owns everything stateful —
file IO, suppression bookkeeping, deterministic ordering — so a checker is
just "AST in, findings out" and trivially unit-testable against fixture
snippets.

Suppression semantics: a ``# repro-lint: disable=<code>`` comment on a
finding's line removes the finding from the report's failure set (it is kept
in ``suppressed`` for auditability).  Suppression comments that matched no
finding are reported as ``unused_suppressions`` so ``--strict`` runs can
refuse stale escapes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.analysis.contracts import parse_suppressions
from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.analysis.checkers.base import Checker

__all__ = ["AnalysisEngine", "AnalysisReport", "ModuleSource", "Project"]


@dataclass(frozen=True, slots=True)
class ModuleSource:
    """One parsed module: path, dotted name, raw lines and suppressions."""

    path: str
    module: str
    lines: tuple[str, ...]
    tree: ast.Module
    suppressions: dict[int, frozenset[str]]

    def suppresses(self, finding: Finding) -> bool:
        """Whether a suppression comment on the finding's line covers its code."""
        codes = self.suppressions.get(finding.line)
        if codes is None:
            return False
        return "ALL" in codes or finding.code in codes


@dataclass(frozen=True, slots=True)
class Project:
    """Everything the checkers see: all modules of the analysed tree."""

    root: str
    modules: dict[str, ModuleSource]

    def module(self, dotted: str) -> ModuleSource | None:
        """Look a module up by dotted name (``repro.core.grid``)."""
        return self.modules.get(dotted)

    def sorted_modules(self) -> list[ModuleSource]:
        """Modules in deterministic (dotted-name) order."""
        return [self.modules[name] for name in sorted(self.modules)]


@dataclass(slots=True)
class AnalysisReport:
    """Outcome of one engine run.

    ``findings`` are the live diagnostics (sorted by location); anything a
    suppression comment matched lands in ``suppressed`` instead.
    ``unused_suppressions`` lists ``(path, line, code)`` triples whose
    comment matched no finding — stale escapes a ``--strict`` gate rejects.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    unused_suppressions: list[tuple[str, int, str]] = field(default_factory=list)
    modules_scanned: int = 0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready document (schema ``repro-lint/v1``, ordered keys)."""
        return {
            "schema": "repro-lint/v1",
            "findings": [finding.as_dict() for finding in self.findings],
            "suppressed": [finding.as_dict() for finding in self.suppressed],
            "summary": {
                "finding_count": len(self.findings),
                "modules_scanned": self.modules_scanned,
                "suppressed_count": len(self.suppressed),
                "unused_suppression_count": len(self.unused_suppressions),
            },
            "unused_suppressions": [
                {"code": code, "line": line, "path": path}
                for path, line, code in self.unused_suppressions
            ],
        }


class AnalysisEngine:
    """Walks a package tree and runs checker passes over the parsed project."""

    def __init__(
        self,
        root: Path,
        checkers: "Sequence[Checker] | None" = None,
        select: Sequence[str] | None = None,
    ) -> None:
        from repro.analysis.checkers import all_checkers

        self.root = root.resolve()
        self._checkers: list[Checker] = (
            list(checkers) if checkers is not None else all_checkers()
        )
        self._select = tuple(select) if select else ()

    @classmethod
    def for_package(
        cls,
        checkers: "Sequence[Checker] | None" = None,
        select: Sequence[str] | None = None,
    ) -> "AnalysisEngine":
        """An engine over the installed ``repro`` package source tree."""
        import repro

        package_root = Path(repro.__file__).resolve().parent
        return cls(package_root, checkers=checkers, select=select)

    # ------------------------------------------------------------------ #
    # Project loading
    # ------------------------------------------------------------------ #
    def load_project(self) -> Project:
        """Parse every ``*.py`` under the root into a :class:`Project`."""
        if self.root.is_file():
            paths = [self.root]
            base = self.root.parent
        else:
            paths = sorted(self.root.rglob("*.py"))
            base = self.root.parent
        modules: dict[str, ModuleSource] = {}
        for path in paths:
            if "__pycache__" in path.parts:
                continue
            source = self._load_module(path, base)
            modules[source.module] = source
        return Project(root=str(self.root), modules=modules)

    def _load_module(self, path: Path, base: Path) -> ModuleSource:
        text = path.read_text(encoding="utf-8")
        relative = path.relative_to(base)
        parts = list(relative.with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts.pop()
        dotted = ".".join(parts)
        lines = tuple(text.splitlines())
        return ModuleSource(
            path=str(relative),
            module=dotted,
            lines=lines,
            tree=ast.parse(text, filename=str(relative)),
            suppressions=parse_suppressions(lines),
        )

    # ------------------------------------------------------------------ #
    # Checker dispatch
    # ------------------------------------------------------------------ #
    def _selected(self, finding: Finding) -> bool:
        if not self._select:
            return True
        return any(finding.code.startswith(prefix) for prefix in self._select)

    def run(self, project: Project | None = None) -> AnalysisReport:
        """Run every checker and fold the results into one report."""
        view = project if project is not None else self.load_project()
        report = AnalysisReport(modules_scanned=len(view.modules))
        raw: list[Finding] = []
        for checker in self._checkers:
            raw.extend(checker.run(view))
        used: dict[tuple[str, int], set[str]] = {}
        for finding in sorted(raw, key=Finding.sort_key):
            if not self._selected(finding):
                continue
            module = self._module_for_path(view, finding.path)
            if module is not None and module.suppresses(finding):
                codes = module.suppressions[finding.line]
                matched = finding.code if finding.code in codes else "ALL"
                used.setdefault((finding.path, finding.line), set()).add(matched)
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
        if not self._select:
            # With a --select filter active, suppressions for unselected
            # codes would all look stale; only audit them on full runs.
            for module in view.sorted_modules():
                for line, codes in sorted(module.suppressions.items()):
                    matched = used.get((module.path, line), set())
                    for code in sorted(codes - matched):
                        report.unused_suppressions.append((module.path, line, code))
        return report

    @staticmethod
    def _module_for_path(project: Project, path: str) -> ModuleSource | None:
        for module in project.modules.values():
            if module.path == path:
                return module
        return None
