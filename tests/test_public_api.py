"""Tests for the package's public API surface and documentation discipline."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]
PRODUCT = REPO / "src" / "repro"
#: Besides the package itself, the trees whose references keep a public
#: definition alive.  tests/ is not one of them.
CALLERS = (REPO / "examples", REPO / "benchmarks")
PUBLIC_API_MARKER = re.compile(r"#\s*public-api:\s*\S")

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.dataset",
    "repro.core.grid",
    "repro.core.geometry",
    "repro.core.distance",
    "repro.core.distance_engine",
    "repro.core.connectivity",
    "repro.core.problems",
    "repro.index",
    "repro.index.dits",
    "repro.index.dits_global",
    "repro.index.dits_global_sharded",
    "repro.search",
    "repro.search.overlap",
    "repro.search.coverage",
    "repro.distributed",
    "repro.distributed.framework",
    "repro.data",
    "repro.bench",
    "repro.cli",
]


class TestExports:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_importable_and_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), module_name

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_every_submodule_has_a_docstring(self):
        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ and module.__doc__.strip()):
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_classes_and_functions_documented(self):
        undocumented = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"


class TestApiConventions:
    def test_search_classes_share_interface(self):
        from repro.search import (
            BruteForceOverlap,
            JosieOverlap,
            OverlapSearch,
            QuadTreeOverlap,
            RTreeOverlap,
            STS3Overlap,
        )

        for cls in (OverlapSearch, RTreeOverlap, JosieOverlap, QuadTreeOverlap, STS3Overlap, BruteForceOverlap):
            assert hasattr(cls, "search")
            assert hasattr(cls, "search_node")
            assert isinstance(cls.name, str)

    def test_coverage_classes_share_interface(self):
        from repro.search import CoverageSearch, StandardGreedy, StandardGreedyWithDITS

        for cls in (CoverageSearch, StandardGreedy, StandardGreedyWithDITS):
            assert hasattr(cls, "search")
            assert hasattr(cls, "search_node")

    def test_index_registry_consistent(self):
        from repro.index import DATASET_INDEX_CLASSES
        from repro.index.base import DatasetIndex

        for name, cls in DATASET_INDEX_CLASSES.items():
            assert issubclass(cls, DatasetIndex)
            assert cls.name == name or cls.name in name or name in cls.name


def _parsed(tree: Path) -> list[tuple[Path, str, ast.Module]]:
    return [
        (path, text, ast.parse(text, filename=str(path)))
        for path in sorted(tree.rglob("*.py"))
        for text in [path.read_text(encoding="utf-8")]
    ]


def _public_definitions(modules):
    """``(path, qualname, first line, last line, marked)`` per public def, class and method."""
    found = []
    for path, text, module in modules:
        lines = text.splitlines()
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for definition, qualname in [(node, node.name)] + [
                (member, f"{node.name}.{member.name}")
                for member in members
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ]:
                if definition.name.startswith("_"):
                    continue
                marked = bool(PUBLIC_API_MARKER.search(lines[definition.lineno - 1]))
                found.append((path, qualname, definition.lineno, definition.end_lineno, marked))
    return found


def _references(modules):
    """Name -> ``(path, line)`` of every load of it as a name, an attribute or a dotted string.

    Imports and ``__all__`` strings are not references: a re-export reaches
    nothing.  A ``"repro.x.Y.z"`` string (the benchmark's traced-symbol
    table) references each of its parts.
    """
    seen: dict[str, list[tuple[Path, int]]] = {}
    for path, _, module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = [node.attr]
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.startswith("repro.")
            ):
                names = node.value.split(".")
            else:
                continue
            for name in names:
                seen.setdefault(name, []).append((path, node.lineno))
    return seen


class TestDeadSurface:
    """Product code that only tests reach is dead product code."""

    def test_every_public_definition_is_reached_outside_tests(self):
        product = _parsed(PRODUCT)
        modules = product + [m for tree in CALLERS for m in _parsed(tree)]
        definitions = _public_definitions(product)
        references = _references(modules)
        scanned = (len(modules), len(definitions))
        assert scanned[0] > 50 and scanned[1] > 200, scanned  # the scan saw the tree

        exempt = set(repro.__all__)
        dead = [
            f"{path.relative_to(REPO)}:{first} {qualname}"
            for path, qualname, first, last, marked in definitions
            if not marked
            and qualname not in exempt
            # A definition's references to itself (recursion) do not count.
            and not any(
                not (where == path and first <= line <= last)
                for where, line in references.get(qualname.rpartition(".")[2], ())
            )
        ]
        assert not dead, (
            "public definitions that nothing in src/repro, examples/ or benchmarks/ "
            "reaches (delete them, or mark the def line '# public-api: <reason>'):\n"
            + "\n".join(dead)
        )
