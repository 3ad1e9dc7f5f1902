"""Lock-discipline checker: guarded attributes only move under their lock.

Shared mutable attributes are declared with a ``# guarded-by: <lock>``
comment on the ``self.<attr> = ...`` statement that creates them (see
``SimulatedChannel.stats``, ``DistanceEngine._cache``,
``DITSGlobalIndex._rows``).  This pass then verifies, purely
lexically, that every other read or write of the attribute sits inside a
``with self.<lock>:`` block of the same method — the static complement of
the runtime thread-safety tests.

Scope and deliberate limits (catalogued in ``docs/invariants.md``):

* Only ``self.<attr>`` accesses are tracked; cross-object accesses
  (``other.attr`` mutated under ``other.lock``) are outside the lexical
  model.
* ``__init__``/``__post_init__`` are exempt — the object is not shared
  until construction returns.
* A nested function or lambda does not inherit the enclosing ``with``: it
  may run after the lock is released (the executor-submission pattern), so
  guarded accesses inside it are flagged unless the def carries its own
  ``# repro-lint: holds=<lock>`` annotation.

Codes: ``REPRO101`` (guarded access outside the lock), ``REPRO102``
(declaration names a lock attribute the class never assigns).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.checkers.base import Checker
from repro.analysis.contracts import (
    guarded_attributes,
    held_locks_of,
    iter_self_assignments,
    self_attribute_of,
)
from repro.analysis.engine import ModuleSource
from repro.analysis.findings import Finding

__all__ = ["LockDisciplineChecker"]

#: Methods in which guarded accesses are exempt (construction-time only).
_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


def _with_locks(node: ast.With | ast.AsyncWith) -> frozenset[str]:
    """Lock attributes acquired by ``with self.<lock>[, ...]:`` items."""
    locks = set()
    for item in node.items:
        attribute = self_attribute_of(item.context_expr)
        if attribute is not None:
            locks.add(attribute)
    return frozenset(locks)


class LockDisciplineChecker(Checker):
    """Flags guarded-attribute accesses outside their declared lock scope."""

    name = "lock-discipline"
    codes = ("REPRO101", "REPRO102")

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        """Check every class of ``module`` that declares guarded attributes."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    # ------------------------------------------------------------------ #
    # Per-class analysis
    # ------------------------------------------------------------------ #
    def _check_class(
        self, module: ModuleSource, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        guarded = guarded_attributes(class_node, module.lines)
        if not guarded:
            return
        assigned = self._assigned_attributes(class_node)
        for attribute, (lock, lineno) in sorted(guarded.items()):
            if lock not in assigned:
                yield Finding(
                    path=module.path,
                    line=lineno,
                    code="REPRO102",
                    message=(
                        f"attribute {attribute!r} is declared guarded-by {lock!r}, "
                        f"but class {class_node.name!r} never assigns self.{lock}"
                    ),
                    symbol=f"{class_node.name}.{attribute}",
                )
        locks = {lock for lock, _ in guarded.values()}
        for member in class_node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if member.name in _CONSTRUCTORS:
                continue
            held = frozenset(held_locks_of(member, module.lines) & locks)
            yield from self._check_function(
                module, class_node, member, member, guarded, held
            )

    @staticmethod
    def _assigned_attributes(class_node: ast.ClassDef) -> frozenset[str]:
        assigned = set()
        for member in class_node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for attribute, _ in iter_self_assignments(member):
                    assigned.add(attribute)
        return frozenset(assigned)

    # ------------------------------------------------------------------ #
    # Lexical lock-scope walk
    # ------------------------------------------------------------------ #
    def _check_function(
        self,
        module: ModuleSource,
        class_node: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        scope: ast.AST,
        guarded: dict[str, tuple[str, int]],
        held: frozenset[str],
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(scope):
            yield from self._check_node(module, class_node, method, child, guarded, held)

    def _check_node(
        self,
        module: ModuleSource,
        class_node: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.AST,
        guarded: dict[str, tuple[str, int]],
        held: frozenset[str],
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held | _with_locks(node)
            for item in node.items:
                # The context expressions themselves evaluate unlocked.
                yield from self._check_expression(
                    module, class_node, method, item.context_expr, guarded, held
                )
            for statement in node.body:
                yield from self._check_node(
                    module, class_node, method, statement, guarded, inner
                )
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def may outlive the with-block; only its own
            # holds-annotation counts.
            nested_held = frozenset(held_locks_of(node, module.lines))
            yield from self._check_function(
                module, class_node, method, node, guarded, nested_held
            )
            return
        if isinstance(node, ast.Lambda):
            yield from self._check_expression(
                module, class_node, method, node.body, guarded, frozenset()
            )
            return
        if isinstance(node, ast.Attribute):
            yield from self._check_attribute(
                module, class_node, method, node, guarded, held
            )
            # Fall through: the value side may itself be self.<attr>.
        yield from self._check_function(
            module, class_node, method, node, guarded, held
        )

    def _check_expression(
        self,
        module: ModuleSource,
        class_node: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        expression: ast.AST,
        guarded: dict[str, tuple[str, int]],
        held: frozenset[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(expression):
            if isinstance(node, ast.Attribute):
                yield from self._check_attribute(
                    module, class_node, method, node, guarded, held
                )

    @staticmethod
    def _check_attribute(
        module: ModuleSource,
        class_node: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.Attribute,
        guarded: dict[str, tuple[str, int]],
        held: frozenset[str],
    ) -> Iterator[Finding]:
        attribute = self_attribute_of(node)
        if attribute is None or attribute not in guarded:
            return
        lock, _ = guarded[attribute]
        if lock in held:
            return
        access = "written" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read"
        yield Finding(
            path=module.path,
            line=node.lineno,
            code="REPRO101",
            message=(
                f"self.{attribute} is {access} in {class_node.name}.{method.name} "
                f"without holding self.{lock} (declared guarded-by {lock!r})"
            ),
            symbol=f"{class_node.name}.{method.name}",
            column=node.col_offset,
        )
