"""Parity-purity checker: bit-identical hot paths stay deterministic.

The repo's performance work carries hard parity contracts — serial vs
parallel dispatch, the DITS-G table vs the flat predicate, fresh
rebuild vs incremental churn all must return *bit-identical* answers.
Functions under such a contract are registered with a ``# parity-critical``
marker on their ``def`` line (greedy rounds, DITS-G candidate generation,
``CanonicalTopK``); this pass rejects the nondeterminism sources that have
historically broken exactly these guarantees:

* **clocks** — any ``time.*`` call (``time``, ``perf_counter``,
  ``monotonic``, ...): timing belongs in the bench harness, never in a
  result path;
* **unseeded randomness** — ``random.*`` / ``secrets.*`` / ``uuid.*`` /
  ``os.urandom`` / ``numpy.random.*`` calls.  Constructing an explicitly
  seeded generator (``random.Random(seed)``, ``default_rng(seed)``) is
  allowed: the seed is then plumbed, not ambient;
* **set-order leakage** — iterating a set expression (set/frozenset
  literals, comprehensions, constructors, unions/intersections, including
  ``x & d.keys()`` views) into ordered output, unless wrapped in
  ``sorted(...)``/order-insensitive reducers, plus ``dict.popitem()``;
* **identity / hash dependence** — ``id(...)`` and ``hash(...)`` feeding
  results varies across processes (hash randomisation) and runs.

All fire as ``REPRO301``.  Order-insensitive uses (e.g. accumulating
commutative counts into a :class:`~repro.utils.heaps.CanonicalTopK`) are
suppressed in place with ``# repro-lint: disable=REPRO301`` so the escape is
visible next to its justification.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.checkers.base import Checker
from repro.analysis.contracts import is_parity_critical
from repro.analysis.engine import ModuleSource
from repro.analysis.findings import Finding

__all__ = ["ParityPurityChecker"]

_CLOCK_MODULES = frozenset({"time"})
_RANDOM_MODULES = frozenset({"random", "secrets", "uuid"})
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)
_SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as a string for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _is_set_expression(node: ast.expr) -> bool:
    """Whether ``node`` syntactically produces an unordered set-like value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
            return True
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _SET_METHODS:
                return True
            if node.func.attr == "keys" and not node.args:
                # dict views are ordered, but combining them below makes
                # sets; a bare .keys() only counts inside a BinOp operand.
                return False
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return (
            _is_set_operand(node.left)
            or _is_set_operand(node.right)
        )
    return False


def _is_set_operand(node: ast.expr) -> bool:
    """Operand view for set algebra: set expressions or dict ``.keys()`` views."""
    if _is_set_expression(node):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
    )


class ParityPurityChecker(Checker):
    """Rejects nondeterminism sources inside ``# parity-critical`` functions."""

    name = "parity-purity"
    codes = ("REPRO301",)

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        """Check every ``# parity-critical`` function defined in ``module``."""
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if is_parity_critical(node, module.lines):
                    yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleSource, function: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        symbol = function.name
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, symbol, node)
            elif isinstance(node, ast.For):
                yield from self._check_iteration(module, symbol, node.iter, "for-loop")
            elif isinstance(node, ast.comprehension):
                yield from self._check_iteration(
                    module, symbol, node.iter, "comprehension"
                )

    def _check_call(
        self, module: ModuleSource, symbol: str, call: ast.Call
    ) -> Iterator[Finding]:
        dotted = _dotted_name(call.func)
        if dotted is not None:
            root = dotted.split(".", 1)[0]
            if root in _CLOCK_MODULES and "." in dotted:
                yield self._finding(
                    module, call, symbol, f"clock call {dotted}() in a parity-critical path"
                )
                return
            if root in _RANDOM_MODULES and "." in dotted:
                if dotted == "random.Random" and call.args:
                    return  # explicitly seeded generator: seed is plumbed
                yield self._finding(
                    module,
                    call,
                    symbol,
                    f"unseeded nondeterminism source {dotted}() in a parity-critical path",
                )
                return
            if dotted == "os.urandom":
                yield self._finding(
                    module, call, symbol, "os.urandom() in a parity-critical path"
                )
                return
            leaf = dotted.rsplit(".", 1)[-1]
            if ".random." in f".{dotted}" and leaf != "default_rng":
                yield self._finding(
                    module,
                    call,
                    symbol,
                    f"unseeded numpy randomness {dotted}() in a parity-critical path",
                )
                return
            if leaf == "default_rng" and not call.args:
                yield self._finding(
                    module, call, symbol, "default_rng() without a seed in a parity-critical path"
                )
                return
            if dotted in {"id", "hash"}:
                yield self._finding(
                    module,
                    call,
                    symbol,
                    f"{dotted}() result is run-dependent (identity/hash randomisation) "
                    "in a parity-critical path",
                )
                return
            if leaf == "popitem":
                yield self._finding(
                    module, call, symbol, "popitem() order-dependence in a parity-critical path"
                )
                return
        # list(<set expr>) / tuple(<set expr>) materialise set order.
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in {"list", "tuple", "enumerate", "iter", "next"}
            and call.args
            and _is_set_expression(call.args[0])
        ):
            yield self._finding(
                module,
                call,
                symbol,
                f"{call.func.id}() over a set expression leaks set iteration "
                "order into a parity-critical path (wrap in sorted(...))",
            )

    def _check_iteration(
        self, module: ModuleSource, symbol: str, iterable: ast.expr, context: str
    ) -> Iterator[Finding]:
        if _is_set_expression(iterable):
            yield self._finding(
                module,
                iterable,
                symbol,
                f"{context} iterates a set expression; set order feeds ordered "
                "output in a parity-critical path (wrap in sorted(...))",
            )

    @staticmethod
    def _finding(
        module: ModuleSource, node: ast.AST, symbol: str, message: str
    ) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            code="REPRO301",
            message=message,
            symbol=symbol,
            column=getattr(node, "col_offset", 0),
        )
