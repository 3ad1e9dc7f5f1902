"""In-source contract annotations consumed by the checkers.

The analysis layer is driven by three lightweight comment annotations that
live next to the code they describe (so a reviewer sees contract and
implementation together), plus the suppression syntax:

``# guarded-by: <lock>``
    On a ``self.<attr> = ...`` statement: declares that ``<attr>`` is shared
    mutable state and every read/write (outside ``__init__``) must happen
    inside ``with self.<lock>:``.  ``<lock>`` is another attribute of the
    same class (a ``threading.Lock``/``RLock``).

``# repro-lint: holds=<lock>``
    On a ``def`` line: declares that callers invoke this method with
    ``<lock>`` already held, so guarded accesses inside it are considered
    protected.  (The checker cannot verify the callers; the annotation is
    the documented contract, e.g. ``DITSGlobalIndex._publish``.)

``# parity-critical``
    On a ``def`` line: registers the function as a bit-identical hot path
    (greedy rounds, DITS-G candidate generation, ``CanonicalTopK``); the
    parity-purity checker then rejects nondeterminism sources in its body.

``# repro-lint: disable=<code>[,<code>...]``
    On the offending line: suppresses the named codes (or ``all``) for that
    line.  ``python -m repro.cli lint --strict`` fails on suppressions that
    no longer match any finding, so stale escapes cannot accumulate.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Iterator, Sequence

__all__ = [
    "GUARDED_BY_RE",
    "HOLDS_RE",
    "PARITY_RE",
    "SUPPRESS_RE",
    "guarded_attributes",
    "held_locks_of",
    "is_parity_critical",
    "iter_self_assignments",
    "parse_suppressions",
    "self_attribute_of",
]

GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
HOLDS_RE = re.compile(r"#\s*repro-lint:\s*holds=([A-Za-z_][A-Za-z0-9_]*)")
PARITY_RE = re.compile(r"#\s*parity-critical\b")
# The code list stops at the first non-code token, so a justification may
# follow the codes on the same comment, e.g. "disable=REPRO301 (commutative)".
SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


def parse_suppressions(lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """Map 1-indexed line numbers to the codes suppressed on that line.

    ``all`` (case-insensitive) suppresses every code on the line.
    """
    suppressions: dict[int, frozenset[str]] = {}
    source = "\n".join(lines) + "\n"
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError):  # pragma: no cover - engine parses first
        return suppressions
    for token in tokens:
        # Only genuine comment tokens count: a docstring that *mentions* the
        # marker must not register (or go stale under --strict).
        if token.type != tokenize.COMMENT:
            continue
        match = SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        codes = frozenset(
            code.strip().upper() for code in match.group(1).split(",") if code.strip()
        )
        if codes:
            suppressions[token.start[0]] = codes
    return suppressions


def self_attribute_of(node: ast.AST) -> str | None:
    """The attribute name if ``node`` is ``self.<attr>``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_self_assignments(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[tuple[str, ast.stmt]]:
    """Yield ``(attribute, statement)`` for every ``self.<attr> = ...`` in ``function``."""
    for statement in ast.walk(function):
        targets: list[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
        elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
            targets = [statement.target]
        for target in targets:
            attribute = self_attribute_of(target)
            if attribute is not None and isinstance(statement, ast.stmt):
                yield attribute, statement


def guarded_attributes(
    class_node: ast.ClassDef, lines: Sequence[str]
) -> dict[str, tuple[str, int]]:
    """Guarded-by declarations of a class: ``{attr: (lock, declaration line)}``.

    A declaration is a ``# guarded-by: <lock>`` comment on the line of any
    ``self.<attr> = ...`` statement inside the class (conventionally the
    ``__init__`` assignment that creates the attribute).
    """
    guarded: dict[str, tuple[str, int]] = {}
    for member in class_node.body:
        if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for attribute, statement in iter_self_assignments(member):
            text = lines[statement.lineno - 1] if statement.lineno <= len(lines) else ""
            match = GUARDED_BY_RE.search(text)
            if match is not None:
                guarded.setdefault(attribute, (match.group(1), statement.lineno))
    return guarded


def held_locks_of(
    function: ast.FunctionDef | ast.AsyncFunctionDef, lines: Sequence[str]
) -> frozenset[str]:
    """Locks declared held on entry via ``# repro-lint: holds=<lock>``."""
    text = lines[function.lineno - 1] if function.lineno <= len(lines) else ""
    match = HOLDS_RE.search(text)
    if match is None:
        return frozenset()
    return frozenset({match.group(1)})


def is_parity_critical(
    function: ast.FunctionDef | ast.AsyncFunctionDef, lines: Sequence[str]
) -> bool:
    """Whether ``function`` carries the ``# parity-critical`` marker on its def line."""
    text = lines[function.lineno - 1] if function.lineno <= len(lines) else ""
    return PARITY_RE.search(text) is not None
