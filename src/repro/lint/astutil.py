"""AST analysis helpers for the determinism checker.

The checker only needs a small, honest subset of static analysis:
resolve a call expression to a dotted name *through the module's
imports* (so ``from time import time as now; now()`` is still seen as
``time.time``) and recognise set-valued expressions.  Everything here
is pure :mod:`ast`; nothing imports or executes the linted code.
"""

from __future__ import annotations

import ast


def build_import_table(tree: ast.Module) -> dict[str, str]:
    """Local alias → fully qualified dotted name, from all imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as clock`` maps ``clock -> time.perf_counter``;
    relative imports keep their module tail (``from .keys import X`` →
    ``keys.X``) — good enough for the checker, which matches on suffixes
    of well-known absolute names.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    table[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


def qualified_name(
    node: ast.expr, imports: dict[str, str] | None = None
) -> str | None:
    """The dotted name of a ``Name``/``Attribute`` chain, else ``None``.

    The chain's root is substituted through ``imports`` when given, so
    ``np.zeros`` resolves to ``numpy.zeros``.  Chains rooted in calls,
    subscripts or literals resolve to ``None``.
    """
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = current.id
    if imports and root in imports:
        root = imports[root]
    parts.append(root)
    return ".".join(reversed(parts))


def is_set_expression(node: ast.expr) -> bool:
    """Whether an expression is statically an unordered set value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False
