"""Shared AST analysis helpers for the lint rules.

The rules only ever need a small, honest subset of static analysis:
resolve a call expression to a dotted name *through the module's
imports* (so ``from time import time as now; now()`` is still seen as
``time.time``), read literal string tuples from module-level
assignments, and enumerate dataclass fields.  Everything here is pure
:mod:`ast`; nothing imports or executes the linted code.
"""

from __future__ import annotations

import ast
from typing import Iterator


def build_import_table(tree: ast.Module) -> dict[str, str]:
    """Local alias → fully qualified dotted name, from all imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as clock`` maps ``clock -> time.perf_counter``;
    relative imports keep their module tail (``from .keys import X`` →
    ``keys.X``) — good enough for the rules, which match on suffixes of
    well-known absolute names.
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


def iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def literal_strings(node: ast.expr) -> list[str] | None:
    """The string elements of a literal tuple/list/set, else ``None``.

    Non-literal or mixed-type collections resolve to ``None`` — a rule
    that cannot *prove* the contents never guesses.
    """
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    values = []
    for element in node.elts:
        if not (
            isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ):
            return None
        values.append(element.value)
    return values


def module_string_tuple(
    tree: ast.Module, name: str
) -> tuple[list[str], int] | None:
    """A module-level ``NAME = ("a", "b", ...)`` literal and its line.

    Matches plain assignments and annotated assignments whose value is
    a literal tuple/list/set of strings (also a ``frozenset({...})`` /
    ``tuple([...])`` call over one).  Returns ``None`` when the name is
    absent or its value is not statically a string collection.
    """
    for node in tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if not (isinstance(target, ast.Name) and target.id == name):
            continue
        assert value is not None
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("frozenset", "tuple", "set", "list")
            and len(value.args) == 1
        ):
            value = value.args[0]
        strings = literal_strings(value)
        if strings is None:
            return None
        return strings, node.lineno
    return None


def find_class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def dataclass_fields(classdef: ast.ClassDef) -> list[ast.AnnAssign]:
    """The annotated-assignment node of each field in a class body.

    ``ClassVar``-annotated names are skipped (not dataclass fields);
    underscore-prefixed names are kept — a private knob still needs a
    cache-identity decision.
    """
    fields = []
    for node in classdef.body:
        if not isinstance(node, ast.AnnAssign):
            continue
        if not isinstance(node.target, ast.Name):
            continue
        annotation = node.annotation
        base = annotation
        if isinstance(base, ast.Subscript):
            base = base.value
        base_name = qualified_name(base) or ""
        if base_name.split(".")[-1] == "ClassVar":
            continue
        fields.append(node)
    return fields


def is_set_expression(node: ast.expr) -> bool:
    """Whether an expression is statically an unordered set value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False
