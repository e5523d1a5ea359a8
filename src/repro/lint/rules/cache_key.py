"""Rule ``cache-key`` — config knobs must declare a cache-identity role.

PR 9's perf-knob bug class, made impossible to reintroduce: a *new*
``CompilerConfig`` field either fragments the key space (perf-only knob
hashed) or poisons it (result-affecting knob elided) unless someone
decides which it is.  That decision lives on the field itself::

    max_paths: int = field(default=48, metadata={"role": "hashed"})

and everything else — the key payload, serve's override whitelist and
its coercers — is derived from ``dataclasses.fields()`` at runtime
(:func:`repro.cache.keys.hashed_fields`), so there is no second list to
drift.  What remains for static analysis is one check, over
``CompilerConfig`` (roles ``hashed``/``perf``) and
:class:`repro.results.RunConfig` (roles ``result``/``observer``):

``role-missing``
    A field with no ``field(..., metadata={"role": "<literal>"})`` — a
    bare default, a ``field()`` without the key, or a role the rule
    cannot read because it is not a string literal.
``role-unknown``
    A literal role outside the class's allowed set.

Modules absent from the scanned tree are skipped (linting a subtree
checks what it can see).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import dataclass_fields, find_class, qualified_name
from repro.lint.context import ProjectContext
from repro.lint.findings import LintFinding
from repro.lint.registry import LintRule, register_rule

#: ``(module, class, allowed roles)`` of every role-carrying dataclass.
ROLE_CLASSES = (
    ("repro.core.compiler", "CompilerConfig", ("hashed", "perf")),
    ("repro.results", "RunConfig", ("result", "observer")),
)


def literal_role(value: ast.expr | None) -> str | None:
    """The ``"role"`` string literal of a ``field(metadata={...})`` call."""
    if not (
        isinstance(value, ast.Call)
        and (qualified_name(value.func) or "").split(".")[-1] == "field"
    ):
        return None
    for keyword in value.keywords:
        metadata = keyword.value
        if keyword.arg != "metadata" or not isinstance(metadata, ast.Dict):
            continue
        for key, role in zip(metadata.keys, metadata.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "role"
                and isinstance(role, ast.Constant)
                and isinstance(role.value, str)
            ):
                return role.value
    return None


@register_rule
class CacheKeyCompletenessRule(LintRule):
    id = "cache-key"
    name = "cache-key completeness"
    description = (
        "Every CompilerConfig/RunConfig field must declare a literal "
        "hashed-or-perf (result-or-observer) role in its metadata"
    )

    def check_project(self, project: ProjectContext) -> Iterator[LintFinding]:
        for module, class_name, allowed in ROLE_CLASSES:
            unit = project.module(module)
            if unit is None:
                continue
            classdef = find_class(unit.tree, class_name)
            if classdef is None:
                continue
            for node in dataclass_fields(classdef):
                assert isinstance(node.target, ast.Name)
                name = node.target.id
                role = literal_role(node.value)
                if role in allowed:
                    continue
                expected = " or ".join(f'"{r}"' for r in allowed)
                if role is None:
                    detail = (
                        f"{class_name}.{name} declares no literal role "
                        f"(role-missing): write field(default=..., "
                        f'metadata={{"role": {expected}}})'
                    )
                else:
                    detail = (
                        f"{class_name}.{name} has role {role!r} "
                        f"(role-unknown): expected {expected}"
                    )
                yield LintFinding(
                    rule=self.id,
                    path=unit.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    symbol=name,
                    detail=detail,
                )
