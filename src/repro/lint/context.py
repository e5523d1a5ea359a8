"""Parsed source units: what the determinism checker reads.

A :class:`ModuleUnit` is one parsed file — path, dotted module name and
AST.  Units come from a directory (:func:`units_from_root`, what
``repro-sr lint`` scans) or from in-memory sources
(:func:`units_from_sources`, what the self-check corpus and the unit
tests lint without touching the filesystem).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ModuleUnit:
    """One parsed source file.

    Attributes
    ----------
    relpath:
        POSIX path relative to the scanned root.
    module:
        Dotted module name derived from the path
        (``repro/cache/keys.py`` → ``repro.cache.keys``;
        ``__init__.py`` maps to its package).
    tree:
        The parsed :class:`ast.Module`.
    """

    relpath: str
    module: str
    tree: ast.Module


def module_name_for(relpath: str) -> str:
    """Dotted module name of a POSIX-relative source path."""
    parts = relpath.split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(part for part in parts if part)


def units_from_sources(sources: dict[str, str]) -> list[ModuleUnit]:
    """Units of in-memory sources keyed by module name (``a.b`` →
    ``a/b.py``), sorted by name."""
    return [
        ModuleUnit(
            relpath=module.replace(".", "/") + ".py",
            module=module,
            tree=ast.parse(source),
        )
        for module, source in sorted(sources.items())
    ]


def units_from_root(root: Path | str) -> list[ModuleUnit]:
    """Parse every ``*.py`` under ``root`` (sorted, deterministic).

    Unparsable files are skipped — the linter's job is the determinism
    discipline, not syntax checking (the interpreter and ruff both
    report syntax errors already).
    """
    root = Path(root)
    units = []
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError, ValueError):
            continue
        units.append(
            ModuleUnit(
                relpath=relpath, module=module_name_for(relpath), tree=tree
            )
        )
    return units
