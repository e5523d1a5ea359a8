"""The lint engine: run the determinism checker over parsed units."""

from __future__ import annotations

from pathlib import Path

from repro.lint.context import ModuleUnit, units_from_root, units_from_sources
from repro.lint.determinism import check_module
from repro.lint.findings import LintReport


def lint_units(units: list[ModuleUnit]) -> LintReport:
    """Every determinism finding in ``units``, in report order."""
    findings = [finding for unit in units for finding in check_module(unit)]
    return LintReport(
        findings=tuple(sorted(findings)), files_scanned=len(units)
    )


def lint_sources(sources: dict[str, str]) -> LintReport:
    """Lint in-memory sources keyed by dotted module name."""
    return lint_units(units_from_sources(sources))


def lint_paths(root: Path | str) -> LintReport:
    """Lint every ``*.py`` under ``root`` — the CLI entry point's core."""
    return lint_units(units_from_root(root))
