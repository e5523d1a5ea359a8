"""Structured lint findings and the report of one pass.

The shapes mirror :mod:`repro.check.analyzer`: the checker never raises
on offending source — it yields :class:`LintFinding` records, and the
engine aggregates them into a :class:`LintReport` with the same
``ok``/``summary()`` ergonomics the conformance analyzer has.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class LintFinding:
    """One determinism violation in the source tree.

    Findings order by path, line, column — the report order.

    Attributes
    ----------
    path:
        Path of the offending file, relative to the scanned root, in
        POSIX form.
    line, col:
        1-based line and 0-based column of the offending node.
    detail:
        Human-readable description of the violation, ending in its
        family id (``det-wall-clock``, ``det-rng``, ``det-ordering``).
    """

    path: str
    line: int
    col: int
    detail: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def __str__(self) -> str:
        return f"[error] {self.location()} determinism: {self.detail}"


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint pass over a source tree."""

    findings: tuple[LintFinding, ...]
    files_scanned: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        return (
            f"{len(self.findings)} finding(s) over {self.files_scanned} "
            "file(s)"
        )

    def render(self) -> str:
        """One line per finding, then the summary and the verdict."""
        lines = [str(finding) for finding in self.findings]
        lines.append(self.summary())
        lines.append("OK" if self.ok else "FAIL")
        return "\n".join(lines) + "\n"
