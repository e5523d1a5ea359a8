"""Unit tests for the lint engine: parsed units, finding order, report."""

from __future__ import annotations

from repro.lint import LintFinding
from repro.lint.context import (
    module_name_for,
    units_from_root,
    units_from_sources,
)
from repro.lint.engine import lint_paths


def finding(**overrides):
    payload = dict(
        path="repro/cache/mod.py",
        line=3,
        col=4,
        detail="wall-clock read",
    )
    payload.update(overrides)
    return LintFinding(**payload)


IN_SCOPE = "repro.cache.synthetic"
VIOLATION = (
    "import time\n"
    "\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
)


class TestContext:
    def test_module_name_for(self):
        assert module_name_for("repro/cache/keys.py") == "repro.cache.keys"
        assert module_name_for("repro/cache/__init__.py") == "repro.cache"
        assert module_name_for("top.py") == "top"

    def test_from_sources_parses_and_indexes(self):
        (unit,) = units_from_sources({IN_SCOPE: "x = 1\n"})
        assert unit.module == IN_SCOPE
        assert unit.relpath == "repro/cache/synthetic.py"

    def test_from_root_is_sorted_and_skips_unparsable(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("y = 2\n")
        (tmp_path / "broken.py").write_text("def (oops\n")
        units = units_from_root(tmp_path)
        assert [u.relpath for u in units] == ["a.py", "b.py"]


class TestFindings:
    def test_sort_is_total_and_stable(self):
        findings = [
            finding(path="b.py", line=1),
            finding(path="a.py", line=9),
            finding(path="a.py", line=2),
        ]
        assert [(f.path, f.line) for f in sorted(findings)] == [
            ("a.py", 2),
            ("a.py", 9),
            ("b.py", 1),
        ]


class TestEngine:
    def test_lint_paths_end_to_end(self, tmp_path):
        mod = tmp_path / "repro" / "cache"
        mod.mkdir(parents=True)
        (mod / "synthetic.py").write_text(VIOLATION)
        report = lint_paths(tmp_path)
        assert len(report.findings) == 1
        assert report.findings[0].path == "repro/cache/synthetic.py"
        assert not report.ok
