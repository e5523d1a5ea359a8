"""Rendering tests: the text report."""

from __future__ import annotations

from repro.lint import lint_sources

VIOLATION = {
    "repro.cache.synthetic": (
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
}


class TestText:
    def test_lists_findings_and_verdict(self):
        text = lint_sources(VIOLATION).render()
        assert "repro/cache/synthetic.py:5:" in text
        assert "determinism" in text
        assert text.rstrip().endswith("FAIL")

    def test_clean_report_says_ok(self):
        text = lint_sources({"repro.other": "x = 1\n"}).render()
        assert text.rstrip().endswith("OK")
