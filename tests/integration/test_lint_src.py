"""The determinism linter over the real source tree, end to end.

The whole point of ``repro.lint`` is that the shipped ``src/`` passes
it: zero findings, with the audited allowlist as the only exemptions.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


class TestSourceTreeIsClean:
    def test_zero_findings_without_baseline(self):
        report = lint_paths(SRC)
        assert report.findings == (), "\n".join(
            str(f) for f in report.findings
        )
        assert report.ok

    def test_scans_the_whole_package(self):
        assert lint_paths(SRC).files_scanned > 100


class TestCli:
    def test_lint_exits_zero_on_clean_tree(self, capsys):
        code = main(["lint", str(SRC)])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_lint_exits_nonzero_on_violation(self, tmp_path, capsys):
        mod = tmp_path / "repro" / "cache"
        mod.mkdir(parents=True)
        (mod / "bad.py").write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n"
        )
        code = main(["lint", str(tmp_path)])
        assert code == 1
        assert "det-wall-clock" in capsys.readouterr().out

    def test_missing_root_is_usage_error(self, capsys):
        code = main(["lint", "definitely/not/here"])
        assert code == 2

    def test_lint_takes_a_root_and_nothing_else(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        assert "usage: repro-sr lint [-h] [root]\n" in capsys.readouterr().out
