"""repro.lint — the determinism linter for the repro codebase.

Where ruff enforces style and mypy enforces types, this package
enforces the one domain invariant nothing else can carry: no wall
clock, ambient randomness or unordered serialisation in the modules
whose output must be reproducible.  Run it with ``repro-sr lint``; see
``docs/analysis.md`` for the scope, the audited allowlist and the
self-check.  (The cache-key, trace-taxonomy and solver-contract
invariants are enforced where a violation would happen — the same
document says where.)
"""

from repro.lint.engine import lint_paths, lint_sources
from repro.lint.findings import LintFinding, LintReport

__all__ = ["LintFinding", "LintReport", "lint_paths", "lint_sources"]
