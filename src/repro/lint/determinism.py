"""The ``determinism`` check — no ambient nondeterminism in reproducible paths.

The compile/cache/delta/serve pipeline promises byte-identical
artifacts for identical inputs (the fuzz differential in
``repro.check.fuzz`` enforces it dynamically); this check enforces the
*static* discipline that makes the promise cheap to keep — the one
invariant of the codebase that no type and no run-time guard can carry.
Within the scoped modules it flags three families:

wall-clock (``det-wall-clock``)
    Calls (or ``default_factory=`` references) resolving to
    ``time.time``/``monotonic``/``perf_counter`` (and ``_ns``
    variants), ``datetime.datetime.now``/``utcnow``/``today``,
    ``datetime.date.today``.  A timestamp that reaches an artifact
    makes two identical compilations differ.

ambient randomness (``det-rng``)
    ``os.urandom``, ``uuid.uuid1``/``uuid.uuid4``, calls on the
    module-level ``random`` generator (``random.random``,
    ``random.choice``...), ``random.Random()`` constructed without a
    seed, and numpy's global generator
    (``numpy.random.rand``/``default_rng()`` unseeded...).  Seeded
    generators (``random.Random(seed)``, ``default_rng(seed)``) pass.

unstable ordering (``det-ordering``)
    ``json.dumps``/``json.dump`` without ``sort_keys=True`` (dict
    insertion order is deterministic per-process but not across code
    paths that build the dict differently), and set expressions
    serialized or hashed directly (set iteration order varies with
    insertion history and, for strings, with ``PYTHONHASHSEED``).

Scope and allowlist
-------------------
Only modules under :data:`SCOPE_PREFIXES` are checked — the paper
harness, examples and benchmarks may time and randomize freely.
Measurement code *inside* the scope that legitimately reads the clock
is allowlisted per ``(module, family)`` in :data:`ALLOWLIST`, each
entry carrying its audit reason — the one suppression mechanism.  An
entry exempts exactly one family: a timing-allowlisted module is still
checked for randomness and ordering.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import (
    build_import_table,
    is_set_expression,
    qualified_name,
)
from repro.lint.context import ModuleUnit
from repro.lint.findings import LintFinding

#: Dotted-module prefixes the check applies to (segment-aligned).
SCOPE_PREFIXES = (
    "repro.core.pipeline",
    "repro.core.compiler",
    "repro.cache",
    "repro.serve",
    "repro.solvers",
)

#: ``(module, family) -> audit reason`` exemptions.  Every entry must
#: say *why* the nondeterminism is harmless; the linter's own test
#: suite asserts the reasons are non-empty.
ALLOWLIST: dict[tuple[str, str], str] = {
    (
        "repro.solvers.base",
        "det-wall-clock",
    ): "TalliedBackend measures solver wall time; lp_wall_ms is "
    "reporting-only and stripped from cache entries by routing_to_entry",
    (
        "repro.solvers.ilp_backend",
        "det-wall-clock",
    ): "ILP reference solves time themselves for optimality-gap "
    "reporting; wall_ms is telemetry, never part of a cached artifact",
    (
        "repro.serve.jobs",
        "det-wall-clock",
    ): "job lifecycle timestamps (submitted/started/finished) are "
    "operational telemetry, never part of compiled artifacts",
    (
        "repro.serve.service",
        "det-wall-clock",
    ): "service uptime and trace timeline are wall-clock by definition; "
    "compile results flow through the deterministic compiler unchanged",
}

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_RNG_CALLS = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
    }
)

#: Module-level ``random.<fn>`` functions driven by the global,
#: ambiently-seeded generator.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "betavariate",
        "expovariate",
        "normalvariate",
    }
)

#: ``numpy.random.<fn>`` legacy global-state API.
_GLOBAL_NUMPY_FNS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
    }
)

_HASHLIB_CTORS = frozenset(
    {"md5", "sha1", "sha224", "sha256", "sha384", "sha512", "blake2b", "blake2s"}
)


def in_scope(module: str) -> bool:
    """Whether a dotted module name falls under the determinism scope."""
    for prefix in SCOPE_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return True
    return False


def _wall_clock_name(name: str | None) -> bool:
    if name is None:
        return False
    if name in _WALL_CLOCK:
        return True
    # ``from datetime import datetime; datetime.now()`` resolves to
    # ``datetime.datetime.now`` through the import table, but a bare
    # ``datetime.now()`` in a module doing ``import datetime`` does not.
    return name.endswith((".datetime.now", ".datetime.utcnow"))


def check_module(unit: ModuleUnit) -> Iterator[LintFinding]:
    """Findings in one module (none when it is out of scope)."""
    if not in_scope(unit.module):
        return
    imports = build_import_table(unit.tree)
    allowed = {
        family
        for (module, family), _reason in ALLOWLIST.items()
        if module == unit.module
    }
    for node in ast.walk(unit.tree):
        if isinstance(node, ast.Call):
            yield from _check_call(unit, node, imports, allowed)
        elif isinstance(node, ast.keyword):
            yield from _check_keyword(unit, node, imports, allowed)


def _finding(
    unit: ModuleUnit, node: ast.AST, family: str, detail: str
) -> LintFinding:
    return LintFinding(
        path=unit.relpath,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        detail=f"{detail} ({family})",
    )


def _check_call(
    unit: ModuleUnit,
    node: ast.Call,
    imports: dict[str, str],
    allowed: set[str],
) -> Iterator[LintFinding]:
    name = qualified_name(node.func, imports)

    if _wall_clock_name(name) and "det-wall-clock" not in allowed:
        yield _finding(
            unit,
            node,
            "det-wall-clock",
            f"wall-clock read {name}() in a reproducible path; pass "
            "timestamps in from the caller or allowlist the module "
            "with an audit reason",
        )

    yield from _check_rng_call(unit, node, name, allowed)
    yield from _check_ordering_call(unit, node, name, allowed)


def _check_rng_call(
    unit: ModuleUnit,
    node: ast.Call,
    name: str | None,
    allowed: set[str],
) -> Iterator[LintFinding]:
    if "det-rng" in allowed or name is None:
        return
    if name in _RNG_CALLS:
        yield _finding(
            unit,
            node,
            "det-rng",
            f"{name}() draws ambient entropy; derive ids from the "
            "cache key or a seeded generator",
        )
        return
    parts = name.split(".")
    if len(parts) == 2 and parts[0] == "random":
        if parts[1] in _GLOBAL_RANDOM_FNS:
            yield _finding(
                unit,
                node,
                "det-rng",
                f"{name}() uses the global random generator; construct "
                "random.Random(seed) from config.seed instead",
            )
        elif parts[1] == "Random" and not node.args:
            yield _finding(
                unit,
                node,
                "det-rng",
                "random.Random() without a seed is entropy-seeded; "
                "pass config.seed",
            )
    elif name.startswith("numpy.random."):
        tail = name[len("numpy.random.") :]
        if tail in _GLOBAL_NUMPY_FNS:
            yield _finding(
                unit,
                node,
                "det-rng",
                f"{name}() uses numpy's global RNG state; use "
                "numpy.random.default_rng(seed)",
            )
        elif tail == "default_rng" and not node.args:
            yield _finding(
                unit,
                node,
                "det-rng",
                "numpy.random.default_rng() without a seed is "
                "entropy-seeded; pass config.seed",
            )


def _check_ordering_call(
    unit: ModuleUnit,
    node: ast.Call,
    name: str | None,
    allowed: set[str],
) -> Iterator[LintFinding]:
    if "det-ordering" in allowed or name is None:
        return
    if name in ("json.dumps", "json.dump"):
        sort_keys = next(
            (kw for kw in node.keywords if kw.arg == "sort_keys"), None
        )
        if sort_keys is None or (
            isinstance(sort_keys.value, ast.Constant)
            and sort_keys.value.value is False
        ):
            yield _finding(
                unit,
                node,
                "det-ordering",
                f"{name}() without sort_keys=True; serialized key "
                "order must not depend on dict construction order",
            )
        if node.args and is_set_expression(node.args[0]):
            yield _finding(
                unit,
                node,
                "det-ordering",
                "serializing a set literal; sort it into a list first "
                "(set iteration order is insertion/hash dependent)",
            )
    elif (
        name.startswith("hashlib.")
        and name.split(".")[-1] in _HASHLIB_CTORS
        and node.args
        and is_set_expression(node.args[0])
    ):
        yield _finding(
            unit,
            node,
            "det-ordering",
            "hashing a set; sort it first — the digest would vary "
            "with iteration order",
        )


def _check_keyword(
    unit: ModuleUnit,
    node: ast.keyword,
    imports: dict[str, str],
    allowed: set[str],
) -> Iterator[LintFinding]:
    """``field(default_factory=time.time)`` smuggles a clock read in
    without a visible call expression."""
    if node.arg != "default_factory" or "det-wall-clock" in allowed:
        return
    name = qualified_name(node.value, imports)
    if _wall_clock_name(name):
        yield _finding(
            unit,
            node.value,
            "det-wall-clock",
            f"default_factory={name} stamps wall-clock time into a "
            "dataclass in a reproducible path",
        )
