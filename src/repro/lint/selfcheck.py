"""Mutation self-validation of the lint rules (the ``repro.check.mutate``
pattern turned on the linter itself).

A static rule that silently stops matching is worse than no rule — CI
stays green while the invariant rots.  So each rule ships a *corpus*:
a clean in-memory project that must lint clean, plus seeded mutants —
single injected violations the rule must flag.  The test gate
(``tests/unit/test_lint_selfcheck.py``) requires a >=95% kill rate per
rule and zero findings on every clean template.

Mutants are derived from the clean sources by textual substitution, so
each one is a *minimal* delta; the seed drives cosmetic variation
(identifier names, filler statements) to keep rules honest about
matching structure rather than the exact template text.  Everything is
deterministic for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.lint.context import ProjectContext
from repro.lint.engine import lint_project
from repro.lint.registry import rules_named


@dataclass(frozen=True)
class Mutant:
    """One seeded violation the named rule must detect."""

    rule: str
    name: str
    sources: dict[str, str]


@dataclass(frozen=True)
class KillResult:
    rule: str
    total: int
    killed: int
    survivors: tuple[str, ...]

    @property
    def rate(self) -> float:
        return self.killed / self.total if self.total else 1.0


# ---------------------------------------------------------------------------
# Clean templates, one project per rule.
# ---------------------------------------------------------------------------

_DETERMINISM_CLEAN = {
    "repro.cache.synthetic": (
        "import json\n"
        "import random\n"
        "import time  # used only via caller-provided timestamps\n"
        "\n"
        "\n"
        "def canonical(payload, now):\n"
        "    blob = json.dumps(payload, sort_keys=True)\n"
        "    return blob, now\n"
        "\n"
        "\n"
        "def make_rng(seed):\n"
        "    return random.Random(seed)\n"
    ),
    # Out-of-scope module: may do anything without tripping the rule.
    "repro.bench.harness": (
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
    ),
}

_TRACE_CLEAN = {
    "repro.trace.tracer": (
        'TRACE_CATEGORIES = ("sim", "link", "compile", "serve")\n'
    ),
    "repro.demo": (
        "from repro.trace.tracer import TraceEvent, TraceRecorder\n"
        "\n"
        "\n"
        "def emit(tracer, t):\n"
        '    tracer.instant("sim", "tick", t)\n'
        '    tracer.span("link", "occupy", t, t + 1.0)\n'
        '    event = TraceEvent("compile", "stage", t)\n'
        '    recorder = TraceRecorder(categories=["serve"])\n'
        "    return event, recorder\n"
    ),
}

_SOLVER_CLEAN = {
    "repro.core.interval_allocation": (
        "def extract(solution, matrix):\n"
        "    x = solution.x.copy()\n"
        "    duals = solution.dual_eq.copy()\n"
        "    nnz = matrix.nnz\n"
        "    return float(x[0]), float(duals[0]), nnz\n"
    ),
    # Dense backends are out of scope by design.
    "repro.solvers.reference": (
        "def solve(matrix):\n"
        "    return matrix.to_dense()\n"
    ),
}

_CACHE_KEY_CLEAN = {
    "repro.core.compiler": (
        "from dataclasses import dataclass, field\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class CompilerConfig:\n"
        '    seed: int = field(default=0, metadata={"role": "hashed"})\n'
        '    lp_batch: bool = field(default=True, metadata={"role": "perf"})\n'
    ),
    "repro.results": (
        "from dataclasses import dataclass, field\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class RunConfig:\n"
        '    seed: int = field(default=0, metadata={"role": "result"})\n'
        '    tracer: object = field(metadata={"role": "observer"})\n'
    ),
}

CLEAN_TEMPLATES: dict[str, dict[str, str]] = {
    "determinism": _DETERMINISM_CLEAN,
    "trace-taxonomy": _TRACE_CLEAN,
    "solver-contract": _SOLVER_CLEAN,
    "cache-key": _CACHE_KEY_CLEAN,
}


def clean_sources(rule_id: str) -> dict[str, str]:
    try:
        return dict(CLEAN_TEMPLATES[rule_id])
    except KeyError:
        raise ValueError(f"no self-check corpus for rule {rule_id!r}")


# ---------------------------------------------------------------------------
# Mutant generation.
# ---------------------------------------------------------------------------

#: Statements the determinism rule must flag when injected into the
#: in-scope module's function body.  ``{var}`` is seeded filler.
_DETERMINISM_INJECTIONS = [
    ("wall-clock-time", "", "    {var} = time.time()\n"),
    ("wall-clock-time-ns", "", "    {var} = time.time_ns()\n"),
    ("wall-clock-monotonic", "", "    {var} = time.monotonic()\n"),
    ("wall-clock-perf", "", "    {var} = time.perf_counter()\n"),
    (
        "wall-clock-datetime",
        "import datetime\n",
        "    {var} = datetime.datetime.now()\n",
    ),
    (
        "wall-clock-from-import",
        "from datetime import datetime\n",
        "    {var} = datetime.now()\n",
    ),
    (
        "wall-clock-aliased",
        "from time import perf_counter as clock\n",
        "    {var} = clock()\n",
    ),
    ("rng-urandom", "import os\n", "    {var} = os.urandom(8)\n"),
    ("rng-uuid4", "import uuid\n", "    {var} = uuid.uuid4()\n"),
    ("rng-uuid1", "import uuid\n", "    {var} = uuid.uuid1()\n"),
    ("rng-global-random", "", "    {var} = random.random()\n"),
    ("rng-global-choice", "", "    {var} = random.choice([1, 2])\n"),
    ("rng-global-shuffle", "", "    random.shuffle({var}_items)\n"),
    ("rng-unseeded-instance", "", "    {var} = random.Random()\n"),
    (
        "rng-numpy-global",
        "import numpy\n",
        "    {var} = numpy.random.rand(3)\n",
    ),
    (
        "rng-numpy-unseeded",
        "import numpy\n",
        "    {var} = numpy.random.default_rng()\n",
    ),
    ("ordering-dumps", "", "    {var} = json.dumps(payload)\n"),
    (
        "ordering-dumps-false",
        "",
        "    {var} = json.dumps(payload, sort_keys=False)\n",
    ),
    (
        "ordering-set-literal",
        "",
        '    {var} = json.dumps({{"a", "b"}}, sort_keys=True)\n',
    ),
    (
        "ordering-hash-set",
        "import hashlib\n",
        "    {var} = hashlib.sha256(frozenset(payload))\n",
    ),
    (
        "wall-clock-default-factory",
        "from dataclasses import dataclass, field\n",
        "",
        # Appended at module level rather than inside the function:
        "\n\n@dataclass\nclass Stamped:\n"
        "    at: float = field(default_factory=time.time)\n",
    ),
]

_TRACE_TYPOS = ["simm", "compiler", "links", "Serve", "tracee"]

_SOLVER_INJECTIONS = [
    ("mutate-x-subscript", "    solution.x[0] = 1.0\n"),
    ("mutate-dual-augassign", "    solution.dual_eq[0] += 2.0\n"),
    ("mutate-x-fill", "    solution.x.fill(0.0)\n"),
    ("mutate-x-sort", "    solution.x.sort()\n"),
    ("mutate-x-rebind", "    solution.x = x\n"),
    ("mutate-writeable", "    solution.x.flags.writeable = True\n"),
    ("mutate-setflags", "    solution.x.setflags(write=True)\n"),
    ("dense-to-dense", "    dense = matrix.to_dense()\n"),
    ("dense-toarray", "    dense = matrix.toarray()\n"),
    ("dense-todense", "    dense = matrix.todense()\n"),
]


def _filler_var(rng: random.Random) -> str:
    return "v_" + "".join(rng.choice("abcdefgh") for _ in range(4))


def _determinism_mutants(seed: int) -> list[Mutant]:
    rng = random.Random(seed)
    mutants = []
    for entry in _DETERMINISM_INJECTIONS:
        name, prelude, body = entry[0], entry[1], entry[2]
        tail = entry[3] if len(entry) > 3 else ""
        sources = clean_sources("determinism")
        source = sources["repro.cache.synthetic"]
        if prelude:
            source = prelude + source
        marker = "    return blob, now\n"
        injected = body.format(var=_filler_var(rng))
        source = source.replace(marker, injected + marker) + tail
        sources["repro.cache.synthetic"] = source
        mutants.append(Mutant("determinism", name, sources))
    # np.copyto-style mutation lives in the solver rule; here add one
    # mutant in a *different* in-scope package to prove the scope is
    # prefix-based, not a single-module match.
    sources = clean_sources("determinism")
    sources["repro.serve.synthetic"] = (
        "import time\n\n\ndef stamp():\n    return time.monotonic()\n"
    )
    mutants.append(Mutant("determinism", "wall-clock-serve-module", sources))
    return mutants


def _trace_mutants(seed: int) -> list[Mutant]:
    rng = random.Random(seed)
    sites = [
        ("instant", '"sim", "tick"'),
        ("span", '"link", "occupy"'),
        ("event", '"compile", "stage"'),
        ("filter", '["serve"]'),
    ]
    replacements = {
        "instant": '"{typo}", "tick"',
        "span": '"{typo}", "occupy"',
        "event": '"{typo}", "stage"',
        "filter": '["{typo}"]',
    }
    mutants = []
    for site, original in sites:
        for typo in rng.sample(_TRACE_TYPOS, 3):
            sources = clean_sources("trace-taxonomy")
            sources["repro.demo"] = sources["repro.demo"].replace(
                original, replacements[site].format(typo=typo)
            )
            mutants.append(
                Mutant("trace-taxonomy", f"{site}-{typo}", sources)
            )
    # Keyword-form TraceEvent construction.
    sources = clean_sources("trace-taxonomy")
    sources["repro.demo"] += (
        "\n\ndef emit_kw(t):\n"
        '    return TraceEvent(category="fault2", name="down", time=t)\n'
    )
    mutants.append(Mutant("trace-taxonomy", "event-keyword-fault2", sources))
    # Unreadable taxonomy must itself be a finding.
    sources = clean_sources("trace-taxonomy")
    sources["repro.trace.tracer"] = (
        "TRACE_CATEGORIES = tuple(sorted(__import__('os').environ))\n"
    )
    mutants.append(Mutant("trace-taxonomy", "taxonomy-unreadable", sources))
    return mutants


def _solver_mutants(seed: int) -> list[Mutant]:
    mutants = []
    for name, line in _SOLVER_INJECTIONS:
        sources = clean_sources("solver-contract")
        source = sources["repro.core.interval_allocation"]
        marker = "    return float(x[0]), float(duals[0]), nnz\n"
        sources["repro.core.interval_allocation"] = source.replace(
            marker, line + marker
        )
        mutants.append(Mutant("solver-contract", name, sources))
    # np.copyto through an import alias.
    sources = clean_sources("solver-contract")
    sources["repro.core.interval_allocation"] = (
        "import numpy as np\n\n"
        + sources["repro.core.interval_allocation"].replace(
            "    return float(x[0]), float(duals[0]), nnz\n",
            "    np.copyto(solution.x, x)\n"
            "    return float(x[0]), float(duals[0]), nnz\n",
        )
    )
    mutants.append(Mutant("solver-contract", "mutate-np-copyto", sources))
    # A second hot-path module must be covered too.
    sources = clean_sources("solver-contract")
    sources["repro.solvers.ilp_backend"] = (
        "def tighten(matrix):\n    return matrix.to_dense()\n"
    )
    mutants.append(Mutant("solver-contract", "dense-ilp-backend", sources))
    return mutants


#: Field declarations the cache-key rule must flag; ``{var}`` is a
#: seeded field name, ``{other}`` a role of the *other* dataclass.
_CACHE_KEY_INJECTIONS = [
    ("bare-default", "    {var}: int = 3\n"),
    ("no-default", "    {var}: int\n"),
    ("field-without-metadata", "    {var}: int = field(default=3)\n"),
    (
        "metadata-without-role",
        '    {var}: int = field(default=3, metadata={{"unit": "us"}})\n',
    ),
    (
        "role-not-literal",
        '    {var}: int = field(default=3, metadata={{"role": ROLE}})\n',
    ),
    (
        "metadata-not-literal",
        "    {var}: int = field(default=3, metadata=ROLE_METADATA)\n",
    ),
    (
        "role-of-other-class",
        '    {var}: int = field(default=3, metadata={{"role": "{other}"}})\n',
    ),
    (
        "role-typo",
        '    {var}: int = field(default=3, metadata={{"role": "hashd"}})\n',
    ),
]


def _cache_key_mutants(seed: int) -> list[Mutant]:
    rng = random.Random(seed)
    mutants = []
    for module, other in (
        ("repro.core.compiler", "observer"),
        ("repro.results", "hashed"),
    ):
        for name, line in _CACHE_KEY_INJECTIONS:
            sources = clean_sources("cache-key")
            sources[module] += line.format(var=_filler_var(rng), other=other)
            mutants.append(
                Mutant("cache-key", f"{module.split('.')[-1]}-{name}", sources)
            )
    return mutants


_GENERATORS = {
    "determinism": _determinism_mutants,
    "trace-taxonomy": _trace_mutants,
    "solver-contract": _solver_mutants,
    "cache-key": _cache_key_mutants,
}


def mutants(rule_id: str, seed: int = 0) -> list[Mutant]:
    """The seeded mutant corpus of one rule."""
    try:
        return _GENERATORS[rule_id](seed)
    except KeyError:
        raise ValueError(f"no self-check corpus for rule {rule_id!r}")


def corpus_rule_ids() -> list[str]:
    return sorted(_GENERATORS)


# ---------------------------------------------------------------------------
# The kill gate.
# ---------------------------------------------------------------------------


def _rule_findings(rule_id: str, sources: dict[str, str]) -> int:
    project = ProjectContext.from_sources(sources)
    report = lint_project(project, rules=rules_named([rule_id]))
    return len(report.findings)


def clean_finding_count(rule_id: str) -> int:
    """Findings the rule raises on its own clean template (must be 0)."""
    return _rule_findings(rule_id, clean_sources(rule_id))


def kill_check(rule_id: str, seed: int = 0) -> KillResult:
    """Run the rule over its corpus; a mutant is *killed* when flagged."""
    corpus = mutants(rule_id, seed)
    survivors = []
    for mutant in corpus:
        if _rule_findings(rule_id, mutant.sources) == 0:
            survivors.append(mutant.name)
    return KillResult(
        rule=rule_id,
        total=len(corpus),
        killed=len(corpus) - len(survivors),
        survivors=tuple(survivors),
    )
