"""Mutation self-validation of the determinism check (the
``repro.check.mutate`` pattern turned on the linter itself).

A static check that silently stops matching is worse than none — CI
stays green while the invariant rots.  So the check ships a *corpus*: a
clean in-memory project that must lint clean, plus seeded mutants —
single injected violations it must flag.  The test gate
(``tests/unit/test_lint_selfcheck.py``) requires a >=95% kill rate and
zero findings on the clean template.

Mutants are derived from the clean sources by textual substitution, so
each one is a *minimal* delta; the seed drives cosmetic variation
(identifier names) to keep the check honest about matching structure
rather than the exact template text.  Everything is deterministic for a
given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.lint.engine import lint_sources


@dataclass(frozen=True)
class Mutant:
    """One seeded violation the check must detect."""

    name: str
    sources: dict[str, str]


@dataclass(frozen=True)
class KillResult:
    total: int
    killed: int
    survivors: tuple[str, ...]

    @property
    def rate(self) -> float:
        return self.killed / self.total if self.total else 1.0


_CLEAN = {
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
    # Out-of-scope module: may do anything without tripping the check.
    "repro.bench.harness": (
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
    ),
}


def clean_sources() -> dict[str, str]:
    return dict(_CLEAN)


#: Statements the check must flag when injected into the
#: in-scope module's function body.  ``{var}`` is seeded filler.
_INJECTIONS = [
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


def _filler_var(rng: random.Random) -> str:
    return "v_" + "".join(rng.choice("abcdefgh") for _ in range(4))


def mutants(seed: int = 0) -> list[Mutant]:
    """The seeded mutant corpus."""
    rng = random.Random(seed)
    corpus = []
    for entry in _INJECTIONS:
        name, prelude, body = entry[0], entry[1], entry[2]
        tail = entry[3] if len(entry) > 3 else ""
        sources = clean_sources()
        source = prelude + sources["repro.cache.synthetic"]
        marker = "    return blob, now\n"
        injected = body.format(var=_filler_var(rng))
        source = source.replace(marker, injected + marker) + tail
        sources["repro.cache.synthetic"] = source
        corpus.append(Mutant(name, sources))
    # One mutant in a *different* in-scope package proves the scope is
    # prefix-based, not a single-module match.
    sources = clean_sources()
    sources["repro.serve.synthetic"] = (
        "import time\n\n\ndef stamp():\n    return time.monotonic()\n"
    )
    corpus.append(Mutant("wall-clock-serve-module", sources))
    return corpus


def kill_check(seed: int = 0) -> KillResult:
    """Lint every mutant; one is *killed* when it draws a finding."""
    corpus = mutants(seed)
    survivors = tuple(
        mutant.name
        for mutant in corpus
        if not lint_sources(mutant.sources).findings
    )
    return KillResult(
        total=len(corpus),
        killed=len(corpus) - len(survivors),
        survivors=survivors,
    )
