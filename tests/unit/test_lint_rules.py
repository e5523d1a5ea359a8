"""Targeted behaviour tests for the determinism check.

The mutation corpus (``test_lint_selfcheck``) proves breadth; these
tests pin the *boundaries*: scope membership, allowlist semantics, and
the specific false-positive shapes the check must not produce.
"""

from __future__ import annotations

from repro.lint import lint_sources
from repro.lint.determinism import ALLOWLIST, in_scope


def run_rule(sources):
    return lint_sources(sources).findings


class TestDeterminismScope:
    def test_scope_is_segment_aligned(self):
        assert in_scope("repro.cache.store")
        assert in_scope("repro.serve.jobs")
        assert in_scope("repro.core.pipeline")
        assert not in_scope("repro.cachelike")
        assert not in_scope("repro.core.timebounds")
        assert not in_scope("repro.experiments")

    def test_out_of_scope_module_never_flagged(self):
        findings = run_rule(
            {
                "repro.experiments.sweep": (
                    "import time\n\n\ndef go():\n    return time.time()\n"
                )
            },
        )
        assert findings == ()

    def test_allowlist_exempts_one_family_only(self):
        # repro.solvers.base is allowlisted for wall-clock, NOT rng.
        source = (
            "import time\nimport random\n\n\ndef run():\n"
            "    t = time.perf_counter()\n"
            "    v = random.random()\n"
            "    return t, v\n"
        )
        findings = run_rule({"repro.solvers.base": source})
        assert len(findings) == 1
        assert "det-rng" in findings[0].detail

    def test_allowlist_reasons_are_audited(self):
        for (module, family), reason in ALLOWLIST.items():
            assert module.startswith("repro."), module
            assert family.startswith("det-"), family
            assert len(reason) > 20, (module, family)

    def test_seeded_generators_pass(self):
        source = (
            "import random\nimport numpy\n\n\ndef make(seed):\n"
            "    return random.Random(seed), numpy.random.default_rng(seed)\n"
        )
        assert run_rule({"repro.cache.synthetic": source}) == ()

    def test_sorted_json_passes(self):
        source = (
            "import json\n\n\ndef blob(payload):\n"
            "    return json.dumps(payload, sort_keys=True)\n"
        )
        assert run_rule({"repro.cache.synthetic": source}) == ()
