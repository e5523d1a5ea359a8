"""Targeted behaviour tests for the four domain rules.

The mutation corpus (``test_lint_selfcheck``) proves breadth; these
tests pin the *boundaries*: scope membership, allowlist semantics, and
the specific false-positive shapes each rule must not produce.
"""

from __future__ import annotations

from repro.lint import ProjectContext, lint_project, rules_named
from repro.lint.rules.determinism import ALLOWLIST, in_scope
from repro.lint.selfcheck import clean_sources


def run_rule(rule_id, sources):
    project = ProjectContext.from_sources(sources)
    return lint_project(project, rules=rules_named([rule_id])).findings


class TestDeterminismScope:
    def test_scope_is_segment_aligned(self):
        assert in_scope("repro.cache.store")
        assert in_scope("repro.serve.jobs")
        assert in_scope("repro.core.pipeline")
        assert not in_scope("repro.cachelike")
        assert not in_scope("repro.core.bounds")
        assert not in_scope("repro.experiments")

    def test_out_of_scope_module_never_flagged(self):
        findings = run_rule(
            "determinism",
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
        findings = run_rule("determinism", {"repro.solvers.base": source})
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
        assert run_rule("determinism", {"repro.cache.synthetic": source}) == ()

    def test_sorted_json_passes(self):
        source = (
            "import json\n\n\ndef blob(payload):\n"
            "    return json.dumps(payload, sort_keys=True)\n"
        )
        assert run_rule("determinism", {"repro.cache.synthetic": source}) == ()


class TestTraceTaxonomy:
    def test_variable_category_is_not_judged(self):
        sources = clean_sources("trace-taxonomy")
        sources["repro.demo"] += (
            "\n\ndef emit_var(tracer, cat, t):\n"
            '    tracer.instant(cat, "tick", t)\n'
        )
        assert run_rule("trace-taxonomy", sources) == ()

    def test_rule_silent_without_tracer_module(self):
        findings = run_rule(
            "trace-taxonomy",
            {"repro.demo": 'def f(t):\n    t.instant("bogus", "x", 0.0)\n'},
        )
        assert findings == ()

    def test_real_taxonomy_matches_docstring_sections(self):
        from repro.trace.tracer import TRACE_CATEGORIES
        import repro.trace.tracer as tracer_mod

        assert len(TRACE_CATEGORIES) == len(set(TRACE_CATEGORIES)) == 12
        for category in TRACE_CATEGORIES:
            assert f"``{category}``" in tracer_mod.__doc__


class TestSolverContract:
    def test_reads_are_fine(self):
        source = (
            "def extract(solution):\n"
            "    return float(solution.x[0]) + float(solution.dual_eq[0])\n"
        )
        assert (
            run_rule(
                "solver-contract",
                {"repro.core.interval_allocation": source},
            )
            == ()
        )

    def test_dense_backend_out_of_scope(self):
        source = "def solve(m):\n    return m.to_dense()\n"
        assert (
            run_rule("solver-contract", {"repro.solvers.reference": source})
            == ()
        )

    def test_unrelated_attribute_x_not_flagged(self):
        # ``self.x = ...`` on a non-hot-path module must not trip.
        source = "class Box:\n    def __init__(self, x):\n        self.x = x\n"
        assert (
            run_rule("solver-contract", {"repro.core.bounds": source}) == ()
        )


class TestCacheKeyLedgers:
    def test_real_ledgers_partition_compiler_config(self):
        import dataclasses

        from repro.cache.keys import hashed_fields
        from repro.core.compiler import CompilerConfig

        roles = {
            f.name: f.metadata["role"]
            for f in dataclasses.fields(CompilerConfig)
        }
        assert set(roles.values()) == {"hashed", "perf"}
        assert {f.name for f in hashed_fields(CompilerConfig)} == {
            name for name, role in roles.items() if role == "hashed"
        }

    def test_real_ledgers_partition_run_config(self):
        import dataclasses

        from repro.results import RunConfig

        roles = {
            f.name: f.metadata["role"] for f in dataclasses.fields(RunConfig)
        }
        assert set(roles.values()) == {"result", "observer"}
        assert roles["tracer"] == "observer"

    def test_canonical_config_runtime_guard_message(self):
        # What remains of the drift guard: a field that reaches
        # canonical_config without a valid role raises, naming itself.
        import dataclasses

        import pytest

        from repro.cache.keys import canonical_config
        from repro.core.compiler import CompilerConfig

        fields = canonical_config(CompilerConfig())
        assert "lp_batch" not in fields
        assert "lp_warm_start" not in fields
        assert "seed" in fields

        @dataclasses.dataclass(frozen=True)
        class Drifted(CompilerConfig):
            new_knob: int = 0
            typo: int = dataclasses.field(
                default=0, metadata={"role": "hashd"}
            )

        with pytest.raises(ValueError, match=r"new_knob.*typo.*no cache role"):
            canonical_config(Drifted())

    def test_rule_skips_partial_projects(self):
        # Linting a subtree without the compiler module checks what it
        # can see: RunConfig only.
        sources = clean_sources("cache-key")
        del sources["repro.core.compiler"]
        assert run_rule("cache-key", sources) == ()
        sources["repro.results"] += "    warmup: int = 0\n"
        (finding,) = run_rule("cache-key", sources)
        assert finding.symbol == "warmup" and "role-missing" in finding.detail

    def test_each_role_defect_is_one_finding(self):
        def findings_for(declaration):
            sources = clean_sources("cache-key")
            sources["repro.core.compiler"] += f"    knob: int = {declaration}\n"
            return run_rule("cache-key", sources)

        for declaration, marker in [
            ("3", "role-missing"),
            ("field(default=3)", "role-missing"),
            ('field(default=3, metadata={"role": ROLE})', "role-missing"),
            ('field(default=3, metadata={"role": "result"})', "role-unknown"),
        ]:
            (finding,) = findings_for(declaration)
            assert finding.symbol == "knob"
            assert marker in finding.detail, declaration
        assert findings_for('field(default=3, metadata={"role": "perf"})') == ()

    def test_classvar_is_not_a_field(self):
        sources = clean_sources("cache-key")
        sources["repro.core.compiler"] += "    LIMIT: ClassVar[int] = 9\n"
        assert run_rule("cache-key", sources) == ()
