"""Per-stage delta compilation: artifact keys, reuse, stats isolation."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cache import (
    CACHE_VERSION,
    ScheduleCache,
    artifact_key,
    schedule_cache_key,
)
from repro.cache.store import routing_to_entry
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.errors import SchedulingError
from repro.experiments import standard_setup
from repro.tfg.graph import build_tfg
from repro.topology import binary_hypercube

CONFIG = CompilerConfig(seed=0, max_paths=16, max_restarts=2, retries=1)
#: Both assignment stages keep their artifact under their own key: the
#: heuristic's (``assignment_key``) and the LSD->MSD baseline's
#: (``lsd_assignment_key``; over HTTP: ``{"use_assign_paths": false}``).
both_assignment_stages = pytest.mark.parametrize(
    "config",
    [CONFIG, dataclasses.replace(CONFIG, use_assign_paths=False)],
    ids=["assign-paths", "lsd"],
)


def diamond_setup(cube3, b_size=1280.0, bandwidth=64.0):
    """The `small_setup` diamond, with message ``b``'s size a knob."""
    tfg = build_tfg(
        "diamond",
        [("s", 400), ("m1", 400), ("m2", 400), ("t", 400)],
        [
            ("a", "s", "m1", 640),
            ("b", "s", "m2", b_size),
            ("c", "m1", "t", 640),
            ("d", "m2", "t", 1280),
        ],
    )
    return standard_setup(tfg, cube3, bandwidth=bandwidth)


def compile_with(setup, cache, load=0.5, config=CONFIG):
    return compile_schedule(
        setup.timing,
        setup.topology,
        setup.allocation,
        setup.tau_in_for_load(load),
        config,
        cache=cache,
    )


def stripped_entry(routing):
    """Canonical entry minus solver tallies (delta runs solve fewer LPs)."""
    entry = routing_to_entry(routing)
    entry.pop("solver_stats", None)
    return entry


class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        key = artifact_key("demo", {"input": 1})
        assert cache.fetch_artifact(key, "demo") is None
        cache.store_artifact(key, "demo", {"value": [1, 2, 3]})
        assert cache.fetch_artifact(key, "demo") == {"value": [1, 2, 3]}
        # Survives a fresh cache object over the same directory.
        assert ScheduleCache(tmp_path).fetch_artifact(key, "demo") == {
            "value": [1, 2, 3]
        }

    def test_stage_mismatch_misses(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        key = artifact_key("demo", {"input": 1})
        cache.store_artifact(key, "demo", {"value": 1})
        assert cache.fetch_artifact(key, "other") is None

    def test_counters_are_per_stage_only(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        key = artifact_key("demo", {"input": 1})
        cache.fetch_artifact(key, "demo")
        cache.store_artifact(key, "demo", {"value": 1})
        cache.fetch_artifact(key, "demo")
        stats = cache.stats.as_dict()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["stores"] == 0
        assert stats["stages"]["demo"] == {
            "hits": 1, "misses": 1, "stores": 1,
        }

    def test_contains_probes_without_counting(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        key = artifact_key("demo", {"input": 1})
        assert not cache.contains(key)
        cache.store_artifact(key, "demo", {"value": 1})
        assert cache.contains(key)
        assert ScheduleCache(tmp_path).contains(key)  # disk tier
        stats = cache.stats.as_dict()
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestDeltaCompile:
    def test_cold_compile_stores_stage_artifacts(self, cube3, tmp_path):
        cache = ScheduleCache(tmp_path)
        compile_with(diamond_setup(cube3), cache)
        stats = cache.stats.as_dict()
        # Artifact traffic never skews the monolithic counters.
        assert stats["misses"] == 1 and stats["stores"] == 1
        stages = stats["stages"]
        assert stages["assign-paths"]["stores"] == 1
        assert stages["allocate+schedule"]["stores"] == 4
        assert stages["build-schedule"]["stores"] == 1

    @both_assignment_stages
    def test_full_prefix_replay_after_monolithic_loss(
        self, cube3, tmp_path, config
    ):
        setup = diamond_setup(cube3)
        fresh = compile_with(setup, ScheduleCache(tmp_path), config=config)
        # Drop only the monolithic entry; every stage artifact survives.
        entry_path = next(
            p for p in tmp_path.rglob("*.json")
            if json.loads(p.read_text())["kind"] == "schedule"
        )
        entry_path.unlink()
        reopened = ScheduleCache(tmp_path)
        warm = compile_with(setup, reopened, config=config)
        stats = reopened.stats.as_dict()
        assert stats["hits"] == 0 and stats["misses"] == 1
        stages = stats["stages"]
        for name in ("assign-paths", "allocate+schedule", "build-schedule"):
            assert stages[name]["misses"] == 0, name
        assert stages["allocate+schedule"]["hits"] == 4
        assert stages["build-schedule"]["hits"] == 1
        assert stripped_entry(warm) == stripped_entry(fresh)

    @both_assignment_stages
    def test_partial_reuse_on_size_perturbation(self, cube3, tmp_path, config):
        compile_with(
            diamond_setup(cube3), ScheduleCache(tmp_path), config=config
        )
        perturbed = diamond_setup(cube3, b_size=640.0)
        delta_cache = ScheduleCache(tmp_path)
        delta = compile_with(perturbed, delta_cache, config=config)
        stages = delta_cache.stats.as_dict()["stages"]
        # Only the subset containing the perturbed message re-runs.
        assert stages["allocate+schedule"]["hits"] == 3
        assert stages["allocate+schedule"]["misses"] == 1
        cold = compile_with(
            perturbed, ScheduleCache(tmp_path / "cold"), config=config
        )
        assert stripped_entry(delta) == stripped_entry(cold)

    def test_negative_subset_artifact_replays_failure(self, tmp_path):
        from repro.mapping import sequential_allocation
        from repro.tfg.synth import chain_tfg

        setup = standard_setup(
            chain_tfg(4, ops=400.0, size_bytes=1280.0),
            binary_hypercube(3),
            bandwidth=64.0,
            allocator=sequential_allocation,
        )
        with pytest.raises(SchedulingError) as first:
            compile_with(setup, ScheduleCache(tmp_path))
        # Drop the monolithic negative entry; the stored per-stage
        # failure artifact must replay the identical error.
        entry_path = next(
            p for p in tmp_path.rglob("*.json")
            if json.loads(p.read_text())["kind"] == "failure"
        )
        entry_path.unlink()
        reopened = ScheduleCache(tmp_path)
        with pytest.raises(SchedulingError) as second:
            compile_with(setup, reopened)
        assert type(second.value) is type(first.value)
        assert str(second.value) == str(first.value)
        assert second.value.stage == first.value.stage

    def test_delta_disabled_without_cache(self, cube3):
        # No cache, no delta state: compilation still works unchanged.
        routing = compile_with(diamond_setup(cube3), None)
        assert routing.schedule is not None


class TestWarmStartScope:
    def test_scoped_backends_share_one_basis_pool(self):
        from repro.solvers import clear_warm_scopes, get_backend

        pytest.importorskip("scipy")
        clear_warm_scopes()
        try:
            a = get_backend("highs", warm_start=True, warm_scope="s1")
            b = get_backend("highs", warm_start=True, warm_scope="s1")
            other = get_backend("highs", warm_start=True, warm_scope="s2")
            unscoped = get_backend("highs", warm_start=True)
            assert a._basis_cache is b._basis_cache
            assert other._basis_cache is not a._basis_cache
            assert unscoped._basis_cache is not a._basis_cache
        finally:
            clear_warm_scopes()

    def test_warm_scope_key_ignores_sizes(self, cube3):
        from repro.cache import warm_scope_key

        setup = diamond_setup(cube3)
        resized = diamond_setup(cube3, b_size=640.0)
        assert warm_scope_key(
            setup.timing, setup.topology, setup.allocation, "highs"
        ) == warm_scope_key(
            resized.timing, resized.topology, resized.allocation, "highs"
        )
        assert warm_scope_key(
            setup.timing, setup.topology, setup.allocation, "highs"
        ) != warm_scope_key(
            setup.timing, setup.topology, setup.allocation, "reference"
        )

    def test_warm_delta_identical_to_cold(self, cube3, tmp_path):
        pytest.importorskip("scipy")
        from repro.solvers import clear_warm_scopes

        clear_warm_scopes()
        try:
            warm_config = dataclasses.replace(CONFIG, lp_warm_start=True)
            setup = diamond_setup(cube3)
            compile_with(
                setup, ScheduleCache(tmp_path), config=warm_config
            )
            perturbed = diamond_setup(cube3, b_size=640.0)
            delta = compile_with(
                perturbed, ScheduleCache(tmp_path), config=warm_config
            )
            cold = compile_with(
                perturbed, ScheduleCache(tmp_path / "cold"), config=CONFIG
            )
            assert stripped_entry(delta) == stripped_entry(cold)
        finally:
            clear_warm_scopes()


class TestPerfKnobKeyIdentity:
    def test_all_perf_knob_combos_share_one_key(self, cube3):
        # Regression: lp_batch/lp_warm_start once fragmented the key
        # space into four identities for byte-identical outputs.
        setup = diamond_setup(cube3)
        keys = {
            schedule_cache_key(
                setup.timing,
                setup.topology,
                setup.allocation,
                setup.tau_in_for_load(0.5),
                dataclasses.replace(
                    CONFIG, lp_batch=batch, lp_warm_start=warm
                ),
            )
            for batch in (False, True)
            for warm in (False, True)
        }
        assert len(keys) == 1

    def test_cache_version_bumped(self):
        assert CACHE_VERSION == "repro.cache/2"
