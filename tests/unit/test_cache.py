"""Unit tests for the content-addressed schedule cache (`repro.cache`)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cache import (
    CACHE_VERSION,
    ScheduleCache,
    schedule_cache_key,
)
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.verify import verify_schedule
from repro.errors import SchedulingError, UtilizationExceededError
from tests.conftest import cache_entries, pins

CONFIG = CompilerConfig(seed=0, max_paths=16, max_restarts=2, retries=1)


def artifact_entry(stage, payload):
    """The envelope ``DeltaState`` puts around one stage's payload."""
    return {"format": CACHE_VERSION, "kind": "artifact", "stage": stage,
            "payload": payload}


def compile_small(setup, load=0.5, cache=None, config=CONFIG):
    return compile_schedule(
        setup.timing,
        setup.topology,
        setup.allocation,
        setup.tau_in_for_load(load),
        config,
        cache=cache,
    )


class TestMemoryTier:
    def test_second_compile_hits(self, small_setup):
        cache = ScheduleCache()
        compile_small(small_setup, cache=cache)
        assert cache.stats.as_dict()["misses"] == 1
        warm = compile_small(small_setup, cache=cache)
        stats = cache.stats.as_dict()
        assert stats["hits"] == 1 and stats["stores"] == 1
        assert warm.extra["cache"] == {
            "hit": True, "key": schedule_cache_key(
                small_setup.timing, small_setup.topology,
                small_setup.allocation, small_setup.tau_in_for_load(0.5),
                CONFIG,
            ),
        }

    def test_cached_equals_fresh(self, small_setup):
        cache = ScheduleCache()
        fresh = compile_small(small_setup, cache=cache)
        warm = compile_small(small_setup, cache=cache)
        assert warm.schedule == fresh.schedule
        assert warm.tau_in == fresh.tau_in
        assert warm.bounds == fresh.bounds
        assert warm.local_messages == fresh.local_messages
        assert warm.utilization.peak == pytest.approx(fresh.utilization.peak)

    def test_cached_schedule_verifies(self, small_setup):
        cache = ScheduleCache()
        compile_small(small_setup, cache=cache)
        warm = compile_small(small_setup, cache=cache)
        verify_schedule(  # raises ScheduleValidationError on any breach
            warm, small_setup.timing, small_setup.topology,
            small_setup.allocation,
        )

    def test_no_cache_means_no_marker(self, small_setup):
        fresh = compile_small(small_setup)
        assert "cache" not in fresh.extra


class TestDiskTier:
    def test_cold_process_hits_from_disk(self, small_setup, tmp_path):
        compile_small(small_setup, cache=ScheduleCache(tmp_path))
        reopened = ScheduleCache(tmp_path)  # fresh memory tier
        warm = compile_small(small_setup, cache=reopened)
        stats = reopened.stats.as_dict()
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert warm.extra["cache"]["hit"] is True

    def test_entries_are_versioned_json(self, small_setup, tmp_path):
        cache = ScheduleCache(tmp_path)
        compile_small(small_setup, cache=cache)
        entries = list(cache_entries(tmp_path).values())
        assert all(e["format"] == CACHE_VERSION for e in entries)
        # One monolithic schedule entry; the rest are the per-stage
        # artifacts the delta path stores alongside it.
        kinds = sorted(e["kind"] for e in entries)
        assert kinds.count("schedule") == 1
        assert kinds.count("artifact") == len(entries) - 1
        assert len(entries) > 1

    def test_omega_is_serialised_once(self, tmp_path):
        """A cached cold compile writes the schedule entry and no second
        copy of Omega beside it (its replay lost to re-assembly)."""
        from repro.experiments.setup import standard_setup
        from repro.tfg import dvb_tfg
        from repro.topology import make_topology

        setup = standard_setup(dvb_tfg(5), make_topology("hypercube6"), 128)
        compile_small(setup, cache=ScheduleCache(tmp_path))
        assert sum(
            '"schedule": {' in json.dumps(entry)
            for entry in cache_entries(tmp_path).values()
        ) == 1

    def test_stale_format_invalidated_and_recompiled(
        self, small_setup, tmp_path
    ):
        cache = ScheduleCache(tmp_path)
        compile_small(small_setup, cache=cache)
        path = next(
            p for p in tmp_path.rglob("*.json")
            if json.loads(p.read_text())["kind"] == "schedule"
        )
        entry = json.loads(path.read_text())
        entry["format"] = "repro.cache/0"
        path.write_text(json.dumps(entry))

        reopened = ScheduleCache(tmp_path)
        warm = compile_small(small_setup, cache=reopened)
        stats = reopened.stats.as_dict()
        assert stats["invalidations"] == 1
        assert stats["misses"] == 1 and stats["stores"] == 1
        assert warm.schedule is not None

    def test_entry_missing_a_message_recompiles(self, small_setup, tmp_path):
        """An entry with one message's slots removed is no hit: it is
        invalidated, the compile reruns and stores the full schedule."""
        cache = ScheduleCache(tmp_path)
        fresh = compile_small(small_setup, cache=cache)
        path = next(
            p for p in tmp_path.rglob("*.json")
            if json.loads(p.read_text())["kind"] == "schedule"
        )
        entry = json.loads(path.read_text())
        del entry["schedule"]["slots"][sorted(entry["schedule"]["slots"])[0]]
        path.write_text(json.dumps(entry))

        reopened = ScheduleCache(tmp_path)
        warm = compile_small(small_setup, cache=reopened)
        stats = reopened.stats.as_dict()
        assert stats["invalidations"] == 1 and stats["hits"] == 0
        assert stats["misses"] == 1 and stats["stores"] == 1
        assert "cache" not in warm.extra
        assert warm.schedule == fresh.schedule

    def test_clear_drops_memory_but_disk_survives(
        self, small_setup, tmp_path
    ):
        cache = ScheduleCache(tmp_path)
        compile_small(small_setup, cache=cache)
        cache.clear()
        # The disk tier is durable: the next lookup re-reads the entry.
        assert list(tmp_path.rglob("*.json"))
        compile_small(small_setup, cache=cache)
        assert cache.stats.as_dict()["hits"] == 1


class TestNegativeCaching:
    def test_failure_replayed_with_class_and_stage(self, cube3):
        from repro.experiments import standard_setup
        from repro.mapping import sequential_allocation
        from repro.tfg.synth import chain_tfg

        # chain(4) on the 3-cube at B=64 overloads a link at load 0.5.
        setup = standard_setup(
            chain_tfg(4, ops=400.0, size_bytes=1280.0), cube3,
            bandwidth=64.0, allocator=sequential_allocation,
        )
        cache = ScheduleCache()
        args = (
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.5), CONFIG,
        )
        with pytest.raises(SchedulingError) as first:
            compile_schedule(*args, cache=cache)
        assert cache.stats.as_dict()["stores"] == 1
        with pytest.raises(SchedulingError) as second:
            compile_schedule(*args, cache=cache)
        assert cache.stats.as_dict()["hits"] == 1
        assert type(second.value) is type(first.value)
        assert str(second.value) == str(first.value)
        assert second.value.stage == first.value.stage
        if isinstance(first.value, UtilizationExceededError):
            assert second.value.peak == pytest.approx(first.value.peak)


class TestBackendPoisoning:
    """Regression: ``lp_backend="auto"`` used to hash as the literal
    string, so a scipy environment (auto -> HiGHS) and a scipy-less one
    (auto -> reference simplex) computed the *same* key for the same
    point — and a negative entry recorded by one solver was replayed
    verbatim to the other through a shared disk cache."""

    def infeasible_args(self, cube3):
        from repro.experiments import standard_setup
        from repro.mapping import sequential_allocation
        from repro.tfg.synth import chain_tfg

        setup = standard_setup(
            chain_tfg(4, ops=400.0, size_bytes=1280.0), cube3,
            bandwidth=64.0, allocator=sequential_allocation,
        )
        auto = dataclasses.replace(CONFIG, lp_backend="auto")
        return (
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.5), auto,
        )

    def test_auto_keys_differ_across_environments(
        self, small_setup, monkeypatch
    ):
        import repro.solvers as solvers

        auto = dataclasses.replace(CONFIG, lp_backend="auto")

        def key():
            return schedule_cache_key(
                small_setup.timing, small_setup.topology,
                small_setup.allocation, small_setup.tau_in_for_load(0.5),
                auto,
            )

        monkeypatch.setattr(solvers, "default_backend_name", lambda: "highs")
        with_scipy = key()
        monkeypatch.setattr(
            solvers, "default_backend_name", lambda: "reference"
        )
        without_scipy = key()
        assert with_scipy != without_scipy

    def test_negative_entry_not_cross_served(
        self, cube3, tmp_path, monkeypatch
    ):
        import repro.solvers as solvers

        args = self.infeasible_args(cube3)

        # Environment A (scipy): record the failure in a shared cache.
        monkeypatch.setattr(solvers, "default_backend_name", lambda: "highs")
        cache_a = ScheduleCache(tmp_path)
        with pytest.raises(SchedulingError):
            compile_schedule(*args, cache=cache_a)
        assert cache_a.stats.as_dict()["stores"] == 1

        # Environment B (no scipy): same shared directory, different
        # resolved solver — must miss, not replay A's verdict.
        monkeypatch.setattr(
            solvers, "default_backend_name", lambda: "reference"
        )
        cache_b = ScheduleCache(tmp_path)
        with pytest.raises(SchedulingError):
            compile_schedule(*args, cache=cache_b)
        stats = cache_b.stats.as_dict()
        assert stats["hits"] == 0
        assert stats["misses"] == 1 and stats["stores"] == 1

    def test_same_environment_still_replays(self, cube3, tmp_path):
        args = self.infeasible_args(cube3)
        with pytest.raises(SchedulingError):
            compile_schedule(*args, cache=ScheduleCache(tmp_path))
        reopened = ScheduleCache(tmp_path)
        with pytest.raises(SchedulingError):
            compile_schedule(*args, cache=reopened)
        assert reopened.stats.as_dict()["hits"] == 1


class TestKeyScheme:
    def base_key(self, setup, load=0.5, config=CONFIG):
        return schedule_cache_key(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(load), config,
        )

    def test_deterministic_within_process(self, small_setup):
        assert self.base_key(small_setup) == self.base_key(small_setup)

    def test_key_is_hex_sha256(self, small_setup):
        key = self.base_key(small_setup)
        assert len(key) == 64
        int(key, 16)  # must parse as hex

    def test_tau_in_perturbs_key(self, small_setup):
        assert self.base_key(small_setup, load=0.5) != self.base_key(
            small_setup, load=0.51
        )

    def test_config_field_perturbs_key(self, small_setup):
        # Every field is identity: perturbing any one moves the key, so
        # a new knob cannot be left out of it.
        from repro.solvers import default_backend_name

        unresolved = (
            "reference" if default_backend_name() != "reference" else "highs"
        )
        for field in dataclasses.fields(CompilerConfig):
            value = getattr(CONFIG, field.name)
            perturbed = (
                unresolved if isinstance(value, str)
                else not value if isinstance(value, bool)
                else value + 1
            )
            other = dataclasses.replace(CONFIG, **{field.name: perturbed})
            moved = self.base_key(small_setup) != self.base_key(
                small_setup, config=other
            )
            assert moved, field.name

    def test_key_space_is_pinned_across_commits(self):
        """Digests in tests/data/pins.json: a refactor that moves any key
        fails here."""
        keys = pins().produce("cache.key_space")
        assert keys == pins().pinned("cache.key_space")
        assert keys["reference"] != keys["seed=1"]

    def test_entries_are_pinned_across_commits(self):
        """Per kind of entry a compile, a refused compile and a diagnosis
        leave on disk, the count and a digest of keys and bytes equal
        tests/data/pins.json (the reference backend, so no HiGHS build
        moves them)."""
        groups = pins().produce("cache.entry_groups")
        assert groups == pins().pinned("cache.entry_groups")
        assert groups["failure"][0] == 1  # the refused compile was refused

    def test_backend_choice_perturbs_key(self, small_setup):
        # Different LP engines may pick different (equally valid)
        # optima, so the backend is part of the identity.
        highs = dataclasses.replace(CONFIG, lp_backend="highs")
        reference = dataclasses.replace(CONFIG, lp_backend="reference")
        assert self.base_key(small_setup, config=highs) != self.base_key(
            small_setup, config=reference
        )

    def test_auto_backend_keys_as_its_resolution(self, small_setup):
        # "auto" is an alias, not an identity: its key must equal the
        # key of whatever backend it resolves to in this environment.
        from repro.solvers import default_backend_name

        auto = dataclasses.replace(CONFIG, lp_backend="auto")
        resolved = dataclasses.replace(
            CONFIG, lp_backend=default_backend_name()
        )
        assert self.base_key(small_setup, config=auto) == self.base_key(
            small_setup, config=resolved
        )

    def test_allocation_perturbs_key(self, small_setup):
        moved = dict(small_setup.allocation)
        name = sorted(moved)[0]
        moved[name] = (moved[name] + 1) % small_setup.topology.num_nodes
        assert schedule_cache_key(
            small_setup.timing, small_setup.topology, moved,
            small_setup.tau_in_for_load(0.5), CONFIG,
        ) != self.base_key(small_setup)

    def test_topology_link_set_perturbs_key(self, small_setup, cube3):
        from repro.faults.residual import ResidualTopology

        link = sorted(cube3.links)[0]
        residual = ResidualTopology(cube3, frozenset({link}))
        assert schedule_cache_key(
            small_setup.timing, residual, small_setup.allocation,
            small_setup.tau_in_for_load(0.5), CONFIG,
        ) != self.base_key(small_setup)


class TestEntryByteIdentity:
    """Cache entries are pure functions of the compilation inputs.

    Wall-clock solver timings used to leak into stored entries
    (``solver_stats.lp_wall_ms``), so two byte-identical compilations
    produced different cache bytes — breaking the byte-identity
    invariant the fuzz differential enforces everywhere else.
    """

    def test_identical_compilations_serialize_identically(self, small_setup):
        from repro.cache.store import routing_to_entry

        first = compile_small(small_setup)
        second = compile_small(small_setup)
        stats_a = first.extra.get("solver_stats")
        stats_b = second.extra.get("solver_stats")
        if stats_a is not None and stats_b is not None:
            # The live measurement genuinely varies run to run ...
            assert "lp_wall_ms" in stats_a and "lp_wall_ms" in stats_b
        # ... but the stored entries must not.
        blob_a = json.dumps(routing_to_entry(first), sort_keys=True)
        blob_b = json.dumps(routing_to_entry(second), sort_keys=True)
        assert blob_a == blob_b

    def test_stored_entry_has_no_wall_clock(self, small_setup):
        from repro.cache.store import (
            VOLATILE_SOLVER_STATS,
            routing_to_entry,
        )

        entry = routing_to_entry(compile_small(small_setup))
        stats = entry.get("solver_stats")
        if stats is not None:
            for key in VOLATILE_SOLVER_STATS:
                assert key not in stats
            # Deterministic counters survive the strip.
            assert "lp_solves" in stats

    def test_cache_hit_replays_without_stale_timing(self, small_setup):
        cache = ScheduleCache()
        compile_small(small_setup, cache=cache)
        warm = compile_small(small_setup, cache=cache)
        stats = warm.extra.get("solver_stats")
        if stats is not None:
            assert "lp_wall_ms" not in stats

    def test_diagnosis_entries_are_byte_identical(self, small_setup, tmp_path):
        """The diagnosis entry used to store ``elapsed_ms``, a wall time,
        so two diagnoses of one instance wrote different bytes."""
        from repro.diagnose.instance import diagnose_instance

        instance = (
            small_setup.timing, small_setup.topology,
            small_setup.allocation, small_setup.tau_in_for_load(0.5),
        )
        blobs = []
        for run in ("first", "second"):
            fresh = diagnose_instance(
                *instance, cache=ScheduleCache(tmp_path / run)
            )
            assert fresh.elapsed_ms > 0.0  # a fresh diagnosis is timed
            (path,) = (tmp_path / run).glob("*/*.json")
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        hit = diagnose_instance(*instance, cache=ScheduleCache(tmp_path / run))
        assert hit == fresh and hit.elapsed_ms == 0.0  # a hit is not


class TestMemoryTierBound:
    """Behind a disk tier the memory tier is a bounded LRU; alone it is
    the only copy and keeps everything."""

    CAP = 8

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        from repro.cache import store

        monkeypatch.setattr(store, "_MEMORY_TIER_ENTRIES", self.CAP)

    @staticmethod
    def digest(routing):
        from repro.core.io import schedule_to_dict

        return json.dumps(schedule_to_dict(routing.schedule), sort_keys=True)

    def test_disk_backed_tier_is_capped_and_eviction_is_invisible(
        self, small_setup, tmp_path
    ):
        routing = compile_small(small_setup)
        cache = ScheduleCache(tmp_path)
        keys = [f"{i:064x}" for i in range(self.CAP + 50)]
        for key in keys:
            cache.store(key, routing)
            assert len(cache) <= self.CAP
        assert len(cache) == self.CAP
        # The first key left memory long ago and is simply a disk hit.
        assert cache.contains(keys[0])
        replayed = cache.fetch(keys[0], topology=small_setup.topology)
        assert self.digest(replayed) == self.digest(routing)
        stats = cache.stats.as_dict()
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert stats["stores"] == len(keys)
        assert len(cache) == self.CAP

    def test_hit_refreshes_recency(self, small_setup, tmp_path):
        routing = compile_small(small_setup)
        cache = ScheduleCache(tmp_path)
        keys = [f"{i:064x}" for i in range(self.CAP + 1)]
        for key in keys[: self.CAP]:
            cache.store(key, routing)
        cache.fetch(keys[0], topology=small_setup.topology)  # oldest, touched
        cache.store(keys[self.CAP], routing)  # evicts the least recent
        # keys[1] went; keys[0] stayed.  Prove it by removing the disk
        # tier under the cache: only memory can answer now.
        for path in tmp_path.rglob("*.json"):
            path.unlink()
        assert cache.contains(keys[0])
        assert not cache.contains(keys[1])
        assert cache.fetch(keys[0], topology=small_setup.topology) is not None

    def test_memory_only_cache_never_evicts(self, small_setup):
        routing = compile_small(small_setup)
        cache = ScheduleCache()
        keys = [f"{i:064x}" for i in range(self.CAP + 50)]
        for key in keys:
            cache.store(key, routing)
        assert len(cache) == len(keys)
        assert all(cache.contains(key) for key in keys)
        assert cache.fetch(keys[0], topology=small_setup.topology) is not None

    def test_artifacts_and_diagnoses_share_the_bound(
        self, small_setup, tmp_path
    ):
        from repro.diagnose.instance import diagnose_instance

        diagnosis = diagnose_instance(
            small_setup.timing, small_setup.topology,
            small_setup.allocation, small_setup.tau_in_for_load(0.5),
        )
        cache = ScheduleCache(tmp_path)
        entry = {"format": CACHE_VERSION, "kind": "diagnosis",
                 "diagnosis": diagnosis.to_dict()}
        for i in range(self.CAP + 50):
            cache.put(f"a{i:063x}", artifact_entry("stage", {"i": i}), "stage")
            cache.put(f"d{i:063x}", entry)
            assert len(cache) <= self.CAP
        # Evicted long ago; both kinds come back from disk, then count
        # against the bound like any other entry.
        assert cache.get(
            f"a{0:063x}", ("artifact",), lambda e: e["payload"], "stage"
        ) == {"i": 0}
        assert cache.get(
            f"d{0:063x}", ("diagnosis",), lambda e: e["diagnosis"]
        ) == diagnosis.to_dict()
        assert len(cache) == self.CAP

    def test_compile_through_a_tiny_tier_still_replays(
        self, small_setup, tmp_path
    ):
        """A cold compile stores more entries than the cap; the warm
        compile is still a schedule-level hit with the same schedule."""
        cache = ScheduleCache(tmp_path)
        fresh = compile_small(small_setup, cache=cache)
        assert len(cache_entries(tmp_path)) >= 4
        for i in range(self.CAP):  # push the compile's entries out
            cache.put(f"f{i:063x}", artifact_entry("stage", {}), "stage")
        warm = compile_small(small_setup, cache=cache)
        assert warm.extra["cache"]["hit"] is True
        assert self.digest(warm) == self.digest(fresh)
