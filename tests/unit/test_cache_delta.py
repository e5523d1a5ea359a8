"""Per-stage delta compilation: artifact keys, reuse, stats isolation."""

from __future__ import annotations

import collections
import dataclasses
import json

import pytest

from repro.cache import (
    CACHE_VERSION,
    CacheStats,
    ScheduleCache,
    artifact_key,
)
from repro.cache.store import routing_to_entry
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.utilization import topology_tables
from repro.diagnose.instance import diagnose_instance
from repro.errors import SchedulingError
from repro.experiments import standard_setup
from repro.tfg import TFGTiming
from repro.tfg.graph import build_tfg
from repro.tfg.synth import chain_tfg
from repro.topology import binary_hypercube
from tests.conftest import cache_entries, pack_lines, rewrite_entry

CONFIG = CompilerConfig(seed=0, max_paths=16, max_restarts=2, retries=1)
#: The heuristic keeps its artifact (``assignment_key``); the LSD->MSD
#: baseline (over HTTP: ``{"use_assign_paths": false}``) is a closed form
#: that always recomputes.  Delta compilation must hold under both.
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


def refused_setup():
    """A chain whose sequential placement overloads one 3-cube link."""
    from repro.mapping import sequential_allocation
    from repro.tfg.synth import chain_tfg

    return standard_setup(
        chain_tfg(4, ops=400.0, size_bytes=1280.0),
        binary_hypercube(3),
        bandwidth=64.0,
        allocator=sequential_allocation,
    )


def compile_with(setup, cache, load=0.5, config=CONFIG):
    return compile_schedule(
        setup.timing,
        setup.topology,
        setup.allocation,
        setup.tau_in_for_load(load),
        config,
        cache=cache,
    )


def normalised(entry):
    """An entry minus what a replaying recompile legitimately moves: LP
    tallies (fewer solves)."""
    entry = json.loads(json.dumps(entry))
    entry.pop("solver_stats", None)
    return entry


def group_of(entry):
    return entry["stage"] if entry["kind"] == "artifact" else entry["kind"]


#: Per kind of entry: one member whose loss its decoder cannot survive.
DAMAGE = {
    "schedule": lambda e: e["schedule"].pop("tau_in"),
    "failure": lambda e: e.pop("message"),
    "diagnosis": lambda e: e["diagnosis"].pop("tau_in"),
    "assign-paths": lambda e: e["payload"].pop("paths"),
    "allocate+schedule": lambda e: e["payload"].pop("cells"),
}


def stripped_entry(routing):
    """Canonical entry minus solver tallies (delta runs solve fewer LPs)."""
    entry = routing_to_entry(routing)
    entry.pop("solver_stats", None)
    return entry


def put_artifact(cache, key, stage, payload):
    """``DeltaState``'s envelope around one stage's payload."""
    entry = {"format": CACHE_VERSION, "kind": "artifact", "stage": stage,
             "payload": payload}
    cache.put(key, entry, stage)


def get_artifact(cache, key, stage):
    return cache.get(key, ("artifact",), lambda e: e["payload"], stage)


class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        key = artifact_key("demo", {"input": 1})
        assert get_artifact(cache, key, "demo") is None
        put_artifact(cache, key, "demo", {"value": [1, 2, 3]})
        assert get_artifact(cache, key, "demo") == {"value": [1, 2, 3]}
        # Survives a fresh cache object over the same directory.
        assert get_artifact(ScheduleCache(tmp_path), key, "demo") == {
            "value": [1, 2, 3]
        }

    def test_stage_mismatch_misses(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        key = artifact_key("demo", {"input": 1})
        put_artifact(cache, key, "demo", {"value": 1})
        assert get_artifact(cache, key, "other") is None
        # Another stage's (or kind's) entry is a miss, not a stale one.
        assert cache.fetch(key) is None
        assert cache.stats.invalidations == 0 and cache.contains(key)

    def test_counters_are_per_stage_only(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        key = artifact_key("demo", {"input": 1})
        get_artifact(cache, key, "demo")
        put_artifact(cache, key, "demo", {"value": 1})
        get_artifact(cache, key, "demo")
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
        put_artifact(cache, key, "demo", {"value": 1})
        assert cache.contains(key)
        assert ScheduleCache(tmp_path).contains(key)  # disk tier
        assert list(cache_entries(tmp_path)) == [key]
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

    @both_assignment_stages
    def test_artifact_census(self, cube3, tmp_path, config):
        """What a cold compile leaves on disk beside the schedule entry:
        one artifact per memoised stage run, nothing for the rest."""
        routing = compile_with(
            diamond_setup(cube3), ScheduleCache(tmp_path), config=config
        )
        entries = list(cache_entries(tmp_path).values())
        census = collections.Counter(
            e["stage"] for e in entries if e["kind"] == "artifact"
        )
        expected = {"allocate+schedule": len(routing.subsets)}
        if config.use_assign_paths:
            expected["assign-paths"] = 1
        assert census == expected
        assert len(entries) == sum(expected.values()) + 1

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
        assert all(row["misses"] == 0 for row in stages.values()), stages
        assert stages["allocate+schedule"]["hits"] == 4
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
        setup = refused_setup()
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

    @pytest.mark.parametrize("group", DAMAGE)
    def test_damaged_entry_degrades_to_one_recompile(
        self, cube3, tmp_path, group
    ):
        """A parsable entry with one member gone is an invalidated miss:
        the caller recomputes, gets the fault-free result, and leaves the
        good entry behind (a ``schedule`` one used to raise ``KeyError``
        on every compile of its instance)."""
        setup = refused_setup() if group == "failure" else diamond_setup(cube3)
        args = (
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.5),
        )

        def outcome(cache):
            if group == "diagnosis":
                diagnosis = diagnose_instance(*args, cache=cache)
                return normalised({"diagnosis": diagnosis.to_dict()})
            try:
                return stripped_entry(
                    compile_schedule(*args, CONFIG, cache=cache)
                )
            except SchedulingError as error:
                return type(error), str(error)

        expected = outcome(ScheduleCache(tmp_path))
        on_disk = cache_entries(tmp_path)
        victim, good = next(
            (key, entry) for key, entry in on_disk.items()
            if group_of(entry) == group
        )
        if good["kind"] == "artifact":
            # Reach the artifact tier: lose the monolithic entry above it.
            key = next(
                key for key, entry in on_disk.items()
                if entry["kind"] == "schedule"
            )
            (tmp_path / key[:2] / f"{key}.json").unlink()
        damaged = json.loads(json.dumps(good))
        DAMAGE[group](damaged)
        rewrite_entry(tmp_path, victim, damaged)

        cache = ScheduleCache(tmp_path)
        assert outcome(cache) == expected
        assert cache.stats.invalidations == 1
        assert normalised(cache_entries(tmp_path)[victim]) == normalised(good)
        again = ScheduleCache(tmp_path)
        assert outcome(again) == expected
        assert again.stats.as_dict()["invalidations"] == 0

    @pytest.mark.parametrize("group", ["schedule", "assign-paths"])
    def test_stored_path_off_the_topology_is_a_miss(
        self, cube3, tmp_path, group
    ):
        """A stored path that is no route on the topology is an
        invalidated miss, though both decoders validate through the
        topology's shared memo and a hit has just filled it: the memo
        only ever holds paths that passed every check."""
        timing = TFGTiming(chain_tfg(2, 400, 1280), 128.0, speeds=40.0)
        args = (timing, cube3, {"t0": 0, "t1": 7}, 40.0)  # 3 hops apart
        fresh = compile_schedule(*args, CONFIG, cache=ScheduleCache(tmp_path))
        assert compile_schedule(
            *args, CONFIG, cache=ScheduleCache(tmp_path)
        ).extra["cache"]["hit"]
        on_disk = cache_entries(tmp_path)
        victim, entry = next(
            (key, entry) for key, entry in on_disk.items()
            if group_of(entry) == group
        )
        if group == "schedule":
            ((name, path),) = entry["schedule"]["assignment"].items()
        else:  # reach the artifact tier: lose the schedule entry above it
            key = next(
                key for key, entry in on_disk.items()
                if entry["kind"] == "schedule"
            )
            (tmp_path / key[:2] / f"{key}.json").unlink()
            ((name, path),) = entry["payload"]["paths"]
        shortcut = [path[0], path[-1]]  # no link of cube3
        path[:] = shortcut
        rewrite_entry(tmp_path, victim, entry)

        cache = ScheduleCache(tmp_path)
        routing = compile_schedule(*args, CONFIG, cache=cache)
        assert cache.stats.invalidations == 1
        assert routing.schedule == fresh.schedule
        assert tuple(shortcut) not in topology_tables(cube3).validated

    def test_stats_deltas_round_trip(self, cube3, tmp_path):
        """Worker-style ``stats - before`` deltas, added up by a parent,
        reproduce the worker cache's own ``as_dict()``, stages included."""
        cache = ScheduleCache(tmp_path)
        totals = CacheStats()
        for b_size in (1280.0, 640.0, 640.0):  # cold, delta, hit
            before = cache.stats.copy()
            compile_with(diamond_setup(cube3, b_size=b_size), cache)
            totals.update(cache.stats - before)
        assert totals.as_dict() == cache.stats.as_dict()
        assert totals.as_dict()["stages"]["allocate+schedule"] == {
            "hits": 3, "misses": 5, "stores": 5,
        }
        assert totals.hits == 1 and totals.hit_rate == pytest.approx(1 / 3)

    def test_delta_disabled_without_cache(self, cube3):
        # No cache, no delta state: compilation still works unchanged.
        routing = compile_with(diamond_setup(cube3), None)
        assert routing.schedule is not None


def truncate_last(lines):
    return lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]


def garbage_mid_pack(lines):
    return lines[:2] + [b"\xff\x00 not\ta record\r\n", b"\n"] + lines[2:]


def other_format(lines):
    return [lines[0].replace(b"repro.cache/2", b"repro.cache/0")] + lines[1:]


def duplicated_key(lines):
    # A damaged first record of a key whose good record comes later.
    return [lines[-1].replace(b'"cells"', b'"sells"')] + lines


#: fault -> (what it does to the pack's lines, or ``None`` to delete the
#: pack; damaged records, each worth exactly one invalidation).
PACK_FAULTS = {
    "truncated-last-record": (truncate_last, 1),
    "garbage-mid-pack": (garbage_mid_pack, 0),
    "other-format": (other_format, 1),
    "duplicated-key-last-wins": (duplicated_key, 0),
    "truncated-to-zero-live": (lambda lines: [], 0),
    "deleted-live": (None, 0),
}


class TestArtifactPack:
    """Stage artifacts are lines of one append-only pack per directory:
    what a compile creates on disk, and what a damaged pack costs."""

    def test_file_creation_budget(self, cube3, tmp_path):
        """K cached cold compiles of distinct instances create K entry
        files and one pack — a count, in the style of the executor's
        kernel-step budget (one file per artifact made this ~7 K here and
        ~18 K on the benchmark's instances)."""
        cache = ScheduleCache(tmp_path)
        expected: collections.Counter = collections.Counter()
        loads = (0.3, 0.5, 0.7)
        for load in loads:
            routing = compile_with(diamond_setup(cube3), cache, load=load)
            assert routing.attempts == 1
            expected["assign-paths"] += 1
            expected["allocate+schedule"] += len(routing.subsets)
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert len(files) == len(loads) + 1
        assert sorted(p.suffix for p in files) == [".json"] * len(loads) + [".pack"]
        census = collections.Counter(
            json.loads(line.partition(b"\t")[2])["stage"]
            for line in pack_lines(tmp_path)
        )
        assert census == expected
        assert sum(census.values()) == sum(
            row["stores"] for row in cache.stats.as_dict()["stages"].values()
        )

    @staticmethod
    def replay(setup, cache):
        """Compile through the artifact tier: lose the schedule entry
        above it first.  Returns the canonical outcome."""
        for path in cache.directory.glob("*/*.json"):
            if json.loads(path.read_text())["kind"] == "schedule":
                path.unlink()
        cache.clear()
        return stripped_entry(compile_with(setup, cache))

    @pytest.mark.parametrize("fault", PACK_FAULTS)
    def test_pack_fault_degrades_to_recompute(self, cube3, tmp_path, fault):
        """Every way a pack can be damaged ends in the fault-free outcome,
        one invalidation per damaged record, and a good record appended:
        the next fresh cache replays everything and drops nothing."""
        setup = diamond_setup(cube3)
        damage, damaged_records = PACK_FAULTS[fault]
        expected = stripped_entry(compile_with(setup, ScheduleCache(tmp_path)))
        cache = ScheduleCache(tmp_path)
        if fault.endswith("-live"):
            # The object has indexed the pack the fault then pulls away.
            assert self.replay(setup, cache) == expected
            assert cache.stats.as_dict()["stages"]["allocate+schedule"][
                "misses"] == 0
        pack = tmp_path / "artifacts.pack"
        if damage is None:
            pack.unlink()
        else:
            pack.write_bytes(b"".join(damage(pack_lines(tmp_path))))

        assert self.replay(setup, cache) == expected
        # A record torn by a dead writer shares its line with the next
        # append, so its one invalidation may fall to the second reader.
        second = ScheduleCache(tmp_path)
        assert self.replay(setup, second) == expected
        assert (
            cache.stats.invalidations + second.stats.invalidations
            == damaged_records
        )
        healed = ScheduleCache(tmp_path)
        assert self.replay(setup, healed) == expected
        assert healed.stats.invalidations == 0
        stages = healed.stats.as_dict()["stages"]
        assert all(
            row["misses"] == 0 and row["stores"] == 0
            for row in stages.values()
        ), stages
        assert all(line.endswith(b"\n") for line in pack_lines(tmp_path))


class TestPerfKnobKeyIdentity:
    def test_cache_version_bumped(self):
        assert CACHE_VERSION == "repro.cache/2"
