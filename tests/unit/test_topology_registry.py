"""The registry's machines: one object per canonical name per process."""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.utilization import topology_tables
from repro.errors import SchedulingError
from repro.experiments.setup import InstanceSpec
from repro.topology import registry
from repro.topology.registry import (
    STANDARD_TOPOLOGIES,
    TOPOLOGY_ALIASES,
    make_topology,
    topology_names,
)


def test_an_alias_and_its_canonical_name_share_one_machine():
    for alias, canonical in TOPOLOGY_ALIASES.items():
        assert make_topology(alias) is make_topology(canonical)
    for name, factory in STANDARD_TOPOLOGIES.items():
        machine = make_topology(name)
        assert machine is make_topology(name)
        # The shared object is the machine the factory builds.
        assert machine == factory()


def test_threads_racing_for_a_new_name_get_one_machine(monkeypatch):
    monkeypatch.setattr(registry, "_MACHINES", {})
    threads = 8
    together = threading.Barrier(threads)
    got = []

    def build():
        together.wait(timeout=30)
        got.append(make_topology("torus4x4x4"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(got) == threads
    assert all(machine is got[0] for machine in got)
    assert registry._MACHINES == {"torus4x4x4": got[0]}


def test_an_unknown_name_lists_the_accepted_ones():
    with pytest.raises(KeyError) as raised:
        make_topology("hypercube7")
    message = str(raised.value)
    assert "'hypercube7'" in message
    for name in topology_names():
        assert name in message


def test_two_instance_builds_share_one_machine():
    first = InstanceSpec("6cube", models=3).build()
    second = InstanceSpec("hypercube6", models=4, seed=5).build()
    assert first.topology is second.topology is make_topology("hypercube6")


def test_a_pickled_machine_arrives_without_tables():
    setup = InstanceSpec("torus8x8", models=3).build()
    try:
        compile_schedule(
            setup.timing,
            setup.topology,
            setup.allocation,
            setup.tau_in_for_load(0.3),
            CompilerConfig(),
        )
    except SchedulingError:
        pass  # AssignPaths ran, so the machine holds tables either way
    tables = topology_tables(setup.topology)
    assert tables._tables
    clone = pickle.loads(pickle.dumps(setup.topology))
    assert clone == setup.topology
    assert clone is not setup.topology
    assert clone.candidate_tables is None
    assert setup.topology.candidate_tables is tables
