"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from repro.experiments import standard_setup
from repro.mapping import sequential_allocation
from repro.tfg import TFGTiming, dvb_tfg
from repro.tfg.graph import build_tfg
from repro.tfg.synth import chain_tfg, fan_tfg
from repro.topology import GeneralizedHypercube, Mesh, Torus, binary_hypercube

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# -- cache directories -----------------------------------------------------------

def pack_lines(directory) -> list[bytes]:
    """The artifact pack of a cache directory, one ``<key>\\t<JSON>\\n``
    record per element (``[]`` when no artifact was ever stored)."""
    pack = Path(directory) / "artifacts.pack"
    data = pack.read_bytes() if pack.exists() else b""
    return re.findall(rb"[^\n]*\n|[^\n]+$", data)  # "\n" only, tail kept


def cache_entries(directory) -> dict[str, dict]:
    """``key -> entry`` of everything a cache directory holds, in key
    order: one per ``<key[:2]>/<key>.json`` file (schedule, failure,
    diagnosis) plus, from the pack, each artifact key's last record — the
    one layout-aware helper the cache tests share."""
    entries = {
        path.stem: json.loads(path.read_text())
        for path in Path(directory).glob("*/*.json")
    }
    for line in pack_lines(directory):
        key, _, body = line.partition(b"\t")
        entries[key.decode()] = json.loads(body)
    return dict(sorted(entries.items()))


def rewrite_entry(directory, key: str, entry: dict) -> None:
    """Overwrite ``key``'s entry in place, whichever home it lives in."""
    blob = json.dumps(entry, sort_keys=True)
    path = Path(directory) / key[:2] / f"{key}.json"
    if path.exists():
        path.write_text(blob)
        return
    head = f"{key}\t".encode()
    (Path(directory) / "artifacts.pack").write_bytes(b"".join(
        head + blob.encode() + b"\n" if line.startswith(head) else line
        for line in pack_lines(directory)
    ))


# -- edited schedules ------------------------------------------------------------

def with_slots(routing, name: str, slots):
    """``routing`` with message ``name``'s slots replaced, unchecked: a
    new schedule, whose Ω is the projection of the new slots."""
    schedule = routing.schedule
    return dataclasses.replace(routing, schedule=dataclasses.replace(
        schedule, slots={**schedule.slots, name: tuple(slots)}
    ))


# -- bit pins --------------------------------------------------------------------

@functools.cache
def pins():
    """``tools/pins.py``, the one writer of every bit pin: a pinned test
    asserts ``pins().produce(name) == pins().pinned(name)``."""
    path = Path(__file__).resolve().parents[1] / "tools" / "pins.py"
    spec = importlib.util.spec_from_file_location("pins", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- topologies ----------------------------------------------------------------

@pytest.fixture(scope="session")
def cube3():
    """Binary 3-cube: 8 nodes, 12 links."""
    return binary_hypercube(3)


@pytest.fixture(scope="session")
def cube6():
    """Binary 6-cube: the paper's 64-node hypercube."""
    return binary_hypercube(6)


@pytest.fixture(scope="session")
def ghc444():
    """GHC(4,4,4): the paper's 64-node generalized hypercube."""
    return GeneralizedHypercube((4, 4, 4))


@pytest.fixture(scope="session")
def torus44():
    """Small 4x4 torus for fast tests."""
    return Torus((4, 4))


@pytest.fixture(scope="session")
def torus88():
    """8x8 torus from the paper's evaluation."""
    return Torus((8, 8))


@pytest.fixture(scope="session")
def mesh44():
    """4x4 open mesh."""
    return Mesh((4, 4))


# -- workloads -----------------------------------------------------------------

@pytest.fixture(scope="session")
def dvb5():
    """The benchmark DVB workload (5 object models)."""
    return dvb_tfg(5)


@pytest.fixture()
def tiny_tfg():
    """Three tasks in a chain with two messages — smallest useful TFG."""
    return chain_tfg(3, ops=400.0, size_bytes=1280.0)


@pytest.fixture()
def diamond_tfg():
    """Diamond: one source, two parallel middles, one sink."""
    return build_tfg(
        "diamond",
        [("s", 400), ("m1", 400), ("m2", 400), ("t", 400)],
        [
            ("a", "s", "m1", 640),
            ("b", "s", "m2", 1280),
            ("c", "m1", "t", 640),
            ("d", "m2", "t", 1280),
        ],
    )


@pytest.fixture()
def fan4_tfg():
    """Fan-out/fan-in with four parallel middles."""
    return fan_tfg(4, ops=400.0, size_bytes=1280.0)


# -- bound setups ---------------------------------------------------------------

@pytest.fixture()
def tiny_timing(tiny_tfg):
    """Chain timing: all tasks 10us, messages 10us at B=128."""
    return TFGTiming(tiny_tfg, bandwidth=128.0, speeds=40.0)


@pytest.fixture(scope="session")
def dvb_setup_128(dvb5, cube6):
    """Paper-standard DVB setup on the 6-cube at B=128 (always feasible)."""
    return standard_setup(dvb5, cube6, bandwidth=128.0)


@pytest.fixture(scope="session")
def dvb_setup_64(dvb5, cube6):
    """Paper-standard DVB setup on the 6-cube at B=64."""
    return standard_setup(dvb5, cube6, bandwidth=64.0)


@pytest.fixture()
def small_setup(cube3):
    """A small full setup: diamond TFG on the 3-cube."""
    tfg = build_tfg(
        "diamond",
        [("s", 400), ("m1", 400), ("m2", 400), ("t", 400)],
        [
            ("a", "s", "m1", 640),
            ("b", "s", "m2", 1280),
            ("c", "m1", "t", 640),
            ("d", "m2", "t", 1280),
        ],
    )
    return standard_setup(tfg, cube3, bandwidth=64.0,
                          allocator=sequential_allocation)
