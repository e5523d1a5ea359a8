"""Content-addressed cache keys for compiled schedules.

A compilation is fully determined by five inputs: the task-flow graph,
its timing (bandwidth, speeds, message window), the topology's link set,
the task→node allocation, the input period, and the compiler config.
:func:`schedule_cache_key` canonicalizes all of them into one JSON
payload and hashes it with SHA-256, so the key is

- **stable** — independent of ``PYTHONHASHSEED``, process, platform and
  dict insertion tricks (every mapping is emitted with sorted keys;
  floats round-trip exactly through ``repr``);
- **complete** — any input that can change the compiled schedule is in
  the payload, including every :class:`~repro.core.compiler.
  CompilerConfig` field, so perturbing a single one yields a different
  key;
- **structural for topologies** — the key hashes the actual link set,
  not the topology's display name, so two residual topologies that both
  print as ``hypercube(6)-2down`` but lost different links get
  different keys.

Bump :data:`CACHE_VERSION` whenever the payload layout or the
serialized entry format changes; old entries then miss instead of
deserializing wrongly (the invalidation rule — see ``docs/compiler.md``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import CompilerConfig
    from repro.tfg.analysis import TFGTiming
    from repro.tfg.graph import TaskFlowGraph
    from repro.topology.base import Topology

#: Version stamp baked into every key and every stored entry.
#: ``/2``: the (since deleted) LP warm-start knob left the config
#: payload — entries written under ``/1`` keys (which hashed its
#: non-default values) would otherwise shadow or miss.
CACHE_VERSION = "repro.cache/2"


def content_digest(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON: every key of
    every namespace (schedule, diagnosis, artifact) is one."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def canonical_tfg(tfg: "TaskFlowGraph") -> dict[str, Any]:
    """The TFG as a plain, deterministically ordered structure."""
    return {
        "name": tfg.name,
        "tasks": [[task.name, task.ops] for task in tfg.tasks],
        "messages": [
            [m.name, m.src, m.dst, m.size_bytes] for m in tfg.messages
        ],
    }


def canonical_timing(timing: "TFGTiming") -> dict[str, Any]:
    """Timing inputs: TFG plus bandwidth, speeds and message window."""
    return {
        "tfg": canonical_tfg(timing.tfg),
        "bandwidth": timing.bandwidth,
        "speeds": sorted(
            (task.name, timing.speed(task.name)) for task in timing.tfg.tasks
        ),
        "message_window": timing.message_window,
    }


def canonical_topology(topology: "Topology") -> dict[str, Any]:
    """The topology as its actual link set (not its display name).

    The name is included for debuggability but the links are what makes
    residual topologies with equal names distinguishable.
    """
    return {
        "name": topology.name,
        "radices": list(topology.radices),
        "links": sorted([a, b] for a, b in topology.links),
    }


def canonical_allocation(allocation: Mapping[str, int]) -> list[list[Any]]:
    """The task→node map as a sorted pair list."""
    return sorted([task, int(node)] for task, node in allocation.items())


def canonical_config(config: "CompilerConfig") -> dict[str, Any]:
    """Every config field, by name.

    ``lp_backend`` is canonicalized to the backend ``"auto"`` *resolves
    to in this environment*, not the literal string.  Hashing the
    literal ``"auto"`` poisoned shared caches: an environment without
    scipy resolves ``"auto"`` to the reference simplex, one with scipy
    resolves it to HiGHS, yet both hashed to the same key — so a
    negative ("infeasible") entry recorded by one solver was replayed
    verbatim to the other.  Canonicalizing also unifies
    ``key("auto") == key(resolved)`` within one environment, which is
    what content addressing promises.

    No field is left out: a knob that could not change the schedule has
    no reason to exist, and one that can must move the key.
    """
    from repro.solvers import default_backend_name

    fields = {
        f.name: getattr(config, f.name) for f in dataclasses.fields(config)
    }
    if fields["lp_backend"] == "auto":
        fields["lp_backend"] = default_backend_name()
    return fields


def schedule_cache_key(
    timing: "TFGTiming",
    topology: "Topology",
    allocation: Mapping[str, int],
    tau_in: float,
    config: "CompilerConfig",
) -> str:
    """SHA-256 hex digest of the canonical compilation inputs."""
    return content_digest(
        {
            "version": CACHE_VERSION,
            "timing": canonical_timing(timing),
            "topology": canonical_topology(topology),
            "allocation": canonical_allocation(allocation),
            "tau_in": float(tau_in),
            "config": canonical_config(config),
        }
    )


def diagnosis_cache_key(
    timing: "TFGTiming",
    topology: "Topology",
    allocation: Mapping[str, int],
    tau_in: float,
    sync_margin: float = 0.0,
) -> str:
    """Key for a cached :class:`~repro.diagnose.Diagnosis`.

    Diagnosis depends only on the instance (timing, topology,
    allocation, period, sync margin) — not on the compiler config — so
    the key omits seeds, backends and retry knobs: the same instance
    diagnosed under any config hits the same entry.  The ``"analysis"``
    marker keeps the key space disjoint from schedule keys.
    """
    return content_digest(
        {
            "version": CACHE_VERSION,
            "analysis": "diagnosis",
            "timing": canonical_timing(timing),
            "topology": canonical_topology(topology),
            "allocation": canonical_allocation(allocation),
            "tau_in": float(tau_in),
            "sync_margin": float(sync_margin),
        }
    )
