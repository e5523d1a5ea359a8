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
  the payload, including every ``hashed``-role :class:`~repro.core.
  compiler.CompilerConfig` field, so perturbing a single one yields a
  different key;
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
import functools
import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import CompilerConfig
    from repro.tfg.analysis import TFGTiming
    from repro.tfg.graph import TaskFlowGraph
    from repro.topology.base import Topology

#: Version stamp baked into every key and every stored entry.
#: ``/2``: ``perf``-role config fields (``lp_warm_start``) are elided
#: from :func:`canonical_config` unconditionally — entries written under
#: ``/1`` keys (which hashed non-default knob values) would otherwise
#: shadow or miss the unified key space.
CACHE_VERSION = "repro.cache/2"


def content_digest(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON: every key of
    every namespace (schedule, diagnosis, artifact, warm scope) is one."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@functools.cache
def hashed_fields(
    config_type: type[Any],
) -> tuple[dataclasses.Field[Any], ...]:
    """The fields of a config dataclass that are part of cache identity.

    Each field states its own role in ``metadata`` — ``"hashed"``
    (identity) or ``"perf"`` (changes solver wall time but provably not
    the compiled schedule; always elided).  The table is computed once
    per class; a field with neither role raises here, so a new knob
    cannot reach a key without an explicit hash-or-elide decision.
    """
    fields = dataclasses.fields(config_type)
    undecided = [
        f.name
        for f in fields
        if f.metadata.get("role") not in ("hashed", "perf")
    ]
    if undecided:
        raise ValueError(
            f"{config_type.__name__} fields {undecided} declare no cache "
            'role; add metadata={"role": "hashed"} or {"role": "perf"}'
        )
    return tuple(f for f in fields if f.metadata["role"] == "hashed")


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
    """Every :func:`hashed <hashed_fields>` config field, by name.

    ``lp_backend`` is canonicalized to the backend ``"auto"`` *resolves
    to in this environment*, not the literal string.  Hashing the
    literal ``"auto"`` poisoned shared caches: an environment without
    scipy resolves ``"auto"`` to the reference simplex, one with scipy
    resolves it to HiGHS, yet both hashed to the same key — so a
    negative ("infeasible") entry recorded by one solver was replayed
    verbatim to the other.  Canonicalizing also unifies
    ``key("auto") == key(resolved)`` within one environment, which is
    what content addressing promises.

    ``perf``-role knobs are elided **unconditionally**: warm-started
    solves are byte-identical to cold ones (pinned by the PR 7 property
    tests), so every knob combination must hash to the same key.
    Eliding only default values — the pre-``/2`` behaviour — fragmented
    the key space: a sweep run with ``lp_warm_start=True`` could not
    reuse entries a default-config run had already compiled, despite
    producing byte-identical schedules.
    """
    from repro.solvers import default_backend_name

    fields = {
        f.name: getattr(config, f.name) for f in hashed_fields(type(config))
    }
    if fields.get("lp_backend") == "auto":
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
