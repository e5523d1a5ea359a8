"""Fault injection and schedule repair for the reproduced machine.

The paper assumes a healthy network: scheduled routing's compile-time
guarantee is only as good as the topology it was compiled against.  This
package asks what the guarantee costs to *keep* when links and nodes
fail:

- :mod:`repro.faults.models` — declarative, seeded fault traces
  (transient/permanent link outages, node failures, CP clock drift);
- :mod:`repro.faults.residual` — the degraded topology view used for
  rerouting and re-verification;
- :mod:`repro.faults.injection` — drives a trace into a live
  discrete-event run (both the SR executor and the wormhole simulators);
- :mod:`repro.faults.repair` — restores the SR guarantee after permanent
  failures, locally when possible, by full recompilation otherwise;
- :mod:`repro.faults.compare` — the SR-with-repair vs adaptive-wormhole
  survivability experiment shared by the CLI and the benchmark suite.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ClockDrift": "models",
    "FaultInjector": "injection",
    "FaultTrace": "models",
    "LinkFault": "models",
    "NodeFault": "models",
    "RepairOutcome": "repair",
    "ResidualTopology": "residual",
    "affected_messages": "repair",
    "generate_fault_trace": "models",
    "repair_schedule": "repair",
})
