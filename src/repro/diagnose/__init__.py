"""Static instance diagnosis: refute or explain before solving.

``repro.diagnose`` analyses problem *instances* — (TFG timing,
topology, allocation, tau_in) points — where :mod:`repro.check`
analyses compiled *schedules*.  Three layers:

1. :func:`diagnose_instance` — solver-free necessary-condition
   certificates (window/period violations, disconnection, forced-link
   utilisation and Hall window-density bounds, cut and network
   capacity).  An instance-scoped :class:`Refutation` proves **no**
   path assignment can work; serve admission refuses a job on exactly
   these.
2. :func:`explain_assignment` / :func:`explain_allocation_failure` —
   verified Farkas certificates extracted from the interval-allocation
   LP, naming the conflicting duration equations and link-capacity
   rows for one concrete assignment.
3. :func:`analyze_wormhole` — static wormhole-routing hazards: channel-
   dependency-graph deadlock cycles (Dally-Seitz) and first-order
   output-inconsistency prediction, no simulation needed.

See ``docs/diagnosis.md`` for the certificate taxonomy and CLI usage.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Diagnosis": "certificates",
    "REFUTE_MARGIN": "certificates",
    "Refutation": "certificates",
    "SCOPE_ASSIGNMENT": "certificates",
    "SCOPE_INSTANCE": "certificates",
    "WrFinding": "wormhole",
    "WrReport": "wormhole",
    "analyze_wormhole": "wormhole",
    "channel_dependency_graph": "wormhole",
    "diagnose_instance": "instance",
    "explain_allocation_failure": "duals",
    "explain_assignment": "duals",
    "find_dependency_cycle": "wormhole",
    "forced_links": "instance",
    "verify_refutation": "verify",
})
