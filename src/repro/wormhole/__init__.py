"""Wormhole routing (WR) — the paper's baseline (Section 3).

Wormhole routing is modelled exactly as in the paper's own evaluation:
a message follows the deterministic LSD->MSD route, acquiring links hop by
hop; contention on a link is resolved first-come-first-served; a blocked
message keeps holding every link it has acquired; once the full path is
set up the message transmits for ``m/B`` (transmission time dominates
propagation) and then releases everything.

Running a task-level pipelined TFG through this model exhibits **output
inconsistency**: messages of different invocations contend, the winner
alternates, and the output-generation interval oscillates — the behaviour
scheduled routing is designed to eliminate.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AdaptiveWormholeSimulator": "adaptive",
    "OiRisk": "analysis",
    "StoreAndForwardSimulator": "store_forward",
    "WormholeSimulator": "simulator",
    "predict_oi_risks": "analysis",
})
