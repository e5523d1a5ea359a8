"""Independent schedule-conformance analysis and differential fuzzing.

``repro.check`` is the correctness tooling that keeps the compiler
honest.  The compiler's own :meth:`~repro.core.switching.
CommunicationSchedule.validate` is built from the same data structures
and helper functions that produced the schedule, so a compiler bug and a
checker bug can cancel out.  Everything in this package re-derives the
paper's guarantees from scratch:

- :func:`~repro.check.analyzer.analyze_schedule` — a static conformance
  analyzer operating only on the serialized schedule and the topology's
  link set.  It re-derives continuous-time link exclusivity (including
  wrapped windows at the ``tau_in`` frame boundary), per-node crossbar
  port exclusivity, path continuity, window containment against
  independently recomputed time bounds, buffering-freedom and
  deadlock-freedom, and reports structured
  :class:`~repro.check.analyzer.Finding` records instead of raising on
  the first failure.
- :mod:`~repro.check.mutate` — seeded schedule corruptions (shifted
  slots, swapped crossbar ports, deleted commands, off-by-EPS window
  overruns...) used to measure what the analyzer, ``validate()`` and
  the executor's replay of Ω each kill.
- :mod:`~repro.check.fuzz` — a seeded differential fuzz harness that
  compiles random points through both LP backends and through cold and
  warm cache paths and cross-checks every verdict (``repro-sr fuzz``).

See ``docs/verification.md`` for how the verification tiers (static
analyzer, ``validate()``, the DES replay of Ω) fit together.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ConformanceReport": "analyzer",
    "Finding": "analyzer",
    "FuzzPoint": "fuzz",
    "FuzzReport": "fuzz",
    "MUTATIONS": "mutate",
    "MutatedSchedule": "mutate",
    "PointOutcome": "fuzz",
    "SEVERITY_ERROR": "analyzer",
    "SEVERITY_WARNING": "analyzer",
    "analyze_schedule": "analyzer",
    "mutate_schedule": "mutate",
    "run_fuzz": "fuzz",
})
