"""Independent schedule-conformance analysis and differential fuzzing.

``repro.check`` is the correctness tooling that keeps the compiler
honest.  The compiler's own :meth:`~repro.core.switching.
CommunicationSchedule.validate` is built from the same data structures
and helper functions that produced the schedule, so a compiler bug and a
checker bug can cancel out.  Everything in this package re-derives the
paper's guarantees from scratch:

- :func:`~repro.check.analyzer.analyze_schedule` — a static conformance
  analyzer operating only on the serialized schedule and the topology's
  link set.  It re-derives the frame, path continuity and
  buffering-freedom, continuous-time link exclusivity (including
  wrapped windows at the ``tau_in`` frame boundary; with whole-path
  slots this one proof also gives crossbar port exclusivity and
  deadlock-freedom), and window containment against independently
  recomputed time bounds, and reports structured
  :class:`~repro.check.analyzer.Finding` records instead of raising on
  the first failure.  It reads no Ω: the node schedules are a view of
  the slots, and the executor's replay checks the commands the CPs run.
- :mod:`~repro.check.mutate` — seeded schedule corruptions (shifted
  slots, off-by-EPS window overruns... over the slots; swapped crossbar
  ports, deleted commands... over a command memory) used to measure
  what each checker kills on the input it owns: the analyzer and
  ``validate()`` the slots, the executor's replay of Ω the commands.
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
