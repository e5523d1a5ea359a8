"""A small discrete-event simulation kernel.

The wormhole-routing baseline and the scheduled-routing executor both run
on this kernel.  It provides:

- :class:`~repro.sim.environment.Environment` — the event loop: a heap of
  ``fn(arg)`` entries scheduled by ``call_later``, FIFO on ties,
- :class:`~repro.sim.resources.Resource` — an FCFS-queued resource (a
  network link, a processor) taken by ``claim`` (a
  :class:`~repro.sim.resources.Claim` with an optional grant callback),
- :class:`~repro.sim.monitor.Monitor` — timestamped series recording.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def arrive(name):
...     log.append((env.now, name))
>>> env.call_later(2.0, arrive, "a")
>>> env.call_later(1.0, arrive, "b")
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.sim.environment import Environment
from repro.sim.monitor import Monitor
from repro.sim.resources import Claim, Resource

__all__ = [
    "Claim",
    "Environment",
    "Monitor",
    "Resource",
]
