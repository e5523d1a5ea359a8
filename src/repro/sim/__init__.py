"""A small simpy-style discrete-event simulation kernel.

The wormhole-routing baseline and the scheduled-routing executor both run
on this kernel.  It provides:

- :class:`~repro.sim.environment.Environment` — the event loop: a heap of
  ``fn(arg)`` entries (events, ``call_later`` callbacks), FIFO on ties,
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf` — one-shot events processes can wait
  on,
- :class:`~repro.sim.process.Process` — generator-based cooperative
  processes (``yield env.timeout(3)``),
- :class:`~repro.sim.resources.Resource` — an FCFS-queued resource (a
  network link, a processor) taken by ``claim`` (a
  :class:`~repro.sim.resources.Claim` with an optional grant callback),
- :class:`~repro.sim.monitor.Monitor` — timestamped series recording.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.sim.environment import Environment
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.monitor import Monitor
from repro.sim.process import Process
from repro.sim.resources import Claim, Resource

__all__ = [
    "AllOf",
    "Claim",
    "Environment",
    "Event",
    "Monitor",
    "Process",
    "Resource",
    "Timeout",
]
