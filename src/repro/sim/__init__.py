"""A small simpy-style discrete-event simulation kernel.

The wormhole-routing baseline and the scheduled-routing executor both run
on this kernel.  It provides:

- :class:`~repro.sim.environment.Environment` — the event loop with a
  binary-heap agenda and deterministic FIFO ordering of simultaneous
  events,
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf` — one-shot events processes can wait
  on,
- :class:`~repro.sim.process.Process` — generator-based cooperative
  processes (``yield env.timeout(3)``),
- :class:`~repro.sim.resources.Resource` — an FCFS-queued resource (a
  network link, a processor),
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
from repro.sim.events import AllOf, Event, Interrupt, Timeout
from repro.sim.monitor import Monitor
from repro.sim.process import Process
from repro.sim.resources import Request, Resource

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Interrupt",
    "Monitor",
    "Process",
    "Request",
    "Resource",
    "Timeout",
]
