"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching programming errors.
Compile-time scheduling failures carry enough structured detail to explain
*why* a schedule could not be produced (which stage failed and for what
resource), because that diagnosis is itself a result the paper cares about:
scheduled routing "enables prediction of system performance at compile-time
by deciding if the network meets the communication requirements".
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TopologyError(ReproError):
    """Invalid topology construction or addressing (bad radix, node id...)."""


class RoutingError(ReproError):
    """A route could not be produced or validated on a topology."""


class TFGError(ReproError):
    """Invalid task-flow graph (cycle, dangling message, bad sizes)."""


class AllocationError(ReproError):
    """A task->node allocation is invalid for the given TFG/topology."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class InvalidDelayError(SimulationError, ValueError):
    """A negative or NaN delay was passed where the kernel needs a
    forward-in-time duration (``Environment.call_later``).

    Subclasses both :class:`SimulationError` (the library contract) and
    :class:`ValueError` (the historical type), so existing ``except
    ValueError`` callers keep working."""


class SchedulingError(ReproError):
    """Base class for compile-time scheduled-routing failures.

    Attributes
    ----------
    stage:
        Name of the compiler stage that failed (``"utilization"``,
        ``"path-assignment"``, ``"interval-allocation"``,
        ``"interval-scheduling"``).
    """

    stage = "scheduling"


class UtilizationExceededError(SchedulingError):
    """Peak utilisation U > 1: the TFG's communication requirements exceed
    link capacity at the requested input period, so no feasible schedule
    exists (paper Section 5.1)."""

    stage = "utilization"

    def __init__(self, peak: float, witness: str = ""):
        self.peak = peak
        self.witness = witness
        detail = f" (peak at {witness})" if witness else ""
        super().__init__(
            f"peak utilisation {peak:.4f} > 1: communication requirements "
            f"exceed link capacity{detail}"
        )


class IntervalAllocationError(SchedulingError):
    """The message-interval allocation LP (paper constraints (3)-(4)) is
    infeasible for some maximal subset of messages."""

    stage = "interval-allocation"

    def __init__(self, subset_index: int, detail: str = ""):
        self.subset_index = subset_index
        suffix = f": {detail}" if detail else ""
        super().__init__(
            f"message-interval allocation infeasible for maximal subset "
            f"{subset_index}{suffix}"
        )


class IntervalSchedulingError(SchedulingError):
    """An interval's messages cannot be packed into the interval length
    using link-feasible sets (paper Section 5.3)."""

    stage = "interval-scheduling"

    def __init__(self, interval_index: int, required: float, available: float):
        self.interval_index = interval_index
        self.required = required
        self.available = available
        super().__init__(
            f"interval {interval_index} unschedulable: link-feasible packing "
            f"needs {required:.4f} time units but interval length is "
            f"{available:.4f}"
        )


class ScheduleValidationError(ReproError):
    """A computed switching schedule violated an invariant when replayed
    (link contention, missed deadline, wrong delivery)."""


class FaultInjectionError(ReproError):
    """Base class for runtime aborts caused by an *injected fault*.

    Distinct from :class:`ScheduleValidationError` on purpose: a healthy
    schedule that trips over an injected link failure or clock drift is
    not an invalid schedule — it is a valid schedule meeting a broken
    machine.  Callers (the repair engine, the survivability benchmarks)
    catch this hierarchy to start the detection -> repair pipeline.

    Attributes
    ----------
    detection_time:
        Absolute simulation instant at which the fault was observed
        (``None`` when the abort happened outside the event loop).
    """

    def __init__(self, message: str, detection_time: float | None = None):
        super().__init__(message)
        self.detection_time = detection_time


class LinkFailedError(FaultInjectionError):
    """A transmission claimed a link that an injected fault had taken
    down.  Carries the failed link and the message that detected it —
    the inputs the repair engine needs."""

    def __init__(self, link, message_name: str, detection_time: float):
        self.link = link
        self.message_name = message_name
        super().__init__(
            f"link {link} failed: detected by message {message_name!r} "
            f"at t={detection_time:.6f}",
            detection_time,
        )


class FaultedDeadlineError(FaultInjectionError):
    """A delivery missed its destination-task deadline because of an
    injected fault (clock drift eating the margin, or an outage window
    swallowing the transmission slot)."""

    def __init__(self, message_name: str, due: float, actual: float):
        self.message_name = message_name
        self.due = due
        self.actual = actual
        super().__init__(
            f"message {message_name!r} delivery at {actual:.6f} misses "
            f"deadline {due:.6f} under clock drift",
            actual,
        )


class RepairInfeasibleError(FaultInjectionError):
    """The schedule-repair engine could not produce a valid schedule on
    the residual topology — neither local path repair nor a full
    recompilation succeeded (or the failure disconnected a message's
    endpoints)."""

    def __init__(self, detail: str):
        super().__init__(f"schedule repair infeasible: {detail}")
