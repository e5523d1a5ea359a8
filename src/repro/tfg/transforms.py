"""Structure-preserving transformations of task-flow graphs.

Partitioning — choosing the grain of parallelism — happens *before* the
pipeline of the paper ("partitioning techniques attempt to minimize the
communication overhead", Section 1).  These transforms let experiments
explore that axis on the same workloads:

- :func:`merge_tasks` — fuse two tasks into one (their connecting
  messages become local and disappear),
- :func:`merge_linear_chains` — coarsen every single-in/single-out chain,
  the classic granularity knob.

All transforms return new graphs; inputs are never mutated.
"""

from __future__ import annotations

from repro.errors import TFGError
from repro.tfg.graph import TaskFlowGraph


def merge_tasks(
    tfg: TaskFlowGraph,
    first: str,
    second: str,
    merged_name: str | None = None,
) -> TaskFlowGraph:
    """Fuse ``second`` into ``first``.

    The merged task's operation count is the sum; messages between the
    two disappear (they become memory traffic inside one node); all other
    endpoints are redirected.  Raises :class:`~repro.errors.TFGError` if
    the fusion would create a cycle (i.e. another path connects the two
    tasks around the direct edge).
    """
    task_a = tfg.task(first)
    task_b = tfg.task(second)
    if first == second:
        raise TFGError(f"cannot merge {first!r} with itself")
    name = merged_name or first
    result = TaskFlowGraph(name=f"{tfg.name}+merge")
    for task in tfg.tasks:
        if task.name == first:
            result.add_task(name, task_a.ops + task_b.ops)
        elif task.name != second:
            result.add_task(task.name, task.ops)

    def redirect(endpoint: str) -> str:
        return name if endpoint in (first, second) else endpoint

    for message in tfg.messages:
        src = redirect(message.src)
        dst = redirect(message.dst)
        if src == dst:
            continue  # now internal to the merged task
        result.add_message(message.name, src, dst, message.size_bytes)
    try:
        result.validate()
    except TFGError as error:
        raise TFGError(
            f"merging {first!r} and {second!r} creates a cycle: {error}"
        ) from error
    return result


def merge_linear_chains(tfg: TaskFlowGraph) -> TaskFlowGraph:
    """Coarsen every maximal linear chain into a single task.

    A chain link is a message whose source has exactly one successor and
    whose destination has exactly one predecessor — fusing across it
    removes communication without reducing parallelism.  Chains are
    collapsed repeatedly until none remain.
    """
    current = tfg
    while True:
        fusable = None
        for message in current.messages:
            if (
                len(current.messages_out(message.src)) == 1
                and len(current.messages_in(message.dst)) == 1
            ):
                fusable = message
                break
        if fusable is None:
            return current
        current = merge_tasks(current, fusable.src, fusable.dst)
