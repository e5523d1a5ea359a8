"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``[name, start_s, end_s, parent_index_or_None, op_id]``; the
spans of one op share its id.  Nothing under ``src/`` knows about this
module: the traced run wraps public entry points from outside.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Span recorder for one thread of control."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @property
    def current(self) -> int | None:
        """Index of the innermost open span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[int]:
        parent = self.current
        if op is None and parent is not None:
            op = self.spans[parent][OP]
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        op: str | None = None,
    ) -> int:
        """Record a span timed elsewhere (another process, a reply body)."""
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1


def select(
    spans: Sequence[Sequence], slowdown_of: dict[str, float]
) -> list[list]:
    """The spans of the given ops at reference speed: each op's instants
    divided by the slowdown it ran under (see calibrate.py), parent
    indices re-based."""
    index_of: dict[int, int] = {}
    chosen: list[list] = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        if op in slowdown_of:
            index_of[index] = len(chosen)
            slow = slowdown_of[op]
            chosen.append([name, start / slow, end / slow, parent, op])
    for span in chosen:
        if span[PARENT] is not None:
            span[PARENT] = index_of[span[PARENT]]
    return chosen


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            parent = spans[span[PARENT]]
            children[span[PARENT]].append(
                (max(span[START], parent[START]), min(span[END], parent[END]))
            )
    return [
        (span[END] - span[START]) - _covered(children.get(index, []))
        for index, span in enumerate(spans)
    ]


def per_op_ms(
    spans: Sequence[Sequence], self_time: bool = False
) -> dict[str, dict[str, float]]:
    """``name -> op id -> milliseconds`` summed over the op's spans."""
    durations = (
        self_times(spans)
        if self_time
        else [span[END] - span[START] for span in spans]
    )
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, seconds in zip(spans, durations):
        table[span[NAME]][span[OP]] += seconds * 1000.0
    return table


def ms_per_op(
    table: dict[str, dict[str, float]], name: str, ops: int
) -> float:
    """Milliseconds in ``name`` spans per traced op: the per-layer
    figures of one workload add up to its mean op wall."""
    return sum(table.get(name, {}).values()) / ops if ops else 0.0


def durations_ms(spans: Sequence[Sequence], name: str) -> list[float]:
    """Duration of every ``name`` span, in milliseconds."""
    return [(span[END] - span[START]) * 1000.0
            for span in spans if span[NAME] == name]


def unattributed_share(spans: Sequence[Sequence]) -> float:
    """Share of the root (op) spans' wall that no child span covers."""
    own = self_times(spans)
    roots = [i for i, span in enumerate(spans) if span[PARENT] is None]
    wall = sum(spans[i][END] - spans[i][START] for i in roots)
    return sum(own[i] for i in roots) / wall if wall else 0.0


def write(path: Path, workload: str, spans: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": workload,
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": spans,
    }
    path.write_text(json.dumps(document) + "\n")
