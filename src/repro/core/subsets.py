"""Maximal related subsets of messages (paper Definitions 5.3 and 5.4).

Two messages are *related* when they use a common link and are active in a
common interval, or transitively through a third message.  The relation
partitions the message set; message-interval allocation and interval
scheduling decompose along the partition, which keeps the LPs small.

Within any single interval, messages of *different* subsets are link-
disjoint (were they not, they would be related), so per-subset schedules
can be overlaid in the same interval without conflict — the property the
switching-schedule builder relies on.
"""

from __future__ import annotations

from repro.core.assignment import PathAssignment
from repro.core.timebounds import TimeBoundSet
from repro.topology.base import Link


class _UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:  # path compression
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def maximal_subsets(
    bounds: TimeBoundSet,
    assignment: PathAssignment,
) -> list[tuple[str, ...]]:
    """Partition the routed messages into maximal related subsets.

    Subsets are returned in a deterministic order (by the first member's
    position in ``bounds.order``), each with members in ``bounds.order``.
    """
    names = [name for name in bounds.order if name in assignment.endpoints]
    uf = _UnionFind(names)
    activity = bounds.activity
    on_links: dict[Link, list[str]] = {}
    for name in names:
        for link in assignment.links(name):
            on_links.setdefault(link, []).append(name)
    for on_link in on_links.values():
        for idx, first in enumerate(on_link):
            row_a = activity[bounds.index[first]]
            for second in on_link[idx + 1:]:
                row_b = activity[bounds.index[second]]
                if bool((row_a & row_b).any()):
                    uf.union(first, second)

    groups: dict[str, list[str]] = {}
    for name in names:
        groups.setdefault(uf.find(name), []).append(name)
    ordered = sorted(groups.values(), key=lambda g: bounds.index[g[0]])
    return [tuple(group) for group in ordered]
