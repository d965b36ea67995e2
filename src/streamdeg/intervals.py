"""Algebra on half-open time intervals [start, end).

All functions operate on plain lists of ``(start, end)`` float tuples.  The
canonical form used throughout the package is: sorted by start, pairwise
disjoint, non-empty, with touching intervals merged.  Endpoints are compared
exactly (no epsilon): callers are expected to build endpoints from the same
decimal inputs so that equal instants compare equal.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable, Sequence

Interval = tuple[float, float]


def merge(intervals: Iterable[Interval]) -> list[Interval]:
    """Return the canonical union of the given intervals.

    Empty or inverted intervals are dropped; overlapping or touching ones
    are merged.
    """
    items = sorted((s, e) for s, e in intervals if e > s)
    if not items:
        return []
    out = [items[0]]
    for s, e in items[1:]:
        ls, le = out[-1]
        if s <= le:
            if e > le:
                out[-1] = (ls, e)
        else:
            out.append((s, e))
    return out


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right sum; from Python 3.12 on, the built-in ``sum``
    compensates float rounding, so its bits depend on the version."""
    return reduce(operator.add, values, 0)


def measure(intervals: Sequence[Interval]) -> float:
    return ordered_sum(e - s for s, e in intervals)


def intersect(a: Sequence[Interval], b: Sequence[Interval]) -> list[Interval]:
    """Intersection of two canonical interval lists."""
    out: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if e > s:
            out.append((s, e))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def intersection_measure(a: Sequence[Interval], b: Sequence[Interval]) -> float:
    return measure(intersect(a, b))


def union_measure(a: Sequence[Interval], b: Sequence[Interval]) -> float:
    return measure(merge(list(a) + list(b)))


def dilate(intervals: Sequence[Interval], slack: float) -> list[Interval]:
    """Grow every interval by ``slack`` on both sides and re-canonicalize."""
    return merge([(s - slack, e + slack) for s, e in intervals])
