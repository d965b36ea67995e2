"""Test helpers: link streams from per-pair interval lists, degree profiles
read as lists and point values, interval oracles, and the identification of
one event on a stream."""

from __future__ import annotations

import weakref
from bisect import bisect_right
from typing import Sequence

import numpy as np

from streamdeg import intervals as iv
from streamdeg.linkstream import DegreeProfile, LinkStream, slice_state
from streamdeg.pipeline import IdentifiedSet, identify_event


def from_pair_intervals(
    node_names: Sequence[str],
    pair_intervals: dict[tuple[str, str], list[iv.Interval]],
    delta: float = 1.0,
    t_begin: float | None = None,
    t_end: float | None = None,
) -> LinkStream:
    """Build from per-pair interval lists, merging the lists of ``(a, b)``
    and ``(b, a)``; a self pair ``(a, a)`` is a ValueError.  The bounds
    default to the extreme endpoints, or 0.0 without intervals."""
    name_idx = {n: i for i, n in enumerate(node_names)}
    links: dict[tuple[int, int], list[iv.Interval]] = {}
    for (a, b), ivs in pair_intervals.items():
        if a == b:
            raise ValueError(f"self-interaction {a!r}")
        key = tuple(sorted((name_idx[a], name_idx[b])))
        links[key] = iv.merge(links.get(key, []) + list(ivs))
    keys = sorted(links)
    flat = np.array([pt for key in keys for pt in links[key]], dtype=np.float64).reshape(-1, 2)
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum([len(links[key]) for key in keys], out=offsets[1:])
    if t_begin is None:
        t_begin = float(flat[:, 0].min()) if len(flat) else 0.0
    if t_end is None:
        t_end = float(flat[:, 1].max()) if len(flat) else 0.0
    pairs = np.array(keys, dtype=np.int64).reshape(-1, 2)
    return LinkStream(node_names, pairs[:, 0], pairs[:, 1], offsets, flat[:, 0].copy(),
                      flat[:, 1].copy(), delta, t_begin, t_end)


def rebuilt(stream: LinkStream) -> LinkStream:
    """A stream on ``stream``'s arrays with nothing read yet, so it sweeps its
    own profiles and series."""
    return LinkStream(stream.node_names, stream._u, stream._v, stream._offsets, stream._starts,
                      stream._ends, stream.delta, stream.t_begin, stream.t_end)


# node -> keys of its pairs, built once per stream: streams are immutable
_PAIRS_OF: "weakref.WeakKeyDictionary[LinkStream, dict]" = weakref.WeakKeyDictionary()


def pairs_of(stream: LinkStream, node: int) -> list[tuple[int, int]]:
    """Keys of the pairs of ``node``, ascending."""
    if stream not in _PAIRS_OF:
        index: dict[int, list[tuple[int, int]]] = {}
        for key in stream.links:
            for end in key:
                index.setdefault(end, []).append(key)
        _PAIRS_OF[stream] = index
    return list(_PAIRS_OF[stream].get(node, []))


def profile_lists(profile: DegreeProfile) -> tuple[list[float], list[int]]:
    """``(breakpoints, values)`` of a profile as lists, comparable with ``==``."""
    return profile.times.tolist(), profile.values.tolist()


def value_at(profile: DegreeProfile, t: float) -> int:
    i = int(np.searchsorted(profile.times, t, side="right")) - 1
    return int(profile.values[i]) if 0 <= i < len(profile.values) else 0


def max_value(profile: DegreeProfile) -> int:
    return int(profile.values.max(initial=0))


def clip(intervals: Sequence[iv.Interval], lo: float, hi: float) -> list[iv.Interval]:
    """Intersection of a canonical interval list with the window [lo, hi)."""
    out = []
    for s, e in intervals:
        if e <= lo:
            continue
        if s >= hi:
            break
        out.append((max(s, lo), min(e, hi)))
    return out


def covers(intervals: Sequence[iv.Interval], t: float) -> bool:
    """Point query on a canonical list: is t inside some [start, end)?"""
    i = bisect_right(intervals, (t, float("inf"))) - 1
    return i >= 0 and intervals[i][0] <= t < intervals[i][1]


def identified(stream: LinkStream, event, grid, scheme, normalized=None) -> IdentifiedSet:
    """``identify_event`` on the event's slice of ``stream``, as an identified set."""
    state = slice_state(stream, *grid.bounds(event.slice_index))
    return IdentifiedSet.of(*identify_event(state, event, scheme, normalized))
