"""Link stream construction and exact degree profiles.

A link stream is a node set plus, for every unordered node pair, a canonical
list of half-open presence intervals.  Each triplet ``(t, u, v)`` contributes
the window ``[t - delta/2, t + delta/2)`` to the pair ``uv``; overlapping
windows are unioned, so a pair is linked from t1 to t2 exactly when the two
nodes interacted at least once every ``delta`` within that span.

The instantaneous degree of a node is the number of distinct neighbours whose
pair interval covers t.  Degree profiles are computed exactly by a sweep over
interval endpoints and stored as canonical piecewise-constant functions.

Streams are immutable.  ``remove_interactions`` returns a new stream sharing
all untouched pair lists, adjacency lists and degree profiles (copy-on-write),
so speculative removals can be rolled back by simply dropping the new value.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from . import intervals as iv
from .trace_io import Triplet, Triplets

PairKey = tuple[int, int]


class UnknownNodeError(KeyError):
    pass


@dataclass
class DegreeProfile:
    """Piecewise-constant degree of one node.

    ``values[i]`` holds on ``[breakpoints[i], breakpoints[i+1])``; the degree
    is implicitly 0 before the first and after the last breakpoint.  Canonical
    form: consecutive values differ and no value is 0 at the edges.
    """

    node: int
    breakpoints: list[float]
    values: list[int]

    def value_at(self, t: float) -> int:
        i = bisect_right(self.breakpoints, t) - 1
        if i < 0 or i >= len(self.values):
            return 0
        return self.values[i]

    def segments(
        self, t0: float = -math.inf, t1: float = math.inf
    ) -> Iterator[tuple[float, float, int]]:
        """Segments in time order, skipping those that end at or before
        ``t0`` or start at or after ``t1``."""
        bps = self.breakpoints
        first = max(bisect_right(bps, t0) - 1, 0)
        stop = min(bisect_left(bps, t1), len(self.values))
        for i in range(first, stop):
            yield bps[i], bps[i + 1], self.values[i]

    @property
    def max_value(self) -> int:
        return max(self.values, default=0)


@dataclass
class MeanDegreeSeries:
    """Average degree integrated over each integral second.

    ``values[i]`` is the integral of the instantaneous mean degree over the
    absolute second ``[start_second + i, start_second + i + 1)``.
    """

    start_second: int
    values: np.ndarray

    def value_for_second(self, second: int) -> float:
        i = second - self.start_second
        if 0 <= i < len(self.values):
            return float(self.values[i])
        return 0.0

    def value_at(self, t: float) -> float:
        return self.value_for_second(int(math.floor(t)))

    def mean(self) -> float:
        return float(self.values.mean()) if len(self.values) else 0.0

    def seconds(self) -> np.ndarray:
        return np.arange(self.start_second, self.start_second + len(self.values))


def _pair(u: int, v: int) -> PairKey:
    return (u, v) if u < v else (v, u)


class LinkStream:
    """Immutable link stream over dense node indices."""

    def __init__(
        self,
        node_names: Sequence[str],
        links: dict[PairKey, list[iv.Interval]],
        delta: float,
        t_begin: float | None = None,
        t_end: float | None = None,
    ):
        self.node_names = list(node_names)
        self.links = links
        self.delta = delta
        if t_begin is None or t_end is None:
            starts = [ivs[0][0] for ivs in links.values() if ivs]
            ends = [ivs[-1][1] for ivs in links.values() if ivs]
            t_begin = min(starts) if starts else 0.0
            t_end = max(ends) if ends else 0.0
        self.t_begin = t_begin
        self.t_end = t_end
        # built on first use; a stream made by ``remove_interactions`` gets
        # its parent's, with only the lists of deleted pairs replaced
        self._adjacency: dict[int, list[PairKey]] | None = None
        self._profiles: dict[int, DegreeProfile] = {}
        self._series: MeanDegreeSeries | None = None

    # -- basic queries ------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    def pairs_of(self, node: int) -> list[PairKey]:
        return self._pairs_by_node().get(node, [])

    def _pairs_by_node(self) -> dict[int, list[PairKey]]:
        if self._adjacency is None:
            self._adjacency = {}
            for key in self.links:
                self._adjacency.setdefault(key[0], []).append(key)
                self._adjacency.setdefault(key[1], []).append(key)
        return self._adjacency

    def total_link_seconds(self) -> float:
        return sum(iv.measure(ivs) for ivs in self.links.values())

    # -- construction -------------------------------------------------------

    @classmethod
    def from_triplets(
        cls,
        triplets: Iterable[Triplet],
        node_names: Sequence[str],
        delta: float,
    ) -> "LinkStream":
        """Union the delta-window of every triplet into its pair's intervals.

        The windows are sorted by (pair, start, end), and a merged interval
        starts wherever the pair changes or a window starts after the previous
        one ends.  Every window has the same width, so a pair's ends are sorted
        along with its starts and the previous end is the merged end so far.
        Empty windows are dropped, as ``intervals.merge`` drops them; a pair
        left without any keeps an empty list.  Pairs are keyed in order of
        first appearance.
        """
        if delta <= 0:
            raise ValueError("delta must be positive")
        cols = Triplets.of(triplets)
        half = delta / 2.0
        lo = np.minimum(cols.u, cols.v)
        hi = np.maximum(cols.u, cols.v)
        width = int(hi.max()) + 1 if len(hi) else 1
        pair = lo * width + hi
        keys, first_at = np.unique(pair, return_index=True)
        start = cols.t - half
        end = cols.t + half
        keep = end > start
        pair, start, end = pair[keep], start[keep], end[keep]
        order = np.lexsort((end, start, pair))
        pair, start, end = pair[order], start[order], end[order]

        opens = np.ones(len(pair), dtype=bool)
        opens[1:] = (pair[1:] != pair[:-1]) | (start[1:] > end[:-1])
        closes = np.ones(len(pair), dtype=bool)
        closes[:-1] = opens[1:]
        merged = list(zip(start[opens].tolist(), end[closes].tolist()))
        run_pair = pair[opens]
        lo_at = np.searchsorted(run_pair, keys, side="left").tolist()
        hi_at = np.searchsorted(run_pair, keys, side="right").tolist()
        key_u = (keys // width).tolist()
        key_v = (keys % width).tolist()
        links = {
            (key_u[i], key_v[i]): merged[lo_at[i]:hi_at[i]]
            for i in np.argsort(first_at).tolist()
        }
        t_begin = float(start.min()) if len(start) else 0.0
        t_end = float(end.max()) if len(end) else 0.0
        return cls(node_names, links, delta, t_begin, t_end)

    @classmethod
    def from_pair_intervals(
        cls,
        node_names: Sequence[str],
        pair_intervals: dict[tuple[str, str], list[iv.Interval]],
        delta: float = 1.0,
        t_begin: float | None = None,
        t_end: float | None = None,
    ) -> "LinkStream":
        """Build directly from explicit per-pair interval lists (mainly tests)."""
        name_idx = {n: i for i, n in enumerate(node_names)}
        links = {
            _pair(name_idx[a], name_idx[b]): iv.merge(ivs)
            for (a, b), ivs in pair_intervals.items()
        }
        return cls(node_names, links, delta, t_begin, t_end)

    # -- degree profiles ----------------------------------------------------

    def degree_profile(self, node: int) -> DegreeProfile:
        """Exact piecewise-constant degree of ``node`` (cached)."""
        if not 0 <= node < self.num_nodes:
            raise UnknownNodeError(node)
        prof = self._profiles.get(node)
        if prof is None:
            prof = self._compute_profile(node)
            self._profiles[node] = prof
        return prof

    def _compute_profile(self, node: int) -> DegreeProfile:
        deltas: dict[float, int] = {}
        for key in self.pairs_of(node):
            for s, e in self.links[key]:
                deltas[s] = deltas.get(s, 0) + 1
                deltas[e] = deltas.get(e, 0) - 1
        breakpoints: list[float] = []
        values: list[int] = []
        level = 0
        for t in sorted(deltas):
            d = deltas[t]
            if d == 0:
                # an end and a start meeting at t cancel out: no level change
                continue
            level += d
            breakpoints.append(t)
            values.append(level)
        if values and values[-1] == 0:
            values.pop()
        if not values:
            return DegreeProfile(node, [], [])
        return DegreeProfile(node, breakpoints, values)

    def segments(
        self, node: int, t0: float = -math.inf, t1: float = math.inf
    ) -> Iterator[tuple[float, float, int]]:
        """Degree segments of ``node`` that overlap ``(t0, t1)``;
        ``NormalizedDegrees.segments`` is the normalized counterpart, so either
        can serve as the degree view."""
        return self.degree_profile(node).segments(t0, t1)

    def max_degree(self) -> int:
        return max((self.degree_profile(v).max_value for v in range(self.num_nodes)), default=0)

    # -- removal ------------------------------------------------------------

    def remove_interactions(
        self, victims: Iterable[tuple[int, iv.Interval]]
    ) -> "LinkStream":
        """Return a new stream with every victim's incident links cut.

        For each victim ``(v, I)`` every pair containing v loses ``I``
        intersected with its intervals; all other pairs are shared untouched.
        Removing absent time is a no-op.
        """
        cuts: dict[int, list[iv.Interval]] = {}
        for node, interval in victims:
            cuts.setdefault(node, []).append(interval)
        cuts = {node: iv.merge(ivs) for node, ivs in cuts.items()}

        new_links = dict(self.links)
        affected_pairs: set[PairKey] = set()
        for node in cuts:
            affected_pairs.update(self.pairs_of(node))
        affected_nodes: set[int] = set()
        deleted: list[PairKey] = []
        for key in affected_pairs:
            cut = iv.merge(cuts.get(key[0], []) + cuts.get(key[1], []))
            trimmed = iv.subtract(self.links[key], cut)
            if trimmed == self.links[key]:
                continue  # cut missed this pair; keep the shared list
            affected_nodes.update(key)
            if trimmed:
                new_links[key] = trimmed
            else:
                del new_links[key]
                deleted.append(key)

        out = LinkStream(self.node_names, new_links, self.delta, self.t_begin, self.t_end)
        adjacency = dict(self._pairs_by_node())
        for node in {n for key in deleted for n in key}:
            adjacency[node] = [key for key in adjacency[node] if key in new_links]
        out._adjacency = adjacency
        out._profiles = {
            node: prof for node, prof in self._profiles.items() if node not in affected_nodes
        }
        return out

    # -- per-second aggregates ----------------------------------------------

    def mean_degree_per_second(self) -> MeanDegreeSeries:
        """Exact per-second integral of the instantaneous mean degree (cached).

        Every presence second of a link contributes degree 1 to both of its
        endpoints, so the integral over second s is twice the link measure in
        s divided by the node count.
        """
        if self.num_nodes == 0:
            raise ValueError("mean degree undefined for an empty node set")
        if self._series is not None:
            return self._series
        start = int(math.floor(self.t_begin))
        stop = int(math.ceil(self.t_end))
        n_seconds = max(stop - start, 0)
        acc = np.zeros(n_seconds)
        for ivs in self.links.values():
            for a, b in ivs:
                s0 = int(math.floor(a))
                s1 = int(math.ceil(b))
                for s in range(s0, s1):
                    ov = min(b, s + 1.0) - max(a, float(s))
                    if ov > 0:
                        acc[s - start] += 2.0 * ov
        self._series = MeanDegreeSeries(start, acc / self.num_nodes)
        return self._series

    # -- binary cache ---------------------------------------------------------

    MAGIC = b"SDLS"
    VERSION = 1

    def save(self, out: BinaryIO) -> None:
        """Serialize to the little-endian binary cache format (see README)."""
        out.write(self.MAGIC)
        out.write(struct.pack("<H", self.VERSION))
        out.write(struct.pack("<ddd", self.delta, self.t_begin, self.t_end))
        out.write(struct.pack("<Q", self.num_nodes))
        for name in self.node_names:
            raw = name.encode("utf-8")
            out.write(struct.pack("<H", len(raw)))
            out.write(raw)
        keys = sorted(self.links)
        out.write(struct.pack("<Q", len(keys)))
        for key in keys:
            ivs = self.links[key]
            out.write(struct.pack("<QQQ", key[0], key[1], len(ivs)))
            for s, e in ivs:
                out.write(struct.pack("<dd", s, e))

    @classmethod
    def load(cls, src: BinaryIO) -> "LinkStream":
        magic = src.read(4)
        if magic != cls.MAGIC:
            raise ValueError("not a link-stream cache file")
        (version,) = struct.unpack("<H", src.read(2))
        if version != cls.VERSION:
            raise ValueError(f"unsupported cache version {version}")
        delta, t_begin, t_end = struct.unpack("<ddd", src.read(24))
        (n_nodes,) = struct.unpack("<Q", src.read(8))
        names = []
        for _ in range(n_nodes):
            (ln,) = struct.unpack("<H", src.read(2))
            names.append(src.read(ln).decode("utf-8"))
        (n_pairs,) = struct.unpack("<Q", src.read(8))
        links: dict[PairKey, list[iv.Interval]] = {}
        for _ in range(n_pairs):
            u, v, n_iv = struct.unpack("<QQQ", src.read(24))
            ivs = []
            for _ in range(n_iv):
                s, e = struct.unpack("<dd", src.read(16))
                ivs.append((s, e))
            links[(u, v)] = ivs
        return cls(names, links, delta, t_begin, t_end)


def build_stream(triplets: Iterable[Triplet], node_names: Sequence[str], delta: float) -> LinkStream:
    return LinkStream.from_triplets(triplets, node_names, delta)


class NormalizedDegrees:
    """View of a stream's degrees divided by the mean degree of each second.

    Values are relative to the per-second series of the stream the view was
    created from; seconds with zero mean contain no interactions, so the
    normalized degree is 0 there by convention.
    """

    def __init__(self, stream: LinkStream, series: MeanDegreeSeries):
        self.stream = stream
        self.series = series

    def value_at(self, node: int, t: float) -> float:
        k = self.stream.degree_profile(node).value_at(t)
        if k == 0:
            return 0.0
        mean = self.series.value_at(t)
        return k / mean if mean > 0 else 0.0

    def segments(
        self, node: int, t0: float = -math.inf, t1: float = math.inf
    ) -> Iterator[tuple[float, float, float]]:
        """Profile segments refined at second boundaries, values normalized;
        only the pieces in the seconds that overlap ``(t0, t1)``."""
        for a, b, k in self.stream.degree_profile(node).segments(t0, t1):
            if k == 0:
                continue
            s0 = int(math.floor(max(a, t0)))
            s1 = int(math.ceil(min(b, t1)))
            for s in range(s0, s1):
                lo = max(a, float(s))
                hi = min(b, s + 1.0)
                if hi <= lo:
                    continue
                mean = self.series.value_for_second(s)
                yield lo, hi, (k / mean if mean > 0 else 0.0)

    def max_value(self) -> float:
        out = 0.0
        for node in range(self.stream.num_nodes):
            for _, _, val in self.segments(node):
                out = max(out, val)
        return out


def normalize_degrees(stream: LinkStream, series: MeanDegreeSeries) -> NormalizedDegrees:
    return NormalizedDegrees(stream, series)
