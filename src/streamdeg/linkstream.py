"""Link stream construction and exact degree profiles.

A link stream is a node set plus, for every unordered node pair, a canonical
list of half-open presence intervals.  Each triplet ``(t, u, v)`` contributes
the window ``[t - delta/2, t + delta/2)`` to the pair ``uv``; overlapping
windows are unioned, so a pair is linked from t1 to t2 exactly when the two
nodes interacted at least once every ``delta`` within that span.

Storage is columnar.  Pair ``p`` joins nodes ``u[p] < v[p]``, and its
intervals are ``starts[offsets[p]:offsets[p + 1]]`` and ``ends[...]`` (CSR).
Every stream, parsed, loaded from its cache or derived by a removal, keeps
its pairs in ascending ``(u, v)`` order, so a stream and its cache hold the
same arrays and every sum over them adds in the same order.  A removal drops
the pairs it empties; a pair the builder leaves without intervals is kept.

The instantaneous degree of a node is the number of distinct neighbours whose
pair interval covers t.  Degree profiles are computed exactly by a sweep over
interval endpoints and kept in one CSR store, with each node's span from its
first to its last breakpoint; ``degree_segments`` reads the nodes whose span
meets its window as columns, raw or divided by the mean degree of each second.  ``grid_cells``
and ``grid_pieces`` are the one place where time meets a grid of seconds or
slices; consecutive cells share their ``grid_bound``, so cells tile time.

Streams are immutable.  ``remove_interactions`` trims pairs with the same
endpoint sweep, ``_sweep``, the one place where interval endpoints meet, in
``_trim``, and returns a new stream that builds its own node-to-pair
adjacency and profile store when first read.
``SliceState`` holds one slice of a stream after cuts inside it, its degree
segments and the pieces of the pairs those cuts trimmed, so a removal tried
inside one slice costs what that slice holds and is rolled back by dropping
the new value.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import intervals as iv
from .trace_io import Triplet, Triplets, _ranks, is_node_name

PairKey = tuple[int, int]

# Interval endpoints one block of the profile sweep gathers; bounds its
# temporaries.  A node with more endpoints gets a block of its own.
_SWEEP_ENDPOINTS = 1 << 16
# Nodes per sweep block, so a node's offset in its block is one uint16.
_SWEEP_NODES = 1 << 16
# Cache words ``save`` and ``load`` move per block of records; bounds their temporaries.
_CACHE_WORDS = 1 << 16
# Profile breakpoints one block of matrix rows or normalized seconds reads,
# taken as spread evenly over them (``read_blocks``); bounds its temporaries.
_BLOCK_BREAKPOINTS = 1 << 18


def _record_blocks(heads: np.ndarray, total: int) -> Iterator[tuple]:
    """``(records, intervals, words, at, is_body)`` per block of the records at words
    ``heads`` of ``total``: slices, heads from the block's start, interval words."""
    bounds = np.append(heads, total)
    cuts = _distinct(np.searchsorted(bounds, np.append(np.arange(0, total, _CACHE_WORDS), total)))
    for i, j in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        lo, hi = int(bounds[i]), int(bounds[j])
        at = heads[i:j] - lo
        is_body = np.ones(hi - lo, dtype=bool)
        is_body[at[:, None] + np.arange(3)] = False
        yield slice(i, j), slice((lo - 3 * i) // 2, (hi - 3 * j) // 2), slice(lo, hi), at, is_body


class UnknownNodeError(KeyError):
    pass


class DegreeProfile(NamedTuple):
    """Piecewise-constant degree of one node, read-only views of its stream's
    arrays: ``values[i]`` holds on ``[times[i], times[i+1])``, 0 before the
    first and from the last breakpoint on.  Consecutive values differ and no
    value is 0 at the edges."""

    times: np.ndarray
    values: np.ndarray


@dataclass
class MeanDegreeSeries:
    """Average degree integrated over each integral second.

    ``values[i]`` is the integral of the instantaneous mean degree over the
    absolute second ``[start_second + i, start_second + i + 1)``.
    """

    start_second: int
    values: np.ndarray

    def mean(self) -> float:
        return float(self.values.mean()) if len(self.values) else 0.0

    def seconds(self) -> np.ndarray:
        return np.arange(self.start_second, self.start_second + len(self.values))


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(f, f + c)`` over the pairs of ``first`` and
    ``counts``."""
    ends = np.cumsum(counts)
    if len(ends) == 0 or ends[-1] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.repeat(first - (ends - counts), counts) + np.arange(ends[-1])


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct ``values`` (no NaN): ``np.unique(values)``, which
    imports ``numpy.ma`` on first use, about 5 ms of every command."""
    values = np.sort(values)
    new = np.ones(len(values), dtype=bool)
    new[1:] = values[1:] != values[:-1]
    return values[new]


def _search(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, t, side: str = "left") -> np.ndarray:
    """``lo + np.searchsorted(values[lo:hi], t, side)`` for every ascending range
    ``[lo, hi)`` of ``values`` and each ``t`` (or one for all): one bisection of all."""
    below = np.less if side == "left" else np.less_equal
    out, live = lo.copy(), np.flatnonzero(lo < hi)
    lo, size, t = lo[live], hi[live] - lo[live], (np.zeros(len(out)) + t)[live]
    while len(live):
        half = size // 2
        go = below(values[lo + half], t)
        out[live] = lo = np.where(go, lo + half + 1, lo)
        size = np.where(go, size - half - 1, half)
        live, lo, size, t = (x[size > 0] for x in (live, lo, size, t))
    return out


def _splice(first: np.ndarray, columns: Sequence[np.ndarray], rows: np.ndarray, lo: np.ndarray,
            hi: np.ndarray, counts: np.ndarray, *new: np.ndarray) -> list[np.ndarray]:
    """``[first, *columns]`` of a CSR table whose entries ``[lo[i], hi[i])``, of row
    ``rows[i]`` (ascending), give way to the next ``counts[i]`` of ``new``: one copy
    of each column, in pieces between the ranges, where touching ranges join."""
    shift = np.zeros(len(first), dtype=np.int64)
    shift[rows + 1] = counts - (hi - lo)
    heads = np.append(True, lo[1:] != hi[:-1])
    at, last = np.cumsum(counts), np.append(heads[1:], True)
    bounds = list(zip(*(x.tolist() for x in (lo[heads], hi[last], (at - counts)[heads], at[last]))))
    out = [first + np.cumsum(shift)]
    for column, add in zip(columns, new):
        parts, done = [], 0
        for a, b, x, y in bounds:
            parts += [column[done:a], add[x:y]]
            done = b
        out.append(np.concatenate(parts + [column[done:]]))
    return out


def grid_bound(origin: float, step: float, i):
    """Bound ``i`` of a grid, between its cells ``i - 1`` and ``i``: the one formula of a cell bound."""
    return origin + i * step


def grid_cells(start: np.ndarray, end: np.ndarray, origin: float, step: float) -> tuple[np.ndarray, ...]:
    """``(first, stop)``: ``[start, end)`` meets the cells ``[grid_bound(i), grid_bound(i + 1))``
    for ``first <= i < stop``.  A division guesses each index, and the guessed cell's own
    bound corrects it by one: exact while ``step`` is far above the float spacing of the bounds."""
    first = np.floor((start - origin) / step)
    first += grid_bound(origin, step, first + 1) <= start
    first -= grid_bound(origin, step, first) > start
    stop = np.ceil((end - origin) / step)
    stop -= grid_bound(origin, step, stop - 1) >= end
    stop += grid_bound(origin, step, stop) < end
    return first.astype(np.int64), stop.astype(np.int64)


def grid_pieces(start: np.ndarray, end: np.ndarray, origin: float, step: float,
                cells: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
    """``(at, cell, lo, hi)``: the piece ``[lo, hi)`` of interval ``at`` in each cell
    ``first <= cell < stop`` of ``cells = (first, stop)``, arrays or one pair for all,
    where it has positive length, in interval order, then cell order."""
    first, stop = (np.broadcast_to(c, start.shape) for c in cells)
    counts = np.maximum(stop - first, 0)
    at = np.repeat(np.arange(len(first)), counts)
    cell = _ranges(first, counts)
    lo = np.maximum(start[at], grid_bound(origin, step, cell))
    hi = np.minimum(end[at], grid_bound(origin, step, cell + 1))
    keep = hi > lo
    return at[keep], cell[keep], lo[keep], hi[keep]


def _bounds(key: np.ndarray, starts: np.ndarray, ends: np.ndarray, step) -> tuple:
    """``_sweep`` input for intervals: ``step``, one or one per interval, at each
    start, ``-step`` at its end."""
    step = np.broadcast_to(step, starts.shape)
    return np.repeat(key, 2), np.stack([starts, ends], 1).ravel(), np.stack([step, -step], 1).ravel()


def _within(x: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each ``x`` is one of the ascending distinct ``keys``."""
    if not len(keys):
        return np.zeros(len(x), dtype=bool)
    return keys.take(np.searchsorted(keys, x), mode="clip") == x


def _sweep(key: np.ndarray, times: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(key, time, level)`` of each breakpoint of the step functions that
    ``steps[i]`` at ``times[i]`` build per ``key[i]``, in key order, then time
    order: sorts by time and then, stably, by key; sums the steps of each
    (key, time) and drops zero sums, so an end meeting a start leaves no
    breakpoint; and accumulates the levels.  A key's steps sum to 0, so one
    running sum restarts at 0 for every key, and its last level is 0.  A
    breakpoint takes the first of its equal times in gather order, as a dict
    keyed by time keeps, so the time sort need not be stable.
    """
    if not len(times):
        return key, times, steps
    order = np.argsort(times)
    order = order[np.argsort(key[order], kind="stable")]
    k, t = key[order], times[order]
    at = np.flatnonzero(np.append(True, (k[1:] != k[:-1]) | (t[1:] != t[:-1])))
    sums = np.add.reduceat(steps[order], at)
    first = np.minimum.reduceat(order, at)[sums != 0]
    return key[first], times[first], np.cumsum(sums[sums != 0])


def _trim(pair: np.ndarray, start: np.ndarray, end: np.ndarray, stream: "LinkStream",
          cuts: tuple[np.ndarray, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """``(kept, lost)``, each ``(pair, start, end)`` in pair order, then time order:
    the pieces ``[start, end)`` of pairs, each pair's disjoint and ascending, less
    every cut ``(node, start, end)`` of either of its nodes, and the runs the cuts
    took, some touching; ``cuts`` in node order, each node's disjoint and ascending.

    One ``_sweep``: a pair's level is +1 on its own pieces and -2 on each cut of
    either of its nodes from the first that ends after a piece starts to the first
    that starts at or after its end, so it keeps the time where its level is 1 and
    lost that where it is odd and below 1; a cut taken twice changes neither.
    """
    cut_node, cut_start, cut_end = cuts
    ends_of = np.stack([stream._u[pair], stream._v[pair]], 1).ravel()
    lo, hi = np.searchsorted(cut_node, ends_of), np.searchsorted(cut_node, ends_of, "right")
    lo = _search(cut_end, lo, hi, start.repeat(2), "right")
    hi = _search(cut_start, lo, hi, end.repeat(2))
    picked = _ranges(lo, hi - lo)
    own = _bounds(pair, start, end, 1)
    cut = _bounds(pair.repeat(2).repeat(hi - lo), cut_start[picked], cut_end[picked], -2)
    key, time, level = _sweep(*(np.concatenate(c) for c in zip(own, cut)))
    kept, lost = np.flatnonzero(level == 1), np.flatnonzero((level % 2 == 1) & (level < 1))
    return tuple((key[at], time[at], time[at + 1]) for at in (kept, lost))


class LinkStream:
    """Immutable link stream over dense node indices, in the arrays the
    module docstring describes."""

    def __init__(self, node_names: Sequence[str], u: np.ndarray, v: np.ndarray, offsets: np.ndarray,
                 starts: np.ndarray, ends: np.ndarray, delta: float, t_begin: float, t_end: float):
        self.node_names = list(node_names)
        self.delta = delta
        self.t_begin = t_begin
        self.t_end = t_end
        self._u = u
        self._v = v
        self._offsets = offsets
        self._starts = starts
        self._ends = ends
        self.num_pairs = len(u)
        # (first, times, levels): node n's breakpoints are times[first[n]:first[n + 1]], its
        # levels alike, the last the 0 after its last end; swept when first read
        self._profiles: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # (lead, last): each node's first and last breakpoint, +inf and -inf for none
        self._spans: tuple[np.ndarray, np.ndarray] | None = None
        self._series: MeanDegreeSeries | None = None

    # -- basic queries ------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    @cached_property
    def links(self) -> dict[PairKey, list[iv.Interval]]:
        """``{(u, v): [(start, end), ...]}`` of the pairs, in key order."""
        keys = zip(self._u.tolist(), self._v.tolist())
        return {key: self._intervals(p) for p, key in enumerate(keys)}

    def _intervals(self, p: int) -> list[iv.Interval]:
        a, b = int(self._offsets[p]), int(self._offsets[p + 1])
        return list(zip(self._starts[a:b].tolist(), self._ends[a:b].tolist()))

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """``(first, pair_ids)``: the pairs of node n are
        ``pair_ids[first[n]:first[n + 1]]``, ascending."""
        ids = np.arange(self.num_pairs)
        nodes = np.concatenate([self._u, self._v])
        ids = np.concatenate([ids, ids])
        order = np.lexsort((ids, nodes))
        first = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(nodes, minlength=self.num_nodes), out=first[1:])
        return first, ids[order]

    def _pair_ids(self, nodes) -> np.ndarray:
        """Pairs of any of ``nodes``, one or an array, ascending; none for an unknown node."""
        nodes = _distinct(np.atleast_1d(nodes))
        nodes = nodes[(0 <= nodes) & (nodes < self.num_nodes)]
        first, pair_ids = self._adjacency
        return _distinct(pair_ids[_ranges(first[nodes], first[nodes + 1] - first[nodes])])

    def _runs(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(owner, at)``: the pair and the index of each interval of ``pairs``, in order."""
        counts = self._offsets[pairs + 1] - self._offsets[pairs]
        return np.repeat(pairs, counts), _ranges(self._offsets[pairs], counts)

    def total_link_seconds(self) -> float:
        """Sum of the pairs' interval lengths: each pair's lengths in time
        order, then the pairs in order."""
        owner = np.repeat(np.arange(self.num_pairs), np.diff(self._offsets))
        per_pair = np.bincount(owner, self._ends - self._starts, self.num_pairs)
        # a running sum adds left to right, as ``intervals.ordered_sum`` does
        return float(np.add.accumulate(per_pair)[-1]) if len(per_pair) else 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_triplets(
        cls,
        triplets: Iterable[Triplet],
        node_names: Sequence[str],
        delta: float,
    ) -> "LinkStream":
        """Union the delta-window of every triplet into its pair's intervals.

        The windows are sorted by one int64 key, pair rank times the number
        of distinct times plus time rank (below ``len(triplets) ** 2``).  As
        t - delta/2 and t + delta/2 grow with t, a pair's starts and its ends
        are both sorted, so the previous end is the merged end so far: a
        merged interval starts wherever the pair changes or a window starts
        after it.
        Empty windows are dropped, as ``intervals.merge`` drops them; a pair
        left without any keeps no intervals.  Pairs are kept in ascending
        ``(u, v)`` order.
        """
        if delta <= 0:
            raise ValueError("delta must be positive")
        cols = Triplets.of(triplets)
        half = delta / 2.0
        width = int(max(cols.u.max(), cols.v.max())) + 1 if len(cols) else 1
        keys, pair = _ranks(np.minimum(cols.u, cols.v) * width + np.maximum(cols.u, cols.v))
        times, rank = _ranks(cols.t)
        order = np.argsort(pair * len(times) + rank)
        del rank
        pair, start = pair[order], cols.t[order]
        del order
        end = start + half
        start -= half
        keep = end > start
        if not keep.all():
            pair, start, end = pair[keep], start[keep], end[keep]

        opens = np.ones(len(pair), dtype=bool)
        opens[1:] = (pair[1:] != pair[:-1]) | (start[1:] > end[:-1])
        closes = np.ones(len(pair), dtype=bool)
        closes[:-1] = opens[1:]
        offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(np.bincount(pair[opens], minlength=len(keys)), out=offsets[1:])
        del pair
        t_begin = float(start.min()) if len(start) else 0.0
        t_end = float(end.max()) if len(end) else 0.0
        return cls(node_names, keys // width, keys % width, offsets, start[opens], end[closes],
                   delta, t_begin, t_end)

    # -- degree profiles ----------------------------------------------------

    def degree_profile(self, node: int) -> DegreeProfile:
        """Exact piecewise-constant degree of ``node``, a view of the profile store."""
        if not 0 <= node < self.num_nodes:
            raise UnknownNodeError(node)
        first, times, levels = self._degree_arrays()
        a, b = int(first[node]), int(first[node + 1])
        profile = DegreeProfile(times[a:b], levels[a:b][:-1])
        profile.times.flags.writeable = profile.values.flags.writeable = False
        return profile

    def _degree_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._profiles is None:
            counts, times, levels = self._sweep_profiles()
            first, some = np.concatenate([[0], np.cumsum(counts)]), np.flatnonzero(counts)
            lead, last = np.full(self.num_nodes, np.inf), np.full(self.num_nodes, -np.inf)
            lead[some], last[some] = times[first[some]], times[first[some + 1] - 1]
            self._profiles, self._spans = (first, times, levels), (lead, last)
        return self._profiles

    def _sweep_profiles(self) -> tuple[np.ndarray, ...]:
        """``(counts, times, levels)`` of every node's breakpoints: one ``_sweep`` per
        block of +1 at each start and -1 at each end of its pairs' intervals."""
        first, pair_ids = self._adjacency
        n_adj = np.diff(first)
        lo = self._offsets[pair_ids]
        n_iv = self._offsets[pair_ids + 1] - lo
        bound = np.cumsum(2 * np.diff(np.concatenate([[0], np.cumsum(n_iv)])[first]))
        out = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64))]
        i = 0
        while i < self.num_nodes:
            base = bound[i - 1] if i else 0
            j = int(np.searchsorted(bound, base + _SWEEP_ENDPOINTS, side="right"))
            j = min(max(j, i + 1), i + _SWEEP_NODES)
            block = slice(first[i], first[j])
            runs = _ranges(lo[block], n_iv[block])
            owner = np.repeat(np.arange(j - i, dtype=np.uint16), n_adj[i:j])
            local, times, levels = _sweep(*_bounds(np.repeat(owner, n_iv[block]), self._starts[runs],
                                                   self._ends[runs], 1))
            out.append((np.bincount(local, minlength=j - i), times, levels))
            i = j
        out = list(zip(*out))
        return tuple(np.concatenate(out.pop(0)) for _ in range(3))  # blocks freed once joined

    def max_degree(self) -> int:
        return int(self._degree_arrays()[2].max(initial=0))

    # -- removal ------------------------------------------------------------

    def remove_interactions(
        self, victims: Iterable[tuple[int, iv.Interval]]
    ) -> "LinkStream":
        """Return a stream with every victim's incident links cut.

        For each victim ``(v, I)`` every pair containing v loses ``I``
        intersected with its intervals; all other pairs keep theirs.  A pair
        the cuts leave without intervals is dropped.  Removing absent time is
        a no-op.
        """
        by_node: dict[int, list[iv.Interval]] = {}
        for n, cut in victims:
            by_node.setdefault(n, []).append(cut)
        # each node's cuts merged, so their starts and their ends both ascend
        cuts = np.array([(n, a, b) for n in sorted(by_node) for a, b in iv.merge(by_node[n])]).reshape(-1, 3)
        cuts = (cuts[:, 0].astype(np.int64), cuts[:, 1], cuts[:, 2])
        owner, runs = self._runs(self._pair_ids(cuts[0]))
        (key, start, end), lost = _trim(owner, self._starts[runs], self._ends[runs], self, cuts)
        if not len(lost[0]):
            return self
        trimmed = _distinct(lost[0])
        take = _within(key, trimmed)
        counts = np.bincount(np.searchsorted(trimmed, key[take]), minlength=len(trimmed))
        offsets, starts, ends = _splice(self._offsets, (self._starts, self._ends), trimmed,
                                        self._offsets[trimmed], self._offsets[trimmed + 1], counts,
                                        start[take], end[take])
        keep = np.ones(self.num_pairs, dtype=bool)
        keep[trimmed[counts == 0]] = False
        return LinkStream(self.node_names, self._u[keep], self._v[keep], offsets[np.append(keep, True)],
                          starts, ends, self.delta, self.t_begin, self.t_end)

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
        acc = np.zeros(max(int(math.ceil(self.t_end)) - start, 0))
        # pieces in pair order, then time order, then second order, added one
        # by one by np.add.at
        _, cell, lo, hi = grid_pieces(self._starts, self._ends, float(start), 1.0,
                                      grid_cells(self._starts, self._ends, float(start), 1.0))
        np.add.at(acc, cell, 2.0 * (hi - lo))
        self._series = MeanDegreeSeries(start, acc / self.num_nodes)
        return self._series

    # -- binary cache ---------------------------------------------------------

    MAGIC = b"SDLS"
    VERSION = 1

    def save(self, out: BinaryIO) -> None:
        """Serialize to the little-endian binary cache format (see README):
        a header, the node names, then one record per pair in key order,
        ``u, v, n`` as u64 followed by n ``start, end`` f64 pairs."""
        head = [self.MAGIC, struct.pack("<H", self.VERSION),
                struct.pack("<ddd", self.delta, self.t_begin, self.t_end),
                struct.pack("<Q", self.num_nodes)]
        for name in self.node_names:
            raw = name.encode("utf-8")
            head += [struct.pack("<H", len(raw)), raw]
        counts = np.diff(self._offsets)
        head.append(struct.pack("<Q", self.num_pairs))
        out.write(b"".join(head))

        sizes = 3 + 2 * counts
        heads = np.cumsum(sizes) - sizes
        for pairs, ivs, _, at, is_body in _record_blocks(heads, int(sizes.sum())):
            words = np.empty(len(is_body), dtype="<u8")
            for k, column in enumerate((self._u, self._v, counts)):
                words[at + k] = column[pairs]
            words.view("<f8")[is_body] = np.stack([self._starts[ivs], self._ends[ivs]], axis=1).ravel()
            out.write(words.tobytes())

    @classmethod
    def load(cls, src: BinaryIO) -> "LinkStream":
        """Read a cache written by ``save``.  Every count is checked against
        the bytes left before anything is allocated for it; bytes after the
        last record are ignored.  What ``save`` never writes is rejected."""
        buf = src.read()
        if buf[:4] != cls.MAGIC:
            raise ValueError("not a link-stream cache file")
        pos = 4

        def unpack(fmt: str) -> tuple:
            nonlocal pos
            size = struct.calcsize(fmt)
            if pos + size > len(buf):
                raise ValueError(f"truncated at byte {len(buf)}")
            pos += size
            return struct.unpack_from(fmt, buf, pos - size)

        (version,) = unpack("<H")
        if version != cls.VERSION:
            raise ValueError(f"unsupported cache version {version}")
        delta, t_begin, t_end = unpack("<ddd")
        # NaN fails every comparison
        if not 0.0 < delta < math.inf:
            raise ValueError(f"delta {delta} is not positive and finite")
        if not -math.inf < t_begin <= t_end < math.inf:
            raise ValueError(f"time span [{t_begin}, {t_end}] is not finite and ordered")
        (n_nodes,) = unpack("<Q")
        if n_nodes > (len(buf) - pos) // 2:
            raise ValueError(f"{n_nodes} node names cannot fit in {len(buf) - pos} bytes")
        names = []
        for _ in range(n_nodes):
            (ln,) = unpack("<H")
            if pos + ln > len(buf):
                raise ValueError(f"truncated at byte {len(buf)}")
            names.append(buf[pos:pos + ln].decode("utf-8"))
            pos += ln
        if len(set(names)) < len(names) or not all(map(is_node_name, names)):
            raise ValueError("a node name is repeated, or no trace line can hold it")
        (n_pairs,) = unpack("<Q")
        n_words = (len(buf) - pos) // 8
        if n_pairs > n_words // 3:
            raise ValueError(f"{n_pairs} pairs cannot fit in {len(buf) - pos} bytes")

        # one hop per record: a head is three words, then 2n interval words
        words = np.frombuffer(buf, dtype="<u8", count=n_words, offset=pos)
        count_at = struct.Struct("<Q").unpack_from
        heads = array("q", [0]) * n_pairs
        at = 0
        for r in range(n_pairs):
            if at + 3 > n_words:
                raise ValueError(f"truncated at byte {len(buf)}")
            heads[r] = at
            at += 3 + 2 * count_at(buf, pos + 8 * at + 16)[0]
        if at > n_words:
            raise ValueError(f"truncated at byte {len(buf)}")

        floats = np.frombuffer(buf, dtype="<f8", count=at, offset=pos)
        u, v, counts = (np.empty(n_pairs, dtype=np.int64) for _ in range(3))
        starts, ends = (np.empty((at - 3 * n_pairs) // 2) for _ in range(2))
        for pairs, ivs, block, rel, is_body in _record_blocks(np.frombuffer(heads, np.int64), at):
            for k, column in enumerate((u, v, counts)):
                column[pairs] = words[block][rel + k]
            starts[ivs], ends[ivs] = floats[block][is_body].reshape(-1, 2).T
        ascending = (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))
        if not (((0 <= u) & (u < v) & (v < n_nodes)).all() and ascending.all()):
            raise ValueError(f"pair records not ascending (u, v) with 0 <= u < v < {n_nodes}")
        offsets = np.zeros(n_pairs + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # an interval inside the finite span is finite; one that is not the
        # first of its pair starts after the previous one ends
        after = np.ones(len(starts), dtype=bool)
        after[1:] = starts[1:] > ends[:-1]
        after[offsets[:-1][counts > 0]] = True
        if not (after & (t_begin <= starts) & (starts < ends) & (ends <= t_end)).all():
            raise ValueError(f"intervals not disjoint, ascending and inside [{t_begin}, {t_end}]")
        return cls(names, u, v, offsets, starts, ends, delta, t_begin, t_end)


def build_stream(triplets: Iterable[Triplet], node_names: Sequence[str], delta: float) -> LinkStream:
    return LinkStream.from_triplets(triplets, node_names, delta)


class Segments(NamedTuple):
    """Degree segments as columns: ``node`` has ``value`` on ``[start, end)``."""

    node: np.ndarray
    start: np.ndarray
    end: np.ndarray
    value: np.ndarray


def degree_segments(stream: LinkStream, t0: float = -math.inf, t1: float = math.inf,
                    series: MeanDegreeSeries | None = None) -> Segments:
    """Nonzero degree segments that end after ``t0`` and start before ``t1``,
    in node order, then time order; only nodes whose span meets ``(t0, t1)`` are read.
    With a ``series``, they are cut and divided per second by ``per_second``.
    """
    first, store_times, store_levels = stream._degree_arrays()
    lead, last = stream._spans
    nodes = np.flatnonzero((last > t0) & (lead < t1))
    lo, hi = first[nodes], first[nodes + 1]
    # cut each profile to its breakpoints from before t0 to the first at or after t1
    at = _search(store_times, np.tile(lo, 2), np.tile(hi, 2), np.repeat([t0, t1], len(nodes)))
    lo, hi = np.maximum(at[:len(nodes)] - 1, lo), np.minimum(at[len(nodes):] + 1, hi)
    counts = np.maximum(hi - lo, 0)
    runs = _ranges(lo, counts)
    times, levels = store_times[runs], store_levels[runs]
    # a nonzero level lasts to the next breakpoint; a node's last one starts none
    opens = levels != 0
    opens[np.cumsum(counts)[counts > 0] - 1] = False
    at = np.flatnonzero(opens)
    at = at[(times[at + 1] > t0) & (times[at] < t1)]
    segs = Segments(np.repeat(nodes, counts)[at], times[at], times[at + 1], levels[at])
    return segs if series is None else per_second(segs, t0, t1, series)


def per_second(segs: Segments, t0: float, t1: float, series: MeanDegreeSeries) -> Segments:
    """``segs`` cut at second bounds, keeping the pieces in the seconds that
    overlap ``(t0, t1)``; the piece in second s has value k / mean(s), and is
    dropped where the mean is 0 (no interaction) or s is outside the series."""
    node, start, end, value = segs
    base = float(series.start_second)
    first, stop = grid_cells(np.maximum(start, t0), np.minimum(end, t1), base, 1.0)
    cells = np.maximum(first, 0), np.minimum(stop, len(series.values))
    at, second, lo, hi = grid_pieces(start, end, base, 1.0, cells)
    keep = series.values[second] > 0
    at = at[keep]
    return Segments(node[at], lo[keep], hi[keep], value[at] / series.values[second[keep]])


class SliceState(NamedTuple):
    """The slice ``[t0, t1)`` of a stream after cuts inside it: its raw degree
    segments clipped to it, and the ``pieces`` in it of the ``pairs`` the cuts
    trimmed; every other pair keeps the stream's intervals there."""

    t0: float
    t1: float
    segments: Segments
    pairs: np.ndarray
    pieces: tuple[np.ndarray, np.ndarray, np.ndarray]

    def read(self, normalized: NormalizedDegrees | None) -> Segments:
        """The segments, cut and divided per second with a normalized view."""
        return self.segments if normalized is None else per_second(self.segments, self.t0, self.t1,
                                                                   normalized.series)


def slice_state(stream: LinkStream, t0: float, t1: float) -> SliceState:
    """The slice ``[t0, t1)`` of ``stream``, before any cut."""
    node, start, end, value = degree_segments(stream, t0, t1)
    none = np.zeros(0, dtype=np.int64)
    return SliceState(t0, t1, Segments(node, np.maximum(start, t0), np.minimum(end, t1), value),
                      none, (none, np.zeros(0), np.zeros(0)))


def cut_slice(stream: LinkStream, state: SliceState, cuts: tuple[np.ndarray, ...]) -> SliceState:
    """``state`` after the cuts ``(node, start, end)`` inside its slice, each node's
    disjoint and ascending: ``_trim`` of the pieces there of the pairs of the cut
    nodes, and a ``_sweep`` of the segments of the nodes of the pairs that lost
    time, less the runs they lost."""
    t0, t1, segs, trimmed, held = state
    pairs = stream._pair_ids(cuts[0])
    owner, runs = stream._runs(pairs[~_within(pairs, trimmed)])
    start, end = stream._starts[runs], stream._ends[runs]
    meets = (end > t0) & (start < t1)
    mine = _within(held[0], pairs)
    pieces = (owner[meets], np.maximum(start[meets], t0), np.minimum(end[meets], t1))
    kept, lost = _trim(*(np.concatenate([a, b[mine]]) for a, b in zip(pieces, held)), stream, cuts)
    u, v = stream._u[lost[0]], stream._v[lost[0]]
    swept = _within(segs.node, _distinct(np.concatenate([u, v])))
    node, time, level = _sweep(*(np.concatenate(c) for c in zip(
        _bounds(segs.node[swept], segs.start[swept], segs.end[swept], segs.value[swept]),
        _bounds(np.stack([u, v], 1).ravel(), lost[1].repeat(2), lost[2].repeat(2), -1))))
    at = np.flatnonzero(level != 0)
    new = (node[at], time[at], time[at + 1], level[at])
    order = np.argsort(np.concatenate([segs.node[~swept], new[0]]), kind="stable")
    segs = Segments(*(np.concatenate([x[~swept], y])[order] for x, y in zip(segs, new)))
    # the cut nodes' pairs that lost time, now or before, hold their kept pieces
    trimmed = _distinct(np.concatenate([trimmed, lost[0]]))
    now = _within(kept[0], trimmed)
    held = tuple(np.concatenate([x[~mine], y[now]]) for x, y in zip(held, kept))
    return SliceState(t0, t1, segs, trimmed, held)


def read_blocks(stream: LinkStream, span: int, over: range, cap: float = math.inf) -> list[range]:
    """``over`` in blocks of at most ``cap`` rows or seconds that hold about
    ``_BLOCK_BREAKPOINTS`` of the stream's breakpoints, spread evenly over ``span``."""
    breakpoints = len(stream._degree_arrays()[1])
    step = max(1, min(cap, _BLOCK_BREAKPOINTS * span // max(breakpoints, 1)))
    return [range(i, min(i + step, over.stop)) for i in range(over.start, over.stop, step)]


@dataclass
class NormalizedDegrees:
    """A stream's degrees divided by the mean degree of each second.  Readers
    divide the degrees of whichever stream they read by the frozen ``series``,
    so removals do not shift the values of untouched couples."""

    stream: LinkStream
    series: MeanDegreeSeries

    def max_value(self) -> float:
        first, span = self.series.start_second, len(self.series.values)
        windows = read_blocks(self.stream, span, range(first, first + span))
        return max((float(degree_segments(self.stream, w.start, w.stop, self.series)
                          .value.max(initial=0.0)) for w in windows), default=0.0)


def normalize_degrees(stream: LinkStream, series: MeanDegreeSeries) -> NormalizedDegrees:
    return NormalizedDegrees(stream, series)
