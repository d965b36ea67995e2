"""The array read path against the per-segment loops it replaced.

The references below are the generator loops the degree profiles were read
with before they became arrays: per-node segments, the same segments cut per
second and normalized, the per-segment slice accumulation of the fraction
matrix, and the per-node merge and clip of ``identify_event``.
"""

import math
from bisect import bisect_left, bisect_right
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from streamdeg import intervals as iv, linkstream
from streamdeg.pipeline import Event
from streamdeg.slicing import (
    FractionMatrix,
    TimeSliceGrid,
    build_scheme,
    fraction_matrix,
    slice_value_measures,
    with_row,
)

from streams import clip, from_pair_intervals, identified, profile_lists, rebuilt
from test_linkstream import segment_rows, timed_streams


def reference_segments(stream, node, t0=-math.inf, t1=math.inf, series=None):
    """Segments of ``node`` that overlap ``(t0, t1)``, level-0 ones included;
    with a ``series``, cut at second bounds and divided by each second's
    mean, only the pieces in the seconds that overlap the window."""
    bps, values = profile_lists(stream.degree_profile(node))
    first = max(bisect_right(bps, t0) - 1, 0)
    stop = min(bisect_left(bps, t1), len(values))
    for i in range(first, stop):
        a, b, k = bps[i], bps[i + 1], values[i]
        if series is None:
            yield a, b, k
            continue
        if k == 0:
            continue
        for s in range(int(math.floor(max(a, t0))), int(math.ceil(min(b, t1)))):
            lo = max(a, float(s))
            hi = min(b, s + 1.0)
            if hi <= lo:
                continue
            j = s - series.start_second
            mean = float(series.values[j]) if 0 <= j < len(series.values) else 0.0
            yield lo, hi, (k / mean if mean > 0 else 0.0)


def reference_measures(stream, grid, series):
    """Measure per degree value in each slice, one segment and one slice at
    a time; slice i is ``grid.bounds(i)``, and a division guesses the slices
    a segment meets to within one."""
    per_slice = [dict() for _ in range(grid.count)]
    origin, tau, end = grid.origin, grid.tau, grid.end
    for node in range(stream.num_nodes):
        for a, b, val in reference_segments(stream, node, series=series):
            if val <= 0 or b <= origin or a >= end:
                continue
            i0 = max(int(math.floor((a - origin) / tau)) - 1, 0)
            i1 = min(int(math.ceil((b - origin) / tau)) + 1, grid.count)
            for i in range(i0, i1):
                lo, hi = grid.bounds(i)
                ov = min(b, hi) - max(a, lo)
                if ov > 0:
                    per_slice[i][val] = per_slice[i].get(val, 0.0) + ov
    return per_slice


def reference_row(acc, scheme, denom):
    """One fraction-matrix row, each class adding its values in ascending
    order; then the zero share."""
    cells = [0.0] * (len(scheme) + 1)
    active = 0.0
    for k in sorted(acc):
        cells[scheme.class_of(k)] += acc[k]
        active += acc[k]
    return [c / denom for c in cells[1:]], (denom - active) / denom


def reference_entries(stream, grid, scheme, series, j, i):
    lo, hi = grid.bounds(i)
    k_lo, k_hi = scheme.edges[j - 1:j + 1].tolist()
    entries = {}
    for node in range(stream.num_nodes):
        in_class = iv.merge(
            [(a, b) for a, b, x in reference_segments(stream, node, lo, hi, series)
             if k_lo <= x < k_hi]
        )
        clipped = clip(in_class, lo, hi)
        if clipped:
            entries[node] = clipped
    return entries


def removals(stream):
    """Up to 4 cuts, as ``remove_interactions`` takes them: a node with links
    in ``stream`` (any node, where none has) and a window of 0.25 to 5 s that
    starts inside ``[t_begin, t_end)``, at the start of one of the node's links
    or anywhere."""
    span = stream.t_end - stream.t_begin
    anywhere = st.integers(0, 63).map(lambda k: stream.t_begin + k * span / 64)
    link_starts: dict[int, list[float]] = {}
    for pair, ivs in stream.links.items():
        for node in pair:
            link_starts.setdefault(node, []).extend(s for s, _ in ivs)

    def cuts(node):
        starts = st.one_of(st.sampled_from(link_starts[node]), anywhere) if node in link_starts else anywhere
        return st.tuples(starts, st.integers(1, 20)).map(lambda c: (node, (c[0], c[0] + c[1] / 4.0)))

    nodes = sorted(link_starts) or range(stream.num_nodes)
    return st.lists(st.sampled_from(nodes).flatmap(cuts), min_size=1, max_size=4)


# 0 breakpoints a block: every matrix block is one row, every normalized read one second
@given(st.data(), st.integers(1, 3), st.booleans(), st.sampled_from([2.0, 0.7]),
       st.sampled_from([0, linkstream._BLOCK_BREAKPOINTS]))
@settings(max_examples=60, deadline=None)
def test_read_path_equals_the_segment_loops(data, chained, normalized, tau, block_breakpoints):
    with mock.patch.object(linkstream, "_BLOCK_BREAKPOINTS", block_breakpoints):
        check_read_path(data, chained, normalized, tau)


def check_read_path(data, chained, normalized, tau):
    """The read path of a drawn stream, and of ``chained`` streams derived from
    it by drawn removals, each cutting the stream the one before it left,
    equals the segment loops."""
    stream = data.draw(timed_streams())
    grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, tau)
    scheme, view = build_scheme(stream, 0.1, normalized)
    series = None if view is None else view.series
    levels = [x for n in range(stream.num_nodes) for *_, x in reference_segments(stream, n, series=series)]
    assert (stream.max_degree() if view is None else view.max_value()) == max(levels, default=0)
    streams = [stream]
    for _ in range(chained):
        streams.append(streams[-1].remove_interactions(data.draw(removals(streams[-1]))))

    for s in streams:
        nodes = range(s.num_nodes)
        assert segment_rows(s, nodes, series=series) == [
            (n, a, b, x) for n in nodes for a, b, x in reference_segments(s, n, series=series)
            if x != 0
        ]
        measures = reference_measures(s, grid, series)
        got = slice_value_measures(s, grid, view)
        assert got == measures
        assert [list(acc) for acc in got] == [list(acc) for acc in measures]  # key order

        denom = grid.tau * s.num_nodes
        blank = FractionMatrix(grid, scheme, np.zeros((grid.count, len(scheme))),
                               np.zeros(grid.count), s.num_nodes)
        full = fraction_matrix(s, grid, scheme, view)
        for i in range(grid.count):
            fractions, zero = reference_row(measures[i], scheme, denom)
            row = with_row(blank, i, linkstream.slice_state(s, *grid.bounds(i)).read(view))
            assert row.fractions[i].tolist() == fractions
            assert row.zero[i] == zero
            assert full.fractions[i].tolist() == fractions
            assert full.zero[i] == zero

        for j in range(1, len(scheme) + 1):
            for i in range(grid.count):
                event = Event(j, i, 0.0, "nonzero-in-A")
                found = identified(s, event, grid, scheme, view)
                assert found.entries == reference_entries(s, grid, scheme, series, j, i)


@st.composite
def windowed_chains(draw):
    """A stream with its profiles swept, chained removals, and a window
    ``(t0, t1)``.  Cuts and window bounds are drawn from the stream's
    breakpoints and the slice bounds of a grid, so that cuts trim links and
    windows meet the ends of spans; a window bound may also be infinite."""
    stream = draw(timed_streams())
    grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, draw(st.sampled_from([2.0, 0.7])))
    times = st.sampled_from([*stream._degree_arrays()[1].tolist(),
                             *(grid.bounds(i)[0] for i in range(grid.count + 1))])
    cuts = st.tuples(st.integers(0, stream.num_nodes - 1), st.lists(times, min_size=2, max_size=2))
    removals = draw(st.lists(st.lists(cuts.map(lambda c: (c[0], tuple(sorted(c[1])))),
                                      min_size=1, max_size=4), min_size=1, max_size=3))
    bounds = st.one_of(times, st.sampled_from([-math.inf, math.inf]))
    t0, t1 = sorted(draw(st.lists(bounds, min_size=2, max_size=2)))
    return stream, removals, t0, t1


# a with b on [0, 4) and b with c on [4, 8), then a cut on [3, 4): a's span
# shrinks from [0, 4) to [0, 3), and c's first breakpoint is 4
EDGES = from_pair_intervals(["a", "b", "c"], {("a", "b"): [(0.0, 4.0)], ("b", "c"): [(4.0, 8.0)]})
CUT_A = [[(0, (3.0, 4.0))]]


@given(windowed_chains(), st.booleans())
@example((EDGES, CUT_A, 4.0, 8.0), False)  # a's last breakpoint before the cut at t0
@example((EDGES, CUT_A, 3.0, 8.0), True)  # a's last breakpoint after the cut at t0
@example((EDGES, CUT_A, 0.0, 4.0), False)  # c's first breakpoint at t1
@example((EDGES, CUT_A, 2.0, 4.0), True)  # the same, normalized
@settings(max_examples=80, deadline=None)
def test_derived_streams_sweep_their_own_spans(case, normalized):
    # a derived stream holds no profile store of its parent's; read, it sweeps
    # its own, so it reads the segments of a stream rebuilt on its arrays
    stream, removals, t0, t1 = case
    stream._degree_arrays()
    series = stream.mean_degree_per_second() if normalized else None
    for victims in removals:
        out = stream.remove_interactions(victims)
        assert out is stream or out._profiles is out._spans is None
        stream = out
        got = linkstream.degree_segments(stream, t0, t1, series)
        want = linkstream.degree_segments(rebuilt(stream), t0, t1, series)
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]
