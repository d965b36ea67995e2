import io
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamdeg.linkstream import LinkStream, UnknownNodeError, build_stream, degree_segments
from streamdeg import intervals as iv, linkstream
from streamdeg.cli import main
from streamdeg.trace_io import Triplet, Triplets, parse_trace

from streams import covers, from_pair_intervals, pairs_of, profile_lists, value_at

# The worked reference stream used throughout: pair presence intervals
# ab: [0.5,2) u [5.5,6.5) / ac: [3,4) / bc: [3.8,5.8), three nodes.
REF_PAIRS = {
    ("a", "b"): [(0.5, 2.0), (5.5, 6.5)],
    ("a", "c"): [(3.0, 4.0)],
    ("b", "c"): [(3.8, 5.8)],
}


def ref_stream() -> LinkStream:
    return from_pair_intervals(["a", "b", "c"], REF_PAIRS, delta=1.0)


def stream_of(names, links, delta=1.0, t_begin=None, t_end=None) -> LinkStream:
    named = {(names[u], names[v]): ivs for (u, v), ivs in links.items()}
    return from_pair_intervals(names, named, delta, t_begin, t_end)


def random_stream(rng: np.random.Generator, n_nodes=10, n_triplets=100, delta=1.0):
    names = [f"n{i}" for i in range(n_nodes)]
    triplets = []
    for _ in range(n_triplets):
        u = int(rng.integers(0, n_nodes))
        v = int(rng.integers(0, n_nodes - 1))
        if v >= u:
            v += 1
        t = float(rng.uniform(0, 50))
        triplets.append(Triplet(t, u, v))
    return build_stream(triplets, names, delta)


def brute_force_degree(stream: LinkStream, node: int, t: float) -> int:
    count = 0
    for key in pairs_of(stream, node):
        for s, e in stream.links[key]:
            if s <= t < e:
                count += 1
                break
    return count


def reference_profile(stream: LinkStream, node: int) -> tuple[list[float], list[int]]:
    """``(breakpoints, values)`` by the per-node sweep the blocked array sweep
    replaced: step sums keyed by time in a dict, zero sums skipped, the
    trailing 0 dropped."""
    deltas: dict[float, int] = {}
    for key in pairs_of(stream, node):
        for s, e in stream.links[key]:
            deltas[s] = deltas.get(s, 0) + 1
            deltas[e] = deltas.get(e, 0) - 1
    breakpoints: list[float] = []
    values: list[int] = []
    level = 0
    for t in sorted(deltas):
        d = deltas[t]
        if d == 0:
            continue
        level += d
        breakpoints.append(t)
        values.append(level)
    if values and values[-1] == 0:
        values.pop()
    if not values:
        return [], []
    return breakpoints, values


def segment_rows(stream: LinkStream, nodes, t0=-math.inf, t1=math.inf, series=None):
    """``degree_segments`` of ``nodes`` as a list of ``(node, start, end, value)`` tuples."""
    rows = zip(*(column.tolist() for column in degree_segments(stream, t0, t1, series)))
    return [row for row in rows if row[0] in nodes]


def assert_profiles_match_reference(stream: LinkStream, nodes=None) -> None:
    for node in range(stream.num_nodes) if nodes is None else nodes:
        got = stream.degree_profile(node)
        assert profile_lists(got) == reference_profile(stream, node), node
        assert got.times.dtype == np.float64 and got.values.dtype == np.int64


@st.composite
def small_streams(draw):
    """Streams on half-second times with delta 1, so one pair's window ends
    where another's starts; some pairs only have windows that the builder
    drops (t = 1e17, where t +- 0.5 rounds to t) and keep no intervals."""
    n_nodes = draw(st.integers(2, 7))
    rows = draw(st.lists(st.tuples(st.integers(0, 60), st.integers(0, n_nodes - 1),
                                   st.integers(0, n_nodes - 2), st.booleans()), max_size=50))
    triplets = []
    for t, u, v, far in rows:
        triplets.append(Triplet(1e17 if far else t / 2.0, u, v + (v >= u)))
    names = [f"n{i}" for i in range(n_nodes)]
    return build_stream(triplets, names, 1.0)


def pairs_of_cut_nodes(stream: LinkStream, cuts) -> list[list[tuple[float, float]]]:
    """Interval lists, in pair order, of the pairs of a cut node that hold an
    interval: the pairs a removal examines."""
    nodes = {node for node, _ in cuts}
    return [ivs for (a, b), ivs in stream.links.items() if {a, b} & nodes and ivs]


def swept_pairs(key, times, steps) -> list[list[tuple[float, float]]]:
    """Interval lists, in key order, that a removal's ``_sweep`` call holds
    as +1 and -1 steps: the pairs it examines."""
    return [list(zip(times[(key == k) & (steps == 1)].tolist(),
                     times[(key == k) & (steps == -1)].tolist())) for k in np.unique(key)]


# Node 0's pairs against the cut window [4, 6): n1 on [3, 4) ends where it
# starts, n2 on [4.5, 5.5) lies inside, n3 on [6, 7) starts where it ends,
# n4 on [3, 7) spans it and n5 on [1, 2) and [8, 9) has intervals on both
# sides only.  n1-n2 on [4.5, 5.5) is not a pair of node 0.
BANDED_STREAM = build_stream(
    [Triplet(t, 0, v) for v, ts in [(1, [3.5]), (2, [5.0]), (3, [6.5]),
                                    (4, [3.5, 4.5, 5.5, 6.5]), (5, [1.5, 8.5])] for t in ts]
    + [Triplet(5.0, 1, 2)],
    [f"n{i}" for i in range(6)], 1.0,
)

victim_lists = st.lists(
    st.lists(st.tuples(st.integers(0, 6), st.integers(-2, 62), st.integers(1, 20)), max_size=4),
    max_size=5,
)


class TestBuildStream:
    def test_two_close_triplets_union(self):
        triplets, meta = parse_trace("1 a b\n1.5 a b\n")
        stream = build_stream(triplets, meta.node_names, 1.0)
        assert stream.links[(0, 1)] == [(0.5, 2.0)]

    def test_burst_of_five(self):
        triplets, meta = parse_trace("4.3 b c\n4.4 b c\n4.6 b c\n4.9 b c\n5.3 b c\n")
        stream = build_stream(triplets, meta.node_names, 1.0)
        assert stream.links[(0, 1)] == [(3.8, 5.8)]

    def test_empty(self):
        stream = build_stream([], [], 1.0)
        assert stream.links == {}
        assert stream.total_link_seconds() == 0.0

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            build_stream([], [], 0.0)

    def test_pair_intervals_of_both_orders_merge(self):
        stream = from_pair_intervals(
            ["a", "b"], {("a", "b"): [(0.0, 1.0)], ("b", "a"): [(2.0, 3.0), (0.5, 1.5)]})
        assert stream.links == {(0, 1): [(0.0, 1.5), (2.0, 3.0)]}
        assert profile_lists(stream.degree_profile(0)) == ([0.0, 1.5, 2.0, 3.0], [1, 0, 1])
        buf = io.BytesIO()
        stream.save(buf)
        buf.seek(0)
        assert LinkStream.load(buf).links == stream.links

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="self-interaction 'a'"):
            from_pair_intervals(["a", "b"], {("a", "a"): [(0.0, 1.0)]})

    def test_bounds_cover_intervals(self):
        stream = ref_stream()
        assert stream.t_begin == 0.5
        assert stream.t_end == 6.5


class TestDegreeProfile:
    def test_reference_profile_of_b(self):
        stream = ref_stream()
        prof = stream.degree_profile(1)
        assert profile_lists(prof) == ([0.5, 2.0, 3.8, 5.5, 5.8, 6.5], [1, 0, 1, 2, 1])
        # views of the stream's arrays, which derived streams share
        assert not (prof.times.flags.writeable or prof.values.flags.writeable)
        # the segments drop the level-0 gap on [2.0, 3.8)
        assert segment_rows(stream, [1]) == [
            (1, 0.5, 2.0, 1),
            (1, 3.8, 5.5, 1),
            (1, 5.5, 5.8, 2),
            (1, 5.8, 6.5, 1),
        ]
        assert value_at(prof, 0.0) == 0
        assert value_at(prof, 5.6) == 2
        assert value_at(prof, 6.5) == 0  # half-open at the end

    def test_isolated_node_is_constant_zero(self):
        stream = from_pair_intervals(["a", "b", "c", "x"], REF_PAIRS)
        prof = stream.degree_profile(3)
        assert profile_lists(prof) == ([], [])
        assert value_at(prof, 3.0) == 0

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            ref_stream().degree_profile(17)

    def test_matches_brute_force_point_queries(self):
        rng = np.random.default_rng(42)
        stream = random_stream(rng)
        times = rng.uniform(-1, 52, size=1000)
        for node in range(stream.num_nodes):
            prof = stream.degree_profile(node)
            for t in times:
                assert value_at(prof, t) == brute_force_degree(stream, node, t)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_profile_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, n_nodes=6, n_triplets=40)
        node = int(rng.integers(0, 6))
        prof = stream.degree_profile(node)
        for t in rng.uniform(-1, 52, size=200):
            assert value_at(prof, t) == brute_force_degree(stream, node, t)


    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_windowed_segments(self, seed):
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, n_nodes=6, n_triplets=40)
        # window edges on breakpoints and whole seconds as well as between them
        edges = stream.degree_profile(0).times.tolist() + list(rng.uniform(-2.0, 53.0, 10))
        edges += [float(t) for t in rng.integers(-2, 53, 5)]
        windows = rng.choice(edges, size=(20, 2))
        for series in (None, stream.mean_degree_per_second()):
            segs = segment_rows(stream, [0], series=series)
            for t0, t1 in windows:
                windowed = [s for s in segs if s[2] > t0 and s[1] < t1]
                assert segment_rows(stream, [0], t0, t1, series) == windowed


class TestProfileSweep:
    """The blocked endpoint sweep against the per-node reference."""

    @given(small_streams())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, stream):
        assert_profiles_match_reference(stream)

    def test_endpoints_cancelling_across_pairs(self):
        # a-b on [0, 1), a-c on [1, 2): the end and the start at 1 cancel
        stream = from_pair_intervals(
            ["a", "b", "c"], {("a", "b"): [(0.0, 1.0)], ("a", "c"): [(1.0, 2.0)]}
        )
        assert profile_lists(stream.degree_profile(0)) == ([0.0, 2.0], [1])
        assert_profiles_match_reference(stream)

    def test_pair_left_empty_by_the_builder(self):
        stream = build_stream([Triplet(1e17, 0, 1), Triplet(3.0, 1, 2)], ["a", "b", "c"], 1.0)
        assert stream.links[(0, 1)] == []
        assert profile_lists(stream.degree_profile(0)) == ([], [])
        assert_profiles_match_reference(stream)

    def test_more_nodes_and_endpoints_than_one_block(self):
        # a 70,000-node chain: pair (i, i+1) on [i, i+1), so every inner
        # node's two windows meet and cancel, over several blocks
        n = 70_000
        i = np.arange(n - 1)
        cols = Triplets(i + 0.5, i, i + 1)
        stream = build_stream(cols, [f"n{k}" for k in range(n)], 1.0)
        for node in (0, 1, 65_535, 65_536, n - 1):
            assert_profiles_match_reference(stream, [node])
        assert profile_lists(stream.degree_profile(0)) == ([0.0, 1.0], [1])
        assert profile_lists(stream.degree_profile(500)) == ([499.0, 501.0], [1])
        assert_profiles_match_reference(stream, range(0, n, 7))

    def test_more_nodes_than_one_block_holds(self):
        # mostly isolated nodes: the 65,536-node cap splits the blocks
        n = 70_000
        u = np.array([0, 65_535, 65_535, 65_536, 3])
        v = np.array([n - 1, n - 1, 65_536, n - 2, 65_535])
        cols = Triplets(np.full(len(u), 1.0), u, v)
        stream = build_stream(cols, [f"n{k}" for k in range(n)], 1.0)
        assert_profiles_match_reference(stream, [0, 1, 3, 65_535, 65_536, n - 2, n - 1])
        assert stream.max_degree() == 3

    @given(small_streams(), victim_lists)
    @example(BANDED_STREAM, [[(0, 8, 4)], [(0, 8, 4), (3, 14, 2)], [(1, 0, 30)]])
    @settings(max_examples=60, deadline=None)
    def test_chained_removals_equal_a_fresh_stream(self, stream, removals):
        for victims in removals:
            stream.max_degree()  # every profile built, so the next one inherits
            cuts = [(node, (start / 2.0, (start + width) / 2.0)) for node, start, width in victims]
            with mock.patch.object(linkstream, "_sweep", wraps=linkstream._sweep) as sweep:
                out = stream.remove_interactions(cuts)
            # the removal's sweep comes first, before the touched profiles' sweeps
            assert swept_pairs(*sweep.call_args_list[0].args) == pairs_of_cut_nodes(stream, cuts)
            fresh = stream_of(out.node_names, out.links, out.delta, out.t_begin, out.t_end)
            assert list(out.links.items()) == list(fresh.links.items())
            # the pairs a removal empties leave its arrays, as a fresh build of its links has them
            for name in ("_u", "_v", "_offsets", "_starts", "_ends"):
                assert getattr(out, name).tobytes() == getattr(fresh, name).tobytes(), name
            for node in range(out.num_nodes):
                got, want = out.degree_profile(node), fresh.degree_profile(node)
                assert profile_lists(got) == profile_lists(want)
            assert_profiles_match_reference(out)
            assert out.total_link_seconds() == fresh.total_link_seconds()
            stream = out


class TestRemoval:
    @pytest.mark.parametrize("before, cut, after", [
        ([(0.0, 10.0)], (2.0, 3.0), [(0.0, 2.0), (3.0, 10.0)]),
        ([(0.0, 10.0)], (0.0, 10.0), []),
        ([(0.0, 10.0)], (-5.0, 0.0), [(0.0, 10.0)]),
        ([(0.0, 1.0), (2.0, 3.0)], (0.5, 2.5), [(0.0, 0.5), (2.5, 3.0)]),
    ])
    def test_one_pair(self, before, cut, after):
        stream = stream_of(["a", "b"], {(0, 1): before})
        for node in (0, 1):
            assert stream.remove_interactions([(node, cut)]).links.get((0, 1), []) == after

    @given(small_streams(), victim_lists)
    # overlapping cuts of node 0, and cuts of both nodes of the pair n0-n4
    @example(BANDED_STREAM, [[(0, 6, 4), (0, 8, 4), (4, 12, 3), (4, 4, 1)]])
    # n0-n2 is cut by both nodes and n0-n3 twice by node 0, over the same time only
    @example(BANDED_STREAM, [[(0, 9, 1), (2, 9, 1), (0, 12, 2), (0, 12, 2)], [(5, 0, 20)]])
    @settings(max_examples=80, deadline=None)
    def test_pair_keeps_what_no_cut_covers(self, stream, removals):
        for victims in removals:
            cuts = [(node, (start / 2.0, (start + width) / 2.0)) for node, start, width in victims]
            out = stream.remove_interactions(cuts)
            cut_of = {n: iv.merge(c for m, c in cuts if m == n) for n in range(stream.num_nodes)}
            ends = {t for ivs in stream.links.values() for pt in ivs for t in pt}
            ends = sorted(ends | {t for _, c in cuts for t in c})
            samples = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
            for (a, b), ivs in stream.links.items():
                for t in samples:
                    kept = covers(ivs, t) and not (
                        covers(cut_of[a], t) or covers(cut_of[b], t))
                    assert covers(out.links.get((a, b), []), t) == kept, ((a, b), t)
            stream = out

    def test_remove_node_b_everywhere(self):
        stream = ref_stream()
        out = stream.remove_interactions([(1, (0.0, 10.0))])
        assert (0, 1) not in out.links
        assert (1, 2) not in out.links
        assert out.links[(0, 2)] == [(3.0, 4.0)]
        # original untouched (persistence)
        assert stream.links[(0, 1)] == [(0.5, 2.0), (5.5, 6.5)]

    def test_remove_isolated_node_is_noop(self):
        stream = from_pair_intervals(["a", "b", "c", "x"], REF_PAIRS)
        out = stream.remove_interactions([(3, (0.0, 100.0))])
        assert out.links == stream.links

    def test_partial_cut(self):
        stream = ref_stream()
        out = stream.remove_interactions([(1, (4.0, 5.0))])
        assert out.links[(1, 2)] == [(3.8, 4.0), (5.0, 5.8)]
        assert out.links[(0, 1)] == [(0.5, 2.0), (5.5, 6.5)]

    def test_locality_of_degrees(self):
        # removing victim intervals only lowers degrees of the victim and its
        # neighbours during the cut; node a keeps its profile when b is cut
        # outside their common window
        stream = ref_stream()
        out = stream.remove_interactions([(1, (4.0, 5.0))])
        assert segment_rows(out, [0]) == segment_rows(stream, [0])

    def test_removal_monotone(self):
        rng = np.random.default_rng(11)
        stream = random_stream(rng)
        victims = [(3, (5.0, 20.0)), (7, (0.0, 10.0))]
        out = stream.remove_interactions(victims)
        for node in range(stream.num_nodes):
            before = stream.degree_profile(node)
            after = out.degree_profile(node)
            for t in rng.uniform(0, 50, size=200):
                assert value_at(after, t) <= value_at(before, t)

    def test_untouched_pairs_and_profiles_equal(self):
        stream = ref_stream()
        stream.max_degree()  # builds every profile
        out = stream.remove_interactions([(1, (0.0, 1.0))])
        assert out.links[(0, 1)] == [(1.0, 2.0), (5.5, 6.5)]
        assert out.links[(0, 2)] == stream.links[(0, 2)]
        assert out.links[(1, 2)] == stream.links[(1, 2)]
        # c keeps only untouched pairs, so its profile equals the parent's; the
        # derived stream sweeps a profile store of its own
        assert profile_lists(out.degree_profile(2)) == profile_lists(stream.degree_profile(2))
        assert not np.shares_memory(out.degree_profile(0).times, stream.degree_profile(0).times)
        assert profile_lists(out.degree_profile(0)) == reference_profile(out, 0)

    def test_adjacency_follows_deleted_pairs(self):
        rng = np.random.default_rng(5)
        stream = random_stream(rng)
        streams = [stream]
        for node in range(0, stream.num_nodes, 3):
            streams.append(streams[-1].remove_interactions([(node, (0.0, 60.0))]))
        for s in streams:
            rebuilt = stream_of(s.node_names, s.links, s.delta, s.t_begin, s.t_end)
            for node in range(s.num_nodes):
                ids = s._pair_ids(node)
                adjacent = list(zip(s._u[ids].tolist(), s._v[ids].tolist()))
                assert adjacent == pairs_of(s, node) == pairs_of(rebuilt, node)
        assert len(streams[-1].links) < len(stream.links)


@st.composite
def grid_intervals(draw):
    """A grid of a non-dyadic or dyadic step from a random origin, and
    intervals whose ends lie anywhere, on a cell bound or one float step
    either side of it, where a division guesses the wrong cell."""
    step = draw(st.sampled_from([2.0, 0.7, 0.3, 0.1]))
    origin = draw(st.floats(-1e6, 1e6))
    bounds = st.integers(-50, 2000).map(lambda i: linkstream.grid_bound(origin, step, i))
    ends = st.one_of(st.floats(-40.0, 400.0).map(lambda x: origin + x), bounds,
                     st.tuples(bounds, st.sampled_from([-math.inf, math.inf]))
                     .map(lambda b: float(np.nextafter(*b))))
    spans = draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=20))
    return step, origin, np.array([min(span) for span in spans]), np.array([max(span) for span in spans])


class TestGridCut:
    @given(grid_intervals())
    @settings(max_examples=300, deadline=None)
    def test_pieces_tile_each_interval_within_its_cells(self, grid):
        step, origin, start, end = grid
        bound = lambda i: linkstream.grid_bound(origin, step, i)  # noqa: E731
        first, stop = linkstream.grid_cells(start, end, origin, step)
        at, cell, lo, hi = linkstream.grid_pieces(start, end, origin, step, (first, stop))
        for k in range(len(start)):
            mine = at == k
            c, a, b = cell[mine], lo[mine], hi[mine]
            if end[k] == start[k]:
                assert not mine.any()
                continue
            # the cells met are exactly those from the one holding start to
            # the one holding the instant before end
            assert bound(first[k]) <= start[k] < bound(first[k] + 1)
            assert bound(stop[k] - 1) < end[k] <= bound(stop[k])
            assert c.tolist() == list(range(first[k], stop[k]))
            # the pieces chain, and each lies in its own cell
            assert (a[1:] == b[:-1]).all()
            assert a[0] == max(start[k], bound(c[0])) == start[k]
            assert b[-1] == min(end[k], bound(c[-1] + 1)) == end[k]
            assert ((bound(c) <= a) & (b <= bound(c + 1))).all()
            # consecutive cells share their bound
            assert (bound(c[1:]) == bound(c[:-1] + 1)).all()


def reference_mean_degree(stream: LinkStream) -> tuple[int, np.ndarray]:
    """The per-second loop the array pass replaced: each interval's overlap
    with every second it meets, added in pair order, then time order.
    Second i is ``[origin + i, origin + (i + 1))`` from the whole-second
    ``origin``, so consecutive seconds share their bound."""
    start = int(math.floor(stream.t_begin))
    origin = float(start)
    acc = np.zeros(max(int(math.ceil(stream.t_end)) - start, 0))
    for ivs in stream.links.values():
        for a, b in ivs:
            for i in range(int(math.floor(a)) - start, int(math.ceil(b)) - start):
                ov = min(b, origin + (i + 1)) - max(a, origin + i)
                if ov > 0:
                    acc[i] += 2.0 * ov
    return start, acc / stream.num_nodes


@st.composite
def timed_streams(draw):
    """Streams whose windows start and end on whole seconds (delta 1 on
    half-second times), on thirds of a second, or anywhere (delta 0.3)."""
    n_nodes = draw(st.integers(2, 7))
    scale, delta = draw(st.sampled_from([(2.0, 1.0), (3.0, 2.0), (7.0, 0.3)]))
    rows = draw(st.lists(st.tuples(st.integers(-20, 90), st.integers(0, n_nodes - 1),
                                   st.integers(0, n_nodes - 2)), min_size=1, max_size=50))
    triplets = [Triplet(t / scale, u, v + (v >= u)) for t, u, v in rows]
    return build_stream(triplets, [f"n{i}" for i in range(n_nodes)], delta)


@given(timed_streams(), st.data())
@settings(max_examples=80, deadline=None)
def test_one_cut_equals_many(stream, data):
    # cuts of the stream's nodes inside its span, on its interval ends or
    # anywhere, removed one at a time or all at once
    ends = [t for ivs in stream.links.values() for pt in ivs for t in pt]
    times = st.one_of(st.floats(stream.t_begin, stream.t_end), st.sampled_from(ends or [stream.t_begin]))
    cut = st.tuples(st.integers(0, stream.num_nodes - 1), st.lists(times, min_size=2, max_size=2))
    victims = [(n, tuple(sorted(ts))) for n, ts in data.draw(st.lists(cut, max_size=8))]
    stepped = stream
    for victim in victims:
        stepped = stepped.remove_interactions([victim])
    at_once, one_by_one = io.BytesIO(), io.BytesIO()
    stream.remove_interactions(victims).save(at_once)
    stepped.save(one_by_one)
    assert at_once.getvalue() == one_by_one.getvalue()


class TestMeanDegree:
    @given(timed_streams(), victim_lists)
    @settings(max_examples=80, deadline=None)
    def test_matches_per_second_loop_on_derived_streams(self, stream, removals):
        for victims in [[]] + removals:
            stream = stream.remove_interactions(
                [(node, (start / 2.0, (start + width) / 2.0)) for node, start, width in victims]
            )
            start, values = reference_mean_degree(stream)
            series = stream.mean_degree_per_second()
            assert series.start_second == start
            assert series.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("origin", [0.0, 1e19, -1e19])
    def test_matches_per_second_loop_beyond_int64_seconds(self, origin):
        # 2048 apart is one float step at 1e19, so most second bounds there
        # round onto one another and a few seconds hold all the link measure
        pairs = {("a", "b"): [(origin, origin + 4096.0)],
                 ("b", "c"): [(origin + 2048.0, origin + 8192.0)]}
        stream = from_pair_intervals(["a", "b", "c"], pairs)
        start, values = reference_mean_degree(stream)
        series = stream.mean_degree_per_second()
        assert series.start_second == start
        assert series.values.tobytes() == values.tobytes()
        # the series conserves link measure: every link-second lies in some second
        assert stream.total_link_seconds() == 10240.0
        assert series.values.sum() * stream.num_nodes / 2 == pytest.approx(10240.0, rel=1e-12)

    def test_single_link_single_second(self):
        stream = from_pair_intervals(["a", "b"], {("a", "b"): [(0.0, 1.0)]})
        series = stream.mean_degree_per_second()
        assert series.start_second == 0
        assert series.values.tolist() == [1.0]

    def test_reference_values_match_fine_grid_oracle(self):
        # frozen from a 1e-4-step integration of the reference stream
        expected = [1 / 3, 2 / 3, 0.0, 0.8, 2 / 3, 13 / 15, 1 / 3]
        series = ref_stream().mean_degree_per_second()
        assert series.start_second == 0
        assert len(series.values) == 7
        for got, want in zip(series.values, expected):
            assert got == pytest.approx(want, abs=1e-3)

    def test_total_link_seconds_adds_left_to_right(self):
        pairs = {("a", "b"): [(0.0, 1.0)], ("a", "c"): [(0.0, 2**-53)], ("b", "c"): [(0.0, 2**-53)]}
        stream = from_pair_intervals(["a", "b", "c"], pairs)
        assert stream.total_link_seconds() == 1.0

    def test_total_equals_twice_link_seconds_over_nodes(self):
        rng = np.random.default_rng(9)
        stream = random_stream(rng)
        series = stream.mean_degree_per_second()
        assert series.values.sum() * stream.num_nodes == pytest.approx(
            2.0 * stream.total_link_seconds(), rel=1e-12
        )

    def test_doubling_symmetry(self):
        # a disjoint copy of the node set doubles link seconds but also the
        # node count: the per-second series is unchanged
        pairs = {("a", "b"): [(0.25, 3.5)], ("b", "c"): [(1.0, 2.0)]}
        copy = {("a2", "b2"): [(0.25, 3.5)], ("b2", "c2"): [(1.0, 2.0)]}
        base = from_pair_intervals(["a", "b", "c"], pairs)
        doubled = from_pair_intervals(
            ["a", "b", "c", "a2", "b2", "c2"], pairs | copy
        )
        np.testing.assert_allclose(
            base.mean_degree_per_second().values,
            doubled.mean_degree_per_second().values,
        )

    def test_empty_node_set_rejected(self):
        stream = build_stream([], [], 1.0)
        with pytest.raises(ValueError):
            stream.mean_degree_per_second()


class TestNormalize:
    def test_pointwise_arithmetic(self):
        # node a has degree 4 while the second's mean degree is 2.0, so its
        # normalized degree is exactly 2.0
        pairs = {("a", f"p{i}"): [(10.0, 11.0)] for i in range(4)}
        pairs[("p0", "p1")] = [(10.0, 11.0)]
        stream = from_pair_intervals(["a", "p0", "p1", "p2", "p3"], pairs)
        series = stream.mean_degree_per_second()
        assert value_at(stream.degree_profile(0), 10.3) == 4
        assert series.values[10 - series.start_second] == pytest.approx(2.0)
        (_, start, end, value), = segment_rows(stream, [0], 10.3, 10.3, series)
        assert (start, end) == (10.0, 11.0)
        assert value == pytest.approx(2.0)

    def test_zero_mean_second_maps_to_zero(self):
        stream = from_pair_intervals(
            ["a", "b"], {("a", "b"): [(0.0, 1.0)]}, t_begin=0.0, t_end=5.0
        )
        series = stream.mean_degree_per_second()
        assert series.values.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        # only the first second holds a segment; the others have value 0
        assert segment_rows(stream, [0], series=series) == [(0, 0.0, 1.0, 1.0)]
        assert segment_rows(stream, [0], 3.5, 3.5, series) == []

    def test_constant_rate_is_pure_rescaling(self):
        stream = from_pair_intervals(
            ["a", "b", "c"],
            {("a", "b"): [(0.0, 4.0)], ("a", "c"): [(0.0, 4.0)]},
        )
        segs = segment_rows(stream, [0], series=stream.mean_degree_per_second())
        values = {v for _, _, _, v in segs}
        assert len(values) == 1  # constant stream -> constant normalized value


class TestBinaryCache:
    def test_round_trip(self):
        stream = ref_stream()
        buf = io.BytesIO()
        stream.save(buf)
        buf.seek(0)
        again = LinkStream.load(buf)
        assert again.node_names == stream.node_names
        assert again.links == stream.links
        assert again.delta == stream.delta
        assert (again.t_begin, again.t_end) == (stream.t_begin, stream.t_end)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            LinkStream.load(io.BytesIO(b"nope" + b"\x00" * 100))

    def test_serialization_is_deterministic(self):
        stream = ref_stream()
        a, b = io.BytesIO(), io.BytesIO()
        stream.save(a)
        stream.save(b)
        assert a.getvalue() == b.getvalue()


def reference_save(stream: LinkStream, out) -> None:
    """The record-by-record ``struct`` writer the array writer replaced."""
    out.write(LinkStream.MAGIC)
    out.write(struct.pack("<H", LinkStream.VERSION))
    out.write(struct.pack("<ddd", stream.delta, stream.t_begin, stream.t_end))
    out.write(struct.pack("<Q", stream.num_nodes))
    for name in stream.node_names:
        raw = name.encode("utf-8")
        out.write(struct.pack("<H", len(raw)))
        out.write(raw)
    keys = sorted(stream.links)
    out.write(struct.pack("<Q", len(keys)))
    for key in keys:
        ivs = stream.links[key]
        out.write(struct.pack("<QQQ", key[0], key[1], len(ivs)))
        for s, e in ivs:
            out.write(struct.pack("<dd", s, e))


def reference_load(src) -> tuple:
    """The record-by-record ``struct`` reader the array reader replaced;
    returns what a loaded stream exposes."""
    if src.read(4) != LinkStream.MAGIC:
        raise ValueError("not a link-stream cache file")
    (version,) = struct.unpack("<H", src.read(2))
    if version != LinkStream.VERSION:
        raise ValueError(f"unsupported cache version {version}")
    delta, t_begin, t_end = struct.unpack("<ddd", src.read(24))
    (n_nodes,) = struct.unpack("<Q", src.read(8))
    names = []
    for _ in range(n_nodes):
        (ln,) = struct.unpack("<H", src.read(2))
        names.append(src.read(ln).decode("utf-8"))
    (n_pairs,) = struct.unpack("<Q", src.read(8))
    links = {}
    for _ in range(n_pairs):
        u, v, n_iv = struct.unpack("<QQQ", src.read(24))
        ivs = []
        for _ in range(n_iv):
            ivs.append(struct.unpack("<dd", src.read(16)))
        links[(u, v)] = ivs
    return names, list(links.items()), delta, t_begin, t_end


def exposed(stream: LinkStream) -> tuple:
    return (stream.node_names, list(stream.links.items()), stream.delta,
            stream.t_begin, stream.t_end)


def saved(stream: LinkStream, writer=None) -> bytes:
    buf = io.BytesIO()
    (writer or LinkStream.save)(stream, buf)
    return buf.getvalue()


def load_outcome(loader, blob: bytes):
    """What ``loader`` makes of ``blob``: its result, or "rejected"."""
    try:
        result = loader(io.BytesIO(blob))
    except (struct.error, ValueError):
        return "rejected"
    return exposed(result) if isinstance(result, LinkStream) else result


def small_cache_blob() -> bytes:
    # a two-byte UTF-8 name, an empty pair and a pair with two intervals
    stream = stream_of(
        ["a", "b\u00e9", "c"], {(0, 2): [(0.5, 2.0), (3.0, 4.0)], (0, 1): [], (1, 2): [(1.0, 1.5)]},
        1.0, 0.5, 4.0,
    )
    return saved(stream)


# A cache of nodes a, b and c as ``save`` writes it, and single faults in it
# that ``save`` never writes: each replaces one argument of ``raw_cache``.
GOOD_RECORDS = [(0, 1, [(0.0, 6.0), (7.0, 8.0)]), (0, 2, []), (1, 2, [(2.0, 3.0)])]
BAD_CACHES = {
    "zero delta": {"delta": 0.0},
    "negative delta": {"delta": -1.0},
    "NaN delta": {"delta": math.nan},
    "infinite delta": {"delta": math.inf},
    "infinite t_end": {"t_end": math.inf},
    "NaN t_end": {"t_end": math.nan},
    "infinite t_begin": {"t_begin": -math.inf},
    "t_begin above t_end": {"t_begin": 10.5},
    "repeated name": {"names": "aac"},
    "empty name": {"names": ["", "b", "c"]},
    "name with whitespace": {"names": ["a b", "b", "c"]},
    "self pair": {"records": [(1, 1, [(0.0, 1.0)])]},
    "reversed pair": {"records": [(1, 0, [(0.0, 1.0)])]},
    "duplicate pair": {"records": [(0, 1, [(0.0, 1.0)]), (0, 1, [(2.0, 3.0)])]},
    "descending u": {"records": [(1, 2, []), (0, 2, [])]},
    "descending v": {"records": [(0, 2, []), (0, 1, [])]},
    "inverted interval": {"records": [(0, 1, [(5.0, 3.0)])]},
    "empty interval": {"records": [(0, 1, [(3.0, 3.0)])]},
    "NaN start": {"records": [(0, 1, [(math.nan, 3.0)])]},
    "infinite end": {"records": [(0, 1, [(0.0, math.inf)])]},
    "start before t_begin": {"records": [(0, 1, [(-1.0, 1.0)])]},
    "end after t_end": {"records": [(0, 1, [(9.0, 11.0)])]},
    "overlapping intervals": {"records": [(0, 1, [(0.0, 6.0), (2.0, 8.0)])]},
    "touching intervals": {"records": [(0, 1, [(0.0, 2.0), (2.0, 8.0)])]},
    "descending intervals": {"records": [(0, 1, [(7.0, 8.0), (0.0, 6.0)])]},
}


def raw_cache(records=GOOD_RECORDS, delta=1.0, t_begin=0.0, t_end=10.0, names="abc") -> bytes:
    """A cache of three ``names`` holding ``records`` of ``(u, v, intervals)``."""
    out = [LinkStream.MAGIC, struct.pack("<HdddQ", LinkStream.VERSION, delta, t_begin, t_end, 3)]
    out += [struct.pack("<H", len(name.encode())) + name.encode() for name in names]
    out.append(struct.pack("<Q", len(records)))
    for u, v, ivs in records:
        out.append(struct.pack("<QQQ", u, v, len(ivs)))
        out += [struct.pack("<dd", s, e) for s, e in ivs]
    return b"".join(out)


class TestArrayCache:
    """The array cache reader and writer against the struct reference."""

    @given(st.one_of(small_streams(), timed_streams()), victim_lists)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_keeps_pair_order_and_sums(self, stream, removals):
        for victims in [[]] + removals:
            stream = stream.remove_interactions(
                [(node, (start / 2.0, (start + width) / 2.0)) for node, start, width in victims]
            )
            loaded = LinkStream.load(io.BytesIO(saved(stream)))
            assert list(loaded.links.items()) == list(stream.links.items())
            assert repr(loaded.total_link_seconds()) == repr(stream.total_link_seconds())
            got, want = loaded.mean_degree_per_second(), stream.mean_degree_per_second()
            assert got.start_second == want.start_second
            assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("fault", BAD_CACHES.values(), ids=list(BAD_CACHES))
    def test_records_save_never_writes_rejected(self, tmp_path, capsys, fault):
        good = LinkStream.load(io.BytesIO(raw_cache()))
        assert good.links == {(0, 1): [(0.0, 6.0), (7.0, 8.0)], (0, 2): [], (1, 2): [(2.0, 3.0)]}
        bad = raw_cache(**fault)
        with pytest.raises(ValueError):
            LinkStream.load(io.BytesIO(bad))
        cache = tmp_path / "bad.bin"
        cache.write_bytes(bad)
        rc = main(["identify", "--trace", str(cache), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "bad stream cache" in capsys.readouterr().err

    @given(small_streams(), victim_lists)
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_and_streams_as_reference(self, stream, removals):
        for victims in [[]] + removals:
            stream = stream.remove_interactions(
                [(node, (start / 2.0, (start + width) / 2.0)) for node, start, width in victims]
            )
            blob = saved(stream)
            assert blob == saved(stream, reference_save)
            loaded = LinkStream.load(io.BytesIO(blob))
            assert exposed(loaded) == reference_load(io.BytesIO(blob))
            assert saved(loaded) == blob
            assert_profiles_match_reference(loaded)

    def test_every_cut_rejected_as_by_reference(self, tmp_path, capsys):
        blob = small_cache_blob()
        assert load_outcome(LinkStream.load, blob) == load_outcome(reference_load, blob)
        cache = tmp_path / "cut.bin"
        for cut in range(len(blob)):
            assert load_outcome(LinkStream.load, blob[:cut]) == "rejected", cut
            assert load_outcome(reference_load, blob[:cut]) == "rejected", cut
            cache.write_bytes(blob[:cut])
            rc = main(["identify", "--trace", str(cache), "--output-dir", str(tmp_path / "out")])
            assert rc == 2, cut
            assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tail", [b"\x00", b"junk", b"\xff" * 8, b"\x00" * 24])
    def test_trailing_bytes_ignored_as_by_reference(self, tail):
        blob = small_cache_blob()
        got = load_outcome(LinkStream.load, blob + tail)
        assert got == load_outcome(reference_load, blob + tail)
        assert got == load_outcome(LinkStream.load, blob)

    @pytest.mark.parametrize("field", ["nodes", "pairs", "intervals"])
    @pytest.mark.parametrize("count", [2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1])
    def test_huge_counts_rejected_without_allocating(self, tmp_path, capsys, field, count):
        blob = small_cache_blob()
        names_end = 4 + 2 + 24 + 8 + sum(2 + len(n.encode()) for n in ["a", "b\u00e9", "c"])
        at = {"nodes": 4 + 2 + 24, "pairs": names_end, "intervals": names_end + 8 + 16}[field]
        bad = blob[:at] + struct.pack("<Q", count) + blob[at + 8:]
        assert load_outcome(reference_load, bad) == "rejected"
        tracemalloc.start()
        try:
            assert load_outcome(LinkStream.load, bad) == "rejected"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        cache = tmp_path / "huge.bin"
        cache.write_bytes(bad)
        rc = main(["identify", "--trace", str(cache), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "bad stream cache" in capsys.readouterr().err
