import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamdeg.linkstream import LinkStream, UnknownNodeError, build_stream, normalize_degrees
from streamdeg.trace_io import Triplet, parse_trace

# The worked reference stream used throughout: pair presence intervals
# ab: [0.5,2) u [5.5,6.5) / ac: [3,4) / bc: [3.8,5.8), three nodes.
REF_PAIRS = {
    ("a", "b"): [(0.5, 2.0), (5.5, 6.5)],
    ("a", "c"): [(3.0, 4.0)],
    ("b", "c"): [(3.8, 5.8)],
}


def ref_stream() -> LinkStream:
    return LinkStream.from_pair_intervals(["a", "b", "c"], REF_PAIRS, delta=1.0)


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
    for key in stream.pairs_of(node):
        for s, e in stream.links[key]:
            if s <= t < e:
                count += 1
                break
    return count


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

    def test_bounds_cover_intervals(self):
        stream = ref_stream()
        assert stream.t_begin == 0.5
        assert stream.t_end == 6.5


class TestDegreeProfile:
    def test_reference_profile_of_b(self):
        prof = ref_stream().degree_profile(1)
        assert list(prof.segments()) == [
            (0.5, 2.0, 1),
            (2.0, 3.8, 0),
            (3.8, 5.5, 1),
            (5.5, 5.8, 2),
            (5.8, 6.5, 1),
        ]
        assert prof.value_at(0.0) == 0
        assert prof.value_at(5.6) == 2
        assert prof.value_at(6.5) == 0  # half-open at the end

    def test_isolated_node_is_constant_zero(self):
        stream = LinkStream.from_pair_intervals(["a", "b", "c", "x"], REF_PAIRS)
        prof = stream.degree_profile(3)
        assert prof.breakpoints == []
        assert prof.value_at(3.0) == 0

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
                assert prof.value_at(t) == brute_force_degree(stream, node, t)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_profile_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, n_nodes=6, n_triplets=40)
        node = int(rng.integers(0, 6))
        prof = stream.degree_profile(node)
        for t in rng.uniform(-1, 52, size=200):
            assert prof.value_at(t) == brute_force_degree(stream, node, t)


    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_windowed_segments(self, seed):
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, n_nodes=6, n_triplets=40)
        # window edges on breakpoints and whole seconds as well as between them
        edges = stream.degree_profile(0).breakpoints + list(rng.uniform(-2.0, 53.0, 10))
        edges += [float(t) for t in rng.integers(-2, 53, 5)]
        for view in (stream, normalize_degrees(stream, stream.mean_degree_per_second())):
            segs = list(view.segments(0))
            for t0, t1 in rng.choice(edges, size=(20, 2)):
                windowed = [s for s in segs if s[1] > t0 and s[0] < t1]
                assert list(view.segments(0, t0, t1)) == windowed


class TestRemoval:
    def test_remove_node_b_everywhere(self):
        stream = ref_stream()
        out = stream.remove_interactions([(1, (0.0, 10.0))])
        assert (0, 1) not in out.links
        assert (1, 2) not in out.links
        assert out.links[(0, 2)] == [(3.0, 4.0)]
        # original untouched (persistence)
        assert stream.links[(0, 1)] == [(0.5, 2.0), (5.5, 6.5)]

    def test_remove_isolated_node_is_noop(self):
        stream = LinkStream.from_pair_intervals(["a", "b", "c", "x"], REF_PAIRS)
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
        assert list(out.degree_profile(0).segments()) == list(stream.degree_profile(0).segments())

    def test_removal_monotone(self):
        rng = np.random.default_rng(11)
        stream = random_stream(rng)
        victims = [(3, (5.0, 20.0)), (7, (0.0, 10.0))]
        out = stream.remove_interactions(victims)
        for node in range(stream.num_nodes):
            before = stream.degree_profile(node)
            after = out.degree_profile(node)
            for t in rng.uniform(0, 50, size=200):
                assert after.value_at(t) <= before.value_at(t)

    def test_shared_pair_lists_for_untouched_pairs(self):
        stream = ref_stream()
        out = stream.remove_interactions([(1, (0.0, 1.0))])
        assert out.links[(0, 2)] is stream.links[(0, 2)]

    def test_adjacency_follows_deleted_pairs(self):
        rng = np.random.default_rng(5)
        stream = random_stream(rng)
        streams = [stream]
        for node in range(0, stream.num_nodes, 3):
            streams.append(streams[-1].remove_interactions([(node, (0.0, 60.0))]))
        for s in streams:
            rebuilt = LinkStream(s.node_names, s.links, s.delta, s.t_begin, s.t_end)
            for node in range(s.num_nodes):
                assert s.pairs_of(node) == rebuilt.pairs_of(node)
        assert len(streams[-1].links) < len(stream.links)


class TestMeanDegree:
    def test_single_link_single_second(self):
        stream = LinkStream.from_pair_intervals(["a", "b"], {("a", "b"): [(0.0, 1.0)]})
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
        base = LinkStream.from_pair_intervals(["a", "b", "c"], pairs)
        doubled = LinkStream.from_pair_intervals(
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
        stream = LinkStream.from_pair_intervals(["a", "p0", "p1", "p2", "p3"], pairs)
        series = stream.mean_degree_per_second()
        view = normalize_degrees(stream, series)
        assert stream.degree_profile(0).value_at(10.3) == 4
        assert series.value_at(10.3) == pytest.approx(2.0)
        assert view.value_at(0, 10.3) == pytest.approx(2.0)

    def test_zero_mean_second_maps_to_zero(self):
        stream = LinkStream.from_pair_intervals(
            ["a", "b"], {("a", "b"): [(0.0, 1.0)]}, t_begin=0.0, t_end=5.0
        )
        view = normalize_degrees(stream, stream.mean_degree_per_second())
        assert view.value_at(0, 3.5) == 0.0

    def test_constant_rate_is_pure_rescaling(self):
        stream = LinkStream.from_pair_intervals(
            ["a", "b", "c"],
            {("a", "b"): [(0.0, 4.0)], ("a", "c"): [(0.0, 4.0)]},
        )
        view = normalize_degrees(stream, stream.mean_degree_per_second())
        segs = list(view.segments(0))
        values = {v for _, _, v in segs}
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
