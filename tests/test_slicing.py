import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamdeg.linkstream import build_stream, degree_segments, grid_bound
from streamdeg.slicing import (
    LatticeError,
    SchemeRangeError,
    TimeSliceGrid,
    _lattice,
    build_class_scheme,
    build_normalized_scheme,
    build_scheme,
    fraction_matrix,
    ks_similarity_report,
    slice_value_measures,
)
from streamdeg.robust_stats import ks_two_sample
from streamdeg.trace_io import ScenarioSpec, ScanInjection, generate_synthetic

from streams import from_pair_intervals
from test_linkstream import REF_PAIRS, random_stream, ref_stream


class TestGrid:
    def test_bounds(self):
        grid = TimeSliceGrid(0.0, 2.0, 5)
        assert grid.bounds(0) == (0.0, 2.0)
        assert grid.bounds(4) == (8.0, 10.0)
        assert grid.end == 10.0

    def test_covering_drops_partial_slice(self):
        grid = TimeSliceGrid.covering(0.0, 3600.0, 7.0)
        assert grid.count == 514

    def test_covering_exact_division_with_inexact_tau(self):
        # the last bound, 3000 * 0.2 and 6000 * 0.1, rounds to 600.0, so it counts
        assert TimeSliceGrid.covering(0.0, 600.0, 0.2).count == 3000
        assert TimeSliceGrid.covering(0.0, 600.0, 0.1).count == 6000

    @given(st.floats(-1e6, 1e6), st.floats(0.0, 1e4),
           st.one_of(st.floats(1e-3, 1e3), st.floats(1e-20, 1e-12)))
    # 27.5 / 1.1 is just below 25 in floats, and bound 25 is 27.500000000000004
    @example(0.0, 27.5, 1.1)
    @example(0.0, 600.0, 0.2)
    # near the float spacing of the bounds hundreds of counts share each
    # bound; the division's guess ends past 2.5 and one step down does not move
    @example(-1.0, 3.5, 1e-18)
    @example(1e6, 0.0, 1e-18)
    @settings(max_examples=300, deadline=None)
    def test_covering_ends_in_the_span_with_the_most_slices(self, t_begin, span, tau):
        t_end = t_begin + span
        grid = TimeSliceGrid.covering(t_begin, t_end, tau)
        assert grid.end <= t_end < grid_bound(grid.origin, tau, grid.count + 1)

    def test_covering_aligns_to_seconds(self):
        grid = TimeSliceGrid.covering(-0.5, 10.0, 2.0)
        assert grid.origin == -1.0
        assert grid.count == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeSliceGrid(0.0, 0.0, 3)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_tau_not_finite(self, tau):
        # an infinite tau used to cover any span with 0 slices
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            TimeSliceGrid(0.0, tau, 1)
        with pytest.raises(ValueError):
            TimeSliceGrid.covering(0.0, 10.0, tau)


class TestClassScheme:
    def test_small_classes(self):
        scheme = build_class_scheme(400, 0.1)
        got = [(c.k_lo, c.k_hi) for c in scheme.classes[:4]]
        assert got == [(1, 1), (2, 2), (3, 3), (4, 5)]

    def test_class_19(self):
        scheme = build_class_scheme(400, 0.1)
        c19 = scheme.classes[18]
        assert (c19.k_lo, c19.k_hi) == (126, 158)

    def test_41_classes_up_to_25118(self):
        scheme = build_class_scheme(25118, 0.1)
        assert len(scheme) == 41
        last = scheme.classes[-1]
        assert (last.index, last.k_lo, last.k_hi) == (41, 19953, 25118)

    def test_43_classes_up_to_39810(self):
        scheme = build_class_scheme(39810, 0.1)
        assert len(scheme) == 43
        last = scheme.classes[-1]
        assert (last.k_lo, last.k_hi) == (31623, 39810)

    def test_degenerate_single_class(self):
        scheme = build_class_scheme(1000, 10.0)
        assert len(scheme) == 1
        assert (scheme.classes[0].k_lo, scheme.classes[0].k_hi) == (1, 1000)

    @pytest.mark.parametrize("k_max,r", [(2, 400.0), (1, 1e10)])
    def test_ratio_past_the_floats(self, k_max, r):
        with pytest.raises(LatticeError, match=re.escape(f"r {r:g} leaves no lattice")):
            build_class_scheme(k_max, r)
        with pytest.raises(LatticeError, match=re.escape(f"r {r:g} leaves no lattice")):
            build_normalized_scheme(k_max, r, min_value=0.5)

    @pytest.mark.parametrize("k_max,r", [(2, 1e-12), (1, 1e-300), (1000, 1e-5)])
    def test_ratio_finer_than_the_integers(self, k_max, r):
        # raw: every degree is its own class, as the bucket walk of 1e-5 finds; normalized:
        # each bucket is a class, and 0.5 to k_max spans 3e5 buckets or more, or coinciding edges
        assert build_class_scheme(k_max, r).edges.tolist() == list(range(1, k_max + 2))
        with pytest.raises(LatticeError, match=re.escape(f"r {r:g} leaves no lattice")):
            build_normalized_scheme(k_max, r, min_value=0.5)

    @pytest.mark.parametrize("k_max", [1, 2, 7, 100, 999, 2500])
    def test_one_class_per_degree_is_the_bucket_walk(self, k_max):
        # on both sides of r = log10(1 + 0.5 / (k_max + 1)), where the walk is skipped
        threshold = math.log10(1 + 0.5 / (k_max + 1))
        for r in (threshold * 0.5, threshold * 0.999, threshold * 1.001, threshold * 1.5, threshold * 3):
            walk = np.unique(np.minimum(np.ceil(_lattice(1, k_max, r)), k_max + 1))
            assert build_class_scheme(k_max, r).edges.tobytes() == walk.tobytes()

    def test_widest_ratio_the_floats_hold(self):
        assert build_class_scheme(1000, 300.0).edges.tolist() == [1.0, 1001.0]
        assert build_normalized_scheme(2.0, 150.0, min_value=0.5).edges.tolist() == [1e-150, 1.0, 1e150]

    def test_class_of_roundtrip(self):
        scheme = build_class_scheme(5000, 0.1)
        for c in scheme.classes:
            assert scheme.class_of(c.k_lo) == c.index
            assert scheme.class_of(c.k_hi) == c.index
        assert scheme.class_of(0) == 0

    def test_out_of_range(self):
        scheme = build_class_scheme(100, 0.1)
        with pytest.raises(SchemeRangeError):
            scheme.class_of(101)

    @given(
        st.integers(1, 3000),
        st.floats(0.01, 3.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, k_max, r):
        scheme = build_class_scheme(k_max, r)
        covered = []
        for c in scheme.classes:
            assert c.k_lo <= c.k_hi
            covered.extend(range(c.k_lo, c.k_hi + 1))
        assert covered == list(range(1, k_max + 1))
        assert [c.index for c in scheme.classes] == list(range(1, len(scheme) + 1))

    def test_partition_exhaustive_to_1e6(self):
        # every degree maps into exactly one class, checked against a direct
        # vectorized bucket computation over the full range
        k_max = 10**6
        scheme = build_class_scheme(k_max, 0.1)
        edges = np.array([c.k_lo for c in scheme.classes] + [k_max + 1])
        ks = np.arange(1, k_max + 1)
        via_scheme = np.searchsorted(edges, ks, side="right")
        buckets = np.floor(10 * np.log10(ks.astype(float)) + 1e-9).astype(int)
        # consecutive re-indexing of the non-empty buckets
        uniq = np.unique(buckets)
        remap = {b: i + 1 for i, b in enumerate(uniq)}
        via_buckets = np.array([remap[b] for b in buckets])
        assert (via_scheme == via_buckets).all()
        hi = np.array([c.k_hi for c in scheme.classes])
        lo = np.array([c.k_lo for c in scheme.classes])
        assert (lo[1:] == hi[:-1] + 1).all()


class TestNormalizedScheme:
    def test_bins_cover_range(self):
        scheme = build_normalized_scheme(50.0, 0.1, min_value=0.01)
        assert scheme.class_of(0.01) >= 1
        assert scheme.class_of(50.0) == len(scheme)
        assert scheme.class_of(0.0) == 0

    def test_log_width(self):
        scheme = build_normalized_scheme(10.0, 0.5, min_value=0.1)
        for c in scheme.classes:
            assert math.log10(c.k_hi) - math.log10(c.k_lo) == pytest.approx(0.5)

    @pytest.mark.parametrize("r", [0.0, -0.1])
    def test_non_positive_ratio_rejected(self, r):
        with pytest.raises(ValueError):
            build_normalized_scheme(50.0, r, min_value=0.01)
        with pytest.raises(ValueError):
            build_class_scheme(50, r)

    @pytest.mark.parametrize("b", [-12, -1, 0, 3, 10, 30])
    def test_values_next_to_an_edge_stay_covered(self, b):
        # log10 of a value an ulp below an edge can round onto the edge; the
        # first and last classes must still hold the anchor and the maximum
        edge = 10.0 ** (b * 0.1)
        for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
            scheme = build_normalized_scheme(2000.0, 0.1, min_value=x)
            assert scheme.edges[0] <= x < scheme.edges[1]
            assert scheme.class_of(x) == 1
            top = build_normalized_scheme(x, 0.1, min_value=1e-3)
            assert top.class_of(x) == len(top)

    def test_build_scheme_starts_at_smallest_degree(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            stream = random_stream(rng, n_nodes=12, n_triplets=150)
            scheme, view = build_scheme(stream, 0.1, normalized=True)
            anchor = 1.0 / stream.mean_degree_per_second().values.max()
            assert scheme.edges[0] <= anchor < scheme.edges[1]
            values = degree_segments(stream, series=view.series).value
            assert (scheme.class_of(values) >= 1).all()


class TestFractionMatrix:
    def test_reference_first_slice(self):
        # degree-1 measure in [0,2) is 1.5 (a) + 1.5 (b) = 3.0 of 2*3 couple-seconds
        stream = from_pair_intervals(
            ["a", "b", "c"], REF_PAIRS, t_begin=0.0, t_end=7.0
        )
        grid = TimeSliceGrid(0.0, 2.0, 3)
        scheme = build_class_scheme(2, 0.1)
        matrix = fraction_matrix(stream, grid, scheme)
        assert matrix.fractions[0, 0] == pytest.approx(0.5)
        assert matrix.zero[0] == pytest.approx(0.5)

    def test_empty_stream_rows(self):
        stream = from_pair_intervals(["a", "b"], {}, t_begin=0.0, t_end=4.0)
        grid = TimeSliceGrid(0.0, 2.0, 2)
        matrix = fraction_matrix(stream, grid, build_class_scheme(1, 0.1))
        assert (matrix.fractions == 0).all()
        assert (matrix.zero == 1.0).all()

    def test_row_sums_equal_one(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            stream = random_stream(rng, n_nodes=12, n_triplets=150)
            grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, 2.0)
            scheme = build_class_scheme(max(stream.max_degree(), 1), 0.1)
            matrix = fraction_matrix(stream, grid, scheme)
            np.testing.assert_allclose(matrix.row_sums(), 1.0, rtol=0, atol=1e-12)

    def test_scheme_too_small_rejected(self):
        stream = ref_stream()
        grid = TimeSliceGrid(0.0, 2.0, 3)
        with pytest.raises(SchemeRangeError):
            fraction_matrix(stream, grid, build_class_scheme(1, 0.1))

    def test_monotone_nesting(self):
        # halving tau and averaging adjacent slice pairs reproduces the coarse matrix
        rng = np.random.default_rng(8)
        stream = random_stream(rng, n_nodes=10, n_triplets=120)
        scheme = build_class_scheme(max(stream.max_degree(), 1), 0.1)
        origin = math.floor(stream.t_begin)
        coarse = fraction_matrix(stream, TimeSliceGrid(origin, 4.0, 10), scheme)
        fine = fraction_matrix(stream, TimeSliceGrid(origin, 2.0, 20), scheme)
        merged = 0.5 * (fine.fractions[0::2] + fine.fractions[1::2])
        np.testing.assert_allclose(merged, coarse.fractions, rtol=0, atol=1e-12)

    def test_csv_and_sidecar(self):
        stream = ref_stream()
        grid = TimeSliceGrid(0.0, 2.0, 3)
        scheme = build_class_scheme(2, 0.1)
        matrix = fraction_matrix(stream, grid, scheme)
        csv_buf = io.StringIO()
        matrix.write_csv(csv_buf)
        lines = csv_buf.getvalue().strip().splitlines()
        assert lines[0] == "slice,class,fraction"
        assert len(lines) == 1 + 3 * (len(scheme) + 1)
        meta_buf = io.StringIO()
        matrix.write_sidecar(meta_buf)
        meta = json.loads(meta_buf.getvalue())
        assert meta["ratio"] == 0.1
        assert meta["grid"]["tau"] == 2.0


def reference_similarity(per_slice, alpha, size_mode, delta):
    """The per-pair computation the one-table report replaced: one
    ``ks_two_sample`` call per unordered pair of active slices."""
    active = [i for i, m in enumerate(per_slice) if m]
    dists = [(np.array(sorted(per_slice[i])), [per_slice[i][v] for v in sorted(per_slice[i])])
             for i in active]
    if size_mode == "support-extent":
        sizes = [max(1.0, float(values.max())) for values, _ in dists]
    else:
        sizes = [max(1.0, round(sum(per_slice[i].values()) / delta)) for i in active]
    ratios, pairs = [], []
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            d, c = ks_two_sample(dists[a], dists[b], sizes[a], sizes[b], alpha)
            ratios.append(d / c)
            pairs.append((active[a], active[b]))
    return np.array(ratios), pairs, [i for i, m in enumerate(per_slice) if not m]


# integer degrees, normalized degrees (floats, some below 1) and both mixed
similarity_keys = st.one_of(
    st.integers(1, 8), st.sampled_from([0.25, 0.8, 1.0 / 3.0, 1.5, 2.5, 7.75]),
    st.floats(0.01, 50.0),
)
slice_measures = st.lists(
    st.dictionaries(similarity_keys, st.floats(1e-3, 1e3), max_size=6), max_size=8
)


class TestSimilarityReportReference:
    @given(slice_measures, st.sampled_from(["support-extent", "observation-count"]),
           st.sampled_from([0.1, 0.05]), st.sampled_from([1.0, 0.3]))
    @example([{1: 2.0}, {}, {5: 1.0}, {0.5: 1.0, 9.0: 3.0}, {2.0: 1.0, 3.0: 1.0}],
             "support-extent", 0.1, 1.0)
    @example([{1: 1.0, 4: 1.0}, {2: 1.0, 3: 1.0}, {}], "observation-count", 0.1, 1.0)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pair_two_sample(self, per_slice, size_mode, alpha, delta):
        want_ratios, want_pairs, want_skipped = reference_similarity(
            per_slice, alpha, size_mode, delta)
        rep = ks_similarity_report(per_slice, alpha, size_mode, delta)
        assert rep.ratios.dtype == np.float64
        assert rep.ratios.tobytes() == want_ratios.tobytes()
        assert rep.pairs == want_pairs
        assert rep.skipped_slices == want_skipped


class TestSimilarityReport:
    def test_identical_slices_ratio_zero(self):
        dists = [{1.0: 3.0, 2.0: 1.0}, {1.0: 3.0, 2.0: 1.0}, {1.0: 3.0, 2.0: 1.0}]
        rep = ks_similarity_report(dists)
        assert (rep.ratios == 0).all()
        assert rep.fraction_above_one == 0.0

    def test_empty_slice_skipped(self):
        rep = ks_similarity_report([{1.0: 1.0}, {}, {1.0: 1.0}])
        assert rep.skipped_slices == [1]
        assert len(rep.pairs) == 1

    def test_same_generator_slices_mostly_similar(self):
        # two-sided sanity on the critical value: slices drawn from one
        # distribution should rarely exceed it at significance 0.1
        rng = np.random.default_rng(123)
        dists = []
        for _ in range(20):
            sample = rng.poisson(3.0, size=1000)
            sample = sample[sample >= 1]
            values, counts = np.unique(sample, return_counts=True)
            dists.append({float(v): float(c) for v, c in zip(values, counts)})
        rep = ks_similarity_report(dists, alpha=0.1)
        assert (rep.ratios < 1.0).mean() >= 0.9

    def test_scan_slice_stands_out(self):
        spec = ScenarioSpec(
            duration=60, background_nodes=40, background_degree=4,
            injections=[ScanInjection("sc", 2000, (30.0, 32.0))],
        )
        triplets, meta, _ = generate_synthetic(spec, seed=1)
        stream = build_stream(triplets, meta.node_names, 1.0)
        grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, 2.0)
        measures = slice_value_measures(stream, grid)
        rep = ks_similarity_report(measures)
        scan_slice = 15
        scan_ratios = [
            r for (a, b), r in zip(rep.pairs, rep.ratios) if scan_slice in (a, b)
        ]
        other_ratios = [
            r for (a, b), r in zip(rep.pairs, rep.ratios) if scan_slice not in (a, b)
        ]
        assert min(scan_ratios) > 1.0
        assert max(other_ratios) < 1.0


def test_similarity_sub_one_normalized_support():
    # normalized degree values can all sit below 1; the size clamps to 1
    rep = ks_similarity_report([{0.8: 1.0}, {0.9: 1.0}])
    assert len(rep.ratios) == 1


def test_similarity_observation_count_mode():
    dists = [{1.0: 30.0, 2.0: 10.0}, {1.0: 10.0, 2.0: 30.0}]
    by_extent = ks_similarity_report(dists, size_mode="support-extent")
    by_count = ks_similarity_report(dists, size_mode="observation-count", delta=1.0)
    # same distance, different critical value: counts (40) vs max degree (2)
    assert by_count.ratios[0] > by_extent.ratios[0]
    with pytest.raises(ValueError):
        ks_similarity_report(dists, size_mode="bogus")


def test_slice_value_measures_conserve_active_measure():
    stream = ref_stream()
    grid = TimeSliceGrid(0.0, 1.0, 7)
    measures = slice_value_measures(stream, grid)
    total = sum(m for acc in measures for m in acc.values())
    segs = degree_segments(stream)
    by_profile = float((segs.end - segs.start).sum())
    assert total == pytest.approx(by_profile, rel=1e-12)
