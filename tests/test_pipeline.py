import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamdeg import intervals as iv, pipeline
from streamdeg.linkstream import LinkStream, build_stream, normalize_degrees
from streamdeg.pipeline import (
    Event,
    PipelineParams,
    classify_classes,
    detect_events,
    event_statuses,
    identify_event,
    negative_outliers,
    run_identification,
    write_events_csv,
    write_removal_log,
)
from streamdeg.slicing import (
    ClassScheme,
    FractionMatrix,
    SchemeRangeError,
    TimeSliceGrid,
    build_class_scheme,
    build_normalized_scheme,
    build_scheme,
    fraction_matrix,
    slice_value_measures,
    update_rows,
)
from streamdeg.trace_io import (
    FanInInjection,
    ScanInjection,
    ScenarioSpec,
    SpikeInjection,
    Triplet,
    generate_synthetic,
)

from streams import from_pair_intervals, rebuilt
from test_linkstream import timed_streams


def matrix_from_columns(columns: dict[int, np.ndarray], n_classes: int, k_max: int = 1000):
    """Hand-built fraction matrix: unspecified classes are all-zero columns."""
    count = len(next(iter(columns.values())))
    fractions = np.zeros((count, n_classes))
    for j, col in columns.items():
        fractions[:, j - 1] = col
    zero = 1.0 - fractions.sum(axis=1)
    grid = TimeSliceGrid(0.0, 2.0, count)
    scheme = build_class_scheme(k_max, 0.1)
    return FractionMatrix(grid, scheme, fractions, zero, node_count=10)


class TestClassify:
    def test_mostly_zero_column_is_A(self):
        rng = np.random.default_rng(0)
        col = np.zeros(200)
        col[rng.choice(200, 20, replace=False)] = 1e-3  # 90% zeros
        matrix = matrix_from_columns({1: col}, 3)
        labels = classify_classes(matrix)
        assert labels[0].verdict == "A"

    def test_gaussian_column_is_AN(self):
        rng = np.random.default_rng(1)
        col = rng.normal(2.1e-3, 1e-4, 300).clip(min=1e-6)
        matrix = matrix_from_columns({2: col}, 3)
        labels = classify_classes(matrix)
        assert labels[1].verdict == "AN"
        assert labels[1].fit.mu == pytest.approx(2.1e-3, rel=0.05)

    def test_uniform_column_is_R(self):
        rng = np.random.default_rng(2)
        col = rng.uniform(0.001, 0.02, 300)
        matrix = matrix_from_columns({1: col}, 2)
        labels = classify_classes(matrix)
        assert labels[0].verdict == "R"

    def test_zero_majority_threshold(self):
        col = np.concatenate([np.zeros(60), np.full(40, 5e-3)])
        matrix = matrix_from_columns({1: col}, 1)
        assert classify_classes(matrix, zero_majority=0.5)[0].verdict == "A"
        assert classify_classes(matrix, zero_majority=0.7)[0].verdict != "A"


class TestDetect:
    def test_a_class_event_per_nonzero_slice(self):
        col = np.zeros(1000)
        col[315] = 1e-4
        col[700] = 3e-4
        matrix = matrix_from_columns({1: col}, 1)
        labels = classify_classes(matrix)
        events = detect_events(matrix, labels)
        assert [(e.class_index, e.slice_index) for e in events] == [(1, 315), (1, 700)]
        assert all(e.polarity == "nonzero-in-A" for e in events)

    def test_an_class_high_spike(self):
        rng = np.random.default_rng(3)
        col = rng.normal(2e-3, 1e-4, 400).clip(min=1e-6)
        col[123] = 2e-3 + 20 * 1e-4
        matrix = matrix_from_columns({1: col}, 1)
        labels = classify_classes(matrix)
        assert labels[0].verdict == "AN"
        events = detect_events(matrix, labels)
        assert (1, 123) in [e.key for e in events]
        spike_events = [e for e in events if e.key == (1, 123)]
        assert spike_events[0].polarity == "high"

    def test_all_r_labels_no_events(self):
        rng = np.random.default_rng(4)
        col = rng.uniform(0.001, 0.02, 300)
        matrix = matrix_from_columns({1: col}, 1)
        labels = classify_classes(matrix)
        assert labels[0].verdict == "R"
        assert detect_events(matrix, labels) == []

    def test_negative_outliers_low_side(self):
        col = np.full(100, 5e-3)
        col[42] = 1e-5
        matrix = matrix_from_columns({1: col}, 1)
        labels = classify_classes(matrix)
        assert labels[0].verdict == "AN"
        assert negative_outliers(matrix, labels) == {(1, 42)}


class TestIdentifyEvent:
    def make_burst_stream(self, degree=300, span=(630.1, 631.4)):
        names = ["v"] + [f"u{i}" for i in range(degree)]
        pairs = {("v", f"u{i}"): [span] for i in range(degree)}
        return from_pair_intervals(names, pairs, t_begin=630.0, t_end=632.0)

    def test_profile_intersection(self):
        stream = self.make_burst_stream()
        grid = TimeSliceGrid(630.0, 2.0, 1)
        scheme = build_class_scheme(300, 0.1)
        j = scheme.class_of(300)
        event = Event(j, 0, 0.1, "nonzero-in-A")
        ident = identify_event(stream, event, grid, scheme)
        assert ident.entries[0] == [(630.1, 631.4)]

    def test_partners_identified_in_their_class(self):
        stream = self.make_burst_stream()
        grid = TimeSliceGrid(630.0, 2.0, 1)
        scheme = build_class_scheme(300, 0.1)
        event = Event(1, 0, 0.1, "nonzero-in-A")  # class {1}: the partners
        ident = identify_event(stream, event, grid, scheme)
        assert 0 not in ident.entries
        assert len(ident.entries) == 300

    def test_no_node_in_class_gives_empty_set(self):
        stream = self.make_burst_stream()
        grid = TimeSliceGrid(630.0, 2.0, 1)
        scheme = build_class_scheme(300, 0.1)
        event = Event(scheme.class_of(10), 0, 0.0, "nonzero-in-A")
        ident = identify_event(stream, event, grid, scheme)
        assert ident.is_empty


class TestNormalizedView:
    """With the same mean degree m in every second, the normalized view is the
    raw one with every degree divided by m."""

    @pytest.fixture()
    def constant_mean(self):
        # exactly two links at every instant over five nodes: m = 2 * 2 / 5;
        # segments cross second and slice boundaries, and c drops to 0 inside
        pairs = {
            ("a", "b"): [(0.0, 6.0)],
            ("c", "d"): [(0.0, 2.5)],
            ("a", "e"): [(2.5, 4.5)],
            ("b", "c"): [(4.5, 6.0)],
        }
        stream = from_pair_intervals(list("abcde"), pairs, t_begin=0.0, t_end=6.0)
        series = stream.mean_degree_per_second()
        assert len(series.values) == 6 and len(set(series.values.tolist())) == 1
        m = float(series.values[0])
        assert m == pytest.approx(0.8)
        return stream, normalize_degrees(stream, series), m, TimeSliceGrid(0.0, 2.0, 3)

    def test_identify_event_matches_raw(self, constant_mean):
        stream, view, m, grid = constant_mean
        raw_scheme = build_class_scheme(stream.max_degree(), 0.1)
        norm_scheme = ClassScheme(0.1, raw_scheme.edges / m, integer=False)
        found = 0
        for j in range(1, len(raw_scheme) + 1):
            for i in range(grid.count):
                event = Event(j, i, 0.0, "nonzero-in-A")
                raw = identify_event(stream, event, grid, raw_scheme)
                norm = identify_event(stream, event, grid, norm_scheme, normalized=view)
                assert norm.entries == raw.entries, (j, i)
                found += len(raw.entries)
        assert found > 0

    def test_slice_measures_match_raw(self, constant_mean):
        stream, view, m, grid = constant_mean
        raw = slice_value_measures(stream, grid)
        assert raw[1] == {1: 5.0, 2: 1.5}
        assert slice_value_measures(stream, grid, view) == [
            {k / m: measure for k, measure in acc.items()} for acc in raw
        ]



class TestClassMembership:
    """identify_event and the fraction matrix put a degree in the same class."""

    def test_degree_on_a_lattice_edge(self):
        # K3 on [0, 4): the mean degree is 2 every second, so every
        # normalized degree is exactly 1.0, the lower edge of class 5
        pairs = {("a", "b"): [(0.0, 4.0)], ("a", "c"): [(0.0, 4.0)], ("b", "c"): [(0.0, 4.0)]}
        stream = from_pair_intervals(list("abc"), pairs, t_begin=0.0, t_end=4.0)
        view = normalize_degrees(stream, stream.mean_degree_per_second())
        scheme = build_normalized_scheme(1.0, 0.1, min_value=0.5)
        grid = TimeSliceGrid(0.0, 4.0, 1)
        matrix = fraction_matrix(stream, grid, scheme, view)
        assert len(scheme) == 5 and matrix.fractions[0, 4] == 1.0
        for j in range(1, len(scheme) + 1):
            found = identify_event(stream, Event(j, 0, 0.0, "nonzero-in-A"), grid, scheme,
                                   normalized=view)
            assert found.measure == matrix.fractions[0, j - 1] * grid.tau * 3, j

    @given(timed_streams(), st.booleans(), st.sampled_from([2.0, 0.7]))
    @settings(max_examples=40, deadline=None)
    def test_identified_measure_equals_cell(self, stream, normalized, tau):
        grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, tau)
        scheme, view = build_scheme(stream, 0.1, normalized)
        matrix = fraction_matrix(stream, grid, scheme, view)
        for j in range(1, len(scheme) + 1):
            for i in range(grid.count):
                found = identify_event(stream, Event(j, i, 0.0, "nonzero-in-A"), grid, scheme,
                                       normalized=view)
                cell = matrix.fractions[i, j - 1] * grid.tau * stream.num_nodes
                assert found.measure == pytest.approx(cell, rel=0, abs=1e-9), (j, i)


@pytest.fixture(scope="module")
def injected_scenario():
    spec = ScenarioSpec(
        duration=200, background_nodes=80, background_degree=4,
        injections=[
            ScanInjection("scanner", 800, (100.0, 102.0)),
            FanInInjection("sink", 150, (140.0, 142.0)),
            SpikeInjection("burst", 100, (60.0, 62.0)),
        ],
    )
    triplets, meta, truth = generate_synthetic(spec, seed=6)
    stream = build_stream(triplets, meta.node_names, 1.0)
    grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, 2.0)
    scheme = build_class_scheme(stream.max_degree(), 0.1)
    return stream, grid, scheme, meta, truth


@pytest.fixture(scope="module")
def rollback_scenario():
    # a hub with a constant partner set plus one super-spike: removing the
    # spike's couples strips the partners' legitimate degree-1 presence
    spec = ScenarioSpec(duration=200, background_nodes=60, background_degree=4)
    triplets, meta, _ = generate_synthetic(spec, seed=9)
    names = list(meta.node_names)
    index = {n: i for i, n in enumerate(names)}

    def intern(n):
        if n not in index:
            index[n] = len(names)
            names.append(n)
        return index[n]

    extra = []
    hub = intern("hub")
    partners = [intern(f"hub.p{j}") for j in range(150)]
    for sec in range(200):
        for p in partners:
            extra.append(Triplet(sec + 0.5, hub, p))
    spikers = [intern(f"hub.s{j}") for j in range(1500)]
    for sec in (100, 101):
        for s in spikers:
            extra.append(Triplet(sec + 0.5, hub, s))
    merged = sorted(list(triplets) + extra, key=lambda t: t.t)
    stream = build_stream(merged, names, 1.0)
    grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, 2.0)
    scheme = build_class_scheme(stream.max_degree(), 0.1)
    return stream, grid, scheme, names


class TestRunIdentification:
    def test_scan_identified_with_cascade(self, injected_scenario):
        stream, grid, scheme, meta, truth = injected_scenario
        result = run_identification(stream, grid, scheme)
        scanner = meta.node_names.index("scanner")
        assert result.identified_set.entries[scanner] == [(100.0, 102.0)]
        # the induced degree-1 event at the scan slice is cascade-identified:
        # it was detected initially, vanished after removal, never removed itself
        scan_slice = 50
        initial_keys = {e.key for e in result.detected_events}
        assert (1, scan_slice) in initial_keys
        assert (1, scan_slice) in {e.key for e in result.identified_events}
        assert (1, scan_slice) not in {rec.event.key for rec in result.log}

    def test_all_three_injections_identified(self, injected_scenario):
        stream, grid, scheme, meta, truth = injected_scenario
        result = run_identification(stream, grid, scheme)
        identified_names = {meta.node_names[n] for n in result.identified_set.nodes()}
        assert identified_names == {"scanner", "sink", "burst"}
        assert result.residual_events == []
        assert result.rolled_back_events == []

    def test_partition_invariant(self, injected_scenario):
        stream, grid, scheme, meta, truth = injected_scenario
        result = run_identification(stream, grid, scheme)
        detected = {e.key for e in result.detected_events}
        identified = {e.key for e in result.identified_events}
        residual = {e.key for e in result.residual_events}
        rolled = {e.key for e in result.rolled_back_events}
        assert identified | residual | rolled == detected
        assert identified & residual == set()
        assert identified & rolled == set()
        assert residual & rolled == set()

    def test_processing_order_highest_class_first(self, injected_scenario):
        stream, grid, scheme, meta, truth = injected_scenario
        result = run_identification(stream, grid, scheme)
        order = [rec.event for rec in result.log]
        keys = [(-e.class_index, -e.fraction, e.slice_index) for e in order]
        assert keys == sorted(keys)

    def test_applied_removals_shrink_measure(self, injected_scenario):
        stream, grid, scheme, meta, truth = injected_scenario
        result = run_identification(stream, grid, scheme)
        assert result.applied_count > 0
        assert result.final_stream.total_link_seconds() < stream.total_link_seconds()
        assert 0 < result.removed_share < 1

    @given(timed_streams(), st.booleans(), st.sampled_from(["refit", "frozen"]))
    @settings(max_examples=60, deadline=None)
    def test_identified_set_is_union_of_applied_victims(self, stream, normalized, rollback_fit):
        grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, 2.0)
        scheme, _ = build_scheme(stream, 0.1, normalized)
        params = PipelineParams(rollback_fit=rollback_fit, normalized=normalized)
        result = run_identification(stream, grid, scheme, params)
        # fold the applied removals in log order; a node keeps the place of its
        # first removal, and identified_measure sums the nodes in that order
        union: dict[int, list] = {}
        for rec in result.log:
            if rec.status == "applied":
                for node, ivs in rec.victims.entries.items():
                    union[node] = iv.merge(union.get(node, []) + ivs)
        got = result.identified_set
        assert list(got.entries.items()) == list(union.items())
        assert got.measure == iv.ordered_sum(iv.measure(ivs) for ivs in union.values())

    def test_fixpoint(self, injected_scenario):
        stream, grid, scheme, meta, truth = injected_scenario
        first = run_identification(stream, grid, scheme)
        second = run_identification(first.final_stream, grid, scheme)
        assert second.applied_count == 0
        assert second.final_stream.total_link_seconds() == pytest.approx(
            first.final_stream.total_link_seconds()
        )

    def test_no_a_events_is_identity(self):
        spec = ScenarioSpec(duration=100, background_nodes=40, background_degree=4)
        triplets, meta, _ = generate_synthetic(spec, seed=1)
        stream = build_stream(triplets, meta.node_names, 1.0)
        grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, 2.0)
        scheme = build_class_scheme(stream.max_degree(), 0.1)
        result = run_identification(stream, grid, scheme)
        assert result.log == []
        assert result.identified_set.is_empty
        assert result.final_stream is stream

    def test_rollback_on_stripped_baseline(self, rollback_scenario):
        stream, grid, scheme, names = rollback_scenario
        result = run_identification(stream, grid, scheme)
        rolled = [rec for rec in result.log if rec.status == "rolled-back"]
        assert len(rolled) == 1
        assert result.applied_count == 0
        assert "negative outlier in class 1" in rolled[0].reason
        # the event stays detected but unidentified
        assert rolled[0].event.key in {e.key for e in result.rolled_back_events}
        assert result.identified_events == []

    def test_rollback_restores_stream_bytes(self, rollback_scenario):
        stream, grid, scheme, names = rollback_scenario
        before = io.BytesIO()
        stream.save(before)
        result = run_identification(stream, grid, scheme)
        after = io.BytesIO()
        result.final_stream.save(after)
        assert before.getvalue() == after.getvalue()

    def test_rollback_fit_frozen_mode(self, rollback_scenario):
        stream, grid, scheme, names = rollback_scenario
        result = run_identification(
            stream, grid, scheme, PipelineParams(rollback_fit="frozen")
        )
        assert result.applied_count == 0
        assert len(result.rolled_back_events) == 1

    def test_normalized_mode_recalls_injection(self, injected_scenario):
        # at desk scale a large scan inflates every second's mean degree, so
        # the background's normalized dip bins fire too; the contract here is
        # that the injected nodes are recalled with their exact windows
        from streamdeg.reporting import run_pipeline_once

        stream, _, _, meta, truth = injected_scenario
        result = run_pipeline_once(stream, 2.0, 0.1, PipelineParams(normalized=True))
        for entry in truth.entries:
            node = meta.node_names.index(entry.node)
            intervals = result.identified_set.entries.get(node, [])
            assert (entry.start, entry.end) in intervals or intervals == [
                (entry.start, entry.end)
            ]

    def test_spike_interval_independent_of_tau(self, injected_scenario):
        stream, _, _, meta, truth = injected_scenario
        burst = meta.node_names.index("burst")
        got = {}
        for tau in (0.5, 1.0, 2.0, 4.0):
            grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, tau)
            scheme = build_class_scheme(stream.max_degree(), 0.1)
            result = run_identification(stream, grid, scheme)
            got[tau] = result.identified_set.entries.get(burst)
        assert all(v == [(60.0, 62.0)] for v in got.values()), got

    def test_spike_ending_just_past_a_slice_edge_is_identified_whole(self):
        # at tau 0.7, 231.0 / 0.7 rounds to 330.0 but slice 330 starts at
        # 330 * 0.7 = 230.99999999999997: the spike's last 2.8e-14 s lies in
        # slice 330, and only slices that tile time put it in a row
        spec = ScenarioSpec(duration=240, background_nodes=60, background_degree=4,
                            injections=[SpikeInjection("burst", 40, (229.0, 231.0))])
        triplets, meta, _ = generate_synthetic(spec, seed=1)
        stream = build_stream(triplets, meta.node_names, 1.0)
        grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, 0.7)
        assert grid.bounds(330)[0] == 230.99999999999997
        result = run_identification(stream, grid, build_class_scheme(stream.max_degree(), 0.1))
        assert result.identified_set.entries[meta.node_names.index("burst")] == [(229.0, 231.0)]
        assert result.identified_set.measure == 2.0


class TestRowUpdate:
    """The removal loop recomputes only the rows an attempt reaches and reads
    only the nodes whose inherited spans meet the event's slice; each
    attempt's matrix must equal a full recompute of the tentative stream, and
    its victims those found on a stream that swept its own profiles."""

    @pytest.mark.parametrize("rollback_fit", ["refit", "frozen"])
    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("tau", [2.0, 0.3])  # 0.3: slice edges are not exact
    @pytest.mark.parametrize("scenario", ["injected_scenario", "rollback_scenario"])
    def test_equals_full_recompute(
        self, request, monkeypatch, scenario, tau, normalized, rollback_fit
    ):
        stream = request.getfixturevalue(scenario)[0]
        grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, tau)
        scheme, _ = build_scheme(stream, 0.1, normalized)
        attempts = []

        def checked(matrix, tentative, rows, view=None):
            try:
                full = fraction_matrix(rebuilt(tentative), grid, scheme, view)
            except SchemeRangeError as exc:  # removals cannot leave the scheme
                pytest.fail(f"a tentative stream has a degree outside the scheme: {exc}")
            out = update_rows(matrix, tentative, rows, view)
            assert np.array_equal(out.fractions, full.fractions), rows
            assert np.array_equal(out.zero, full.zero), rows
            attempts.append(rows)
            return out

        def identify_checked(stream, event, grid, scheme, view):
            out = identify_event(stream, event, grid, scheme, view)
            assert out.entries == identify_event(rebuilt(stream), event, grid, scheme, view).entries
            return out

        monkeypatch.setattr(pipeline, "update_rows", checked)
        monkeypatch.setattr(pipeline, "identify_event", identify_checked)
        params = PipelineParams(rollback_fit=rollback_fit, normalized=normalized)
        result = run_identification(stream, grid, scheme, params)
        assert len(attempts) == sum(1 for rec in result.log if rec.status != "cascade") > 0

    @given(timed_streams(), st.booleans(), st.sampled_from(["refit", "frozen"]),
           st.sampled_from([2.0, 0.7]))
    @settings(max_examples=80, deadline=None)
    def test_spliced_profiles_equal_a_full_sweep(self, stream, normalized, rollback_fit, tau):
        # each attempt splices its parent's profile store, inside the attempt's
        # slice, and its parent is the end of a chain of applied removals
        grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, tau)
        scheme, _ = build_scheme(stream, 0.1, normalized)
        derived = []
        remove = LinkStream.remove_interactions

        def recorded(self, victims):
            derived.append(remove(self, victims))
            return derived[-1]

        with mock.patch.object(LinkStream, "remove_interactions", recorded):
            params = PipelineParams(rollback_fit=rollback_fit, normalized=normalized)
            run_identification(stream, grid, scheme, params)
        for out in derived:
            spliced, swept = out._profiles, rebuilt(out)._degree_arrays()
            assert [a.tobytes() for a in spliced] == [a.tobytes() for a in swept]


class TestExports:
    def test_removal_log_jsonl(self, injected_scenario):
        import json

        stream, grid, scheme, meta, truth = injected_scenario
        result = run_identification(stream, grid, scheme)
        buf = io.StringIO()
        write_removal_log(result.log, stream.node_names, buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == len(result.log)
        rec = json.loads(lines[0])
        assert set(rec) >= {"event", "victims", "status"}
        assert set(rec["event"]) == {"class", "slice"}
        assert set(rec["victims"][0]) == {"node", "start", "end"}

    def test_events_csv(self, injected_scenario):
        stream, grid, scheme, meta, truth = injected_scenario
        result = run_identification(stream, grid, scheme)
        buf = io.StringIO()
        write_events_csv(result.detected_events, event_statuses(result), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "class,slice,fraction,polarity,status"
        assert len(lines) == len(result.detected_events) + 1
        assert all(line.endswith("identified") for line in lines[1:])
