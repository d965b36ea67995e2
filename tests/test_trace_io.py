import io

import pytest

from streamdeg.linkstream import LinkStream
from streamdeg.trace_io import (
    MAX_NAME_BYTES,
    FanInInjection,
    GroundTruth,
    ScanInjection,
    ScenarioSpec,
    SpikeInjection,
    TraceFormatError,
    TruthEntry,
    generate_synthetic,
    is_node_name,
    parse_trace,
    read_csv_records,
    read_ground_truth,
    scenario_from_dict,
    write_ground_truth,
    write_trace,
)

from streams import max_value, value_at


class TestParse:
    def test_two_triplets(self):
        triplets, meta = parse_trace("1 a b\n1.5 a b\n")
        assert len(triplets) == 2
        assert meta.triplet_count == 2
        assert meta.node_count == 2
        assert (meta.t_min, meta.t_max) == (1.0, 1.5)
        assert triplets[0].u == triplets[1].u  # same pair interned to same ids

    def test_empty(self):
        triplets, meta = parse_trace("")
        assert triplets == []
        assert meta.triplet_count == 0
        assert meta.node_count == 0

    def test_self_loop_reports_line(self):
        with pytest.raises(TraceFormatError) as exc:
            parse_trace("3.5 a a\n")
        assert exc.value.line_no == 1
        assert "self-interaction" in str(exc.value)

    def test_error_line_numbers_skip_comments(self):
        with pytest.raises(TraceFormatError) as exc:
            parse_trace("# header\n1 a b\n2 c c\n")
        assert exc.value.line_no == 3

    def test_non_finite_time(self):
        with pytest.raises(TraceFormatError):
            parse_trace("inf a b\n")
        with pytest.raises(TraceFormatError):
            parse_trace("nan a b\n")

    def test_over_long_node_name_reports_line(self):
        longest = "x" * MAX_NAME_BYTES
        triplets, meta = parse_trace(f"1 a {longest}\n")
        buf = io.BytesIO()
        LinkStream.from_triplets(triplets, meta.node_names, 1.0).save(buf)
        buf.seek(0)
        assert LinkStream.load(buf).node_names == ["a", longest]
        # 2 UTF-8 bytes per character: 70,000 bytes in 35,000 characters
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(f"1 a b\n2 {'é' * 35000} b\n")
        assert exc.value.line_no == 2
        assert str(MAX_NAME_BYTES) in str(exc.value)

    def test_malformed_field_count(self):
        with pytest.raises(TraceFormatError) as exc:
            parse_trace("1 a\n")
        assert "fields" in str(exc.value)

    def test_bad_time_token(self):
        with pytest.raises(TraceFormatError):
            parse_trace("oops a b\n")

    def test_comments_and_blanks_ignored(self):
        triplets, meta = parse_trace("# c\n\n1 a b\n  # another\n2 b c\n")
        assert meta.triplet_count == 2
        assert meta.node_count == 3

    def test_bytes_input(self):
        triplets, meta = parse_trace(b"1 a b\n")
        assert meta.triplet_count == 1

    def test_duplicates_accepted(self):
        triplets, _ = parse_trace("1 a b\n1 a b\n")
        assert len(triplets) == 2


def test_round_trip_preserves_triplets_and_order():
    text = "1 a b\n0.25 c d\n1 a b\n3.75 b d\n"
    triplets, meta = parse_trace(text)
    buf = io.StringIO()
    write_trace(triplets, meta.node_names, buf)
    again, meta2 = parse_trace(buf.getvalue())
    assert again == triplets
    assert meta2.node_names == meta.node_names


def test_ground_truth_csv_round_trip():
    truth = GroundTruth([
        TruthEntry("scanner", 300.0, 302.0, "scan"),
        TruthEntry("sink", 10.5, 12.0, "fanin"),
    ])
    buf = io.StringIO()
    write_ground_truth(truth, buf)
    again = read_ground_truth(buf.getvalue())
    assert again.entries == truth.entries
    assert [e.node for e in again.entries if e.kind == "scan"] == ["scanner"]


def test_ground_truth_rejects_bad_interval():
    with pytest.raises(ValueError):
        GroundTruth([TruthEntry("x", 5.0, 5.0, "scan")])


@pytest.mark.parametrize("row", ["a,1", "a,1,2,scan,extra", "a,x,2,scan", "a,3,2,scan", "a,nan,2,scan"])
def test_ground_truth_bad_row_reports_line(row):
    with pytest.raises(TraceFormatError) as exc:
        read_ground_truth(f"node,start,end,kind\nb,1,2,spike\n{row}\n")
    assert exc.value.line_no == 3


def test_csv_records_skip_blank_rows_and_only_a_first_header():
    # a quoted field may hold a line break; a record's line is its last
    text = '\n\nnode,start,end\nnode,1,2\n\n"a\nb",3,4\n'
    assert list(read_csv_records(text, ("node", "start", "end"))) == [
        (4, ["node", "1", "2"]), (7, ["a\nb", "3", "4"]),
    ]
    with pytest.raises(TraceFormatError, match="line 2: expected 'node,start,end', got 2"):
        list(read_csv_records("a,1,2\na,1\n", ("node", "start", "end")))
    with pytest.raises(TraceFormatError, match="line 1: field larger than field limit"):
        list(read_csv_records("a" * 200_000 + ",1,2\n", ("node", "start", "end")))


class TestSynthetic:
    @pytest.mark.parametrize("model", ["regular", "poisson"])
    def test_scan_and_fanin_orientation(self, model):
        # a scan's hub contacts its fresh targets, a fan-in's fresh sources its hub
        spec = ScenarioSpec(
            duration=10, background_nodes=4, background_degree=2, background_model=model,
            injections=[ScanInjection("hub", 3, (2.0, 4.0)), FanInInjection("sink", 3, (5.0, 7.0))],
        )
        triplets, meta, truth = generate_synthetic(spec, seed=2)
        names = meta.node_names
        rows = [(t, names[u], names[v]) for t, u, v in triplets if not names[u].startswith("bg")]
        scan = [r for r in rows if 2.0 <= r[0] < 4.0]
        fanin = [r for r in rows if 5.0 <= r[0] < 7.0]
        assert len(scan) == len(fanin) == 3 == len(rows) / 2
        assert {(u, v) for _, u, v in scan} == {("hub", f"hub.t{j}") for j in range(3)}
        assert {(u, v) for _, u, v in fanin} == {(f"sink.s{j}", "sink") for j in range(3)}
        assert truth.entries == [TruthEntry("hub", 2.0, 4.0, "scan"),
                                 TruthEntry("sink", 5.0, 7.0, "fanin")]

    def test_deterministic(self):
        spec = ScenarioSpec(duration=20, background_nodes=10, background_degree=2)
        a = generate_synthetic(spec, seed=7)
        b = generate_synthetic(spec, seed=7)
        assert a[0] == b[0]
        assert a[2].entries == b[2].entries
        # and byte-identical when written out
        bufs = []
        for triplets, meta, _ in (a, b):
            buf = io.StringIO()
            write_trace(triplets, meta.node_names, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_no_injections_empty_truth(self):
        spec = ScenarioSpec(duration=60, background_nodes=8, background_degree=2)
        _, _, truth = generate_synthetic(spec, seed=1)
        assert truth.entries == []

    def test_scan_truth_and_peak_degree(self):
        from streamdeg.linkstream import build_stream

        spec = ScenarioSpec(
            duration=600,
            background_nodes=200,
            background_degree=4,
            injections=[ScanInjection("scanner", 5000, (300.0, 302.0))],
        )
        triplets, meta, truth = generate_synthetic(spec, seed=3)
        assert len(truth.entries) == 1
        assert truth.entries[0] == TruthEntry("scanner", 300.0, 302.0, "scan")
        stream = build_stream(triplets, meta.node_names, 1.0)
        peak = max_value(stream.degree_profile(meta.node_names.index("scanner")))
        # regular model: p_hit = 1 / number of seconds in the window
        assert peak >= 5000 * 0.5
        assert peak >= 1000

    def test_fanin_and_spike_degrees(self):
        from streamdeg.linkstream import build_stream

        spec = ScenarioSpec(
            duration=60,
            background_nodes=20,
            background_degree=2,
            injections=[
                FanInInjection("sink", 300, (30.0, 32.0)),
                SpikeInjection("burst", 150, (40.0, 42.0)),
            ],
        )
        triplets, meta, truth = generate_synthetic(spec, seed=5)
        assert {e.kind for e in truth.entries} == {"fanin", "spike"}
        stream = build_stream(triplets, meta.node_names, 1.0)
        assert max_value(stream.degree_profile(meta.node_names.index("sink"))) >= 150
        burst = stream.degree_profile(meta.node_names.index("burst"))
        assert max_value(burst) == 150
        assert value_at(burst, 41.0) == 150  # sustained over the window

    def test_window_outside_duration_rejected(self):
        spec = ScenarioSpec(
            duration=10, background_nodes=4, background_degree=2,
            injections=[ScanInjection("s", 10, (8.0, 12.0))],
        )
        with pytest.raises(ValueError):
            generate_synthetic(spec, seed=0)

    def test_target_count_must_be_positive(self):
        spec = ScenarioSpec(
            duration=10, background_nodes=4, background_degree=2,
            injections=[ScanInjection("s", 0, (2.0, 4.0))],
        )
        with pytest.raises(ValueError):
            generate_synthetic(spec, seed=0)

    def test_longest_made_name_bounded_by_validate(self):
        # "x" * 65_532 + ".t0" is 65,535 bytes; with 11 targets "...t10" is one more
        name = "x" * (MAX_NAME_BYTES - 3)
        ScenarioSpec(duration=10, background_nodes=4, background_degree=2,
                     injections=[ScanInjection(name, 10, (2.0, 4.0))]).validate()
        with pytest.raises(ValueError, match="at most 65535 bytes"):
            ScenarioSpec(duration=10, background_nodes=4, background_degree=2,
                         injections=[ScanInjection(name, 11, (2.0, 4.0))]).validate()
        assert not is_node_name(name + ".t10")
        assert is_node_name(name + ".t9")

    def test_odd_regular_degree_sum_rejected_by_validate(self):
        # 5 nodes of degree 3 admit no 3-regular graph
        spec = ScenarioSpec(duration=10, background_nodes=5, background_degree=3)
        with pytest.raises(ValueError, match="even"):
            spec.validate()
        # the degree is capped at background_nodes - 1 = 4 before the check
        ScenarioSpec(duration=10, background_nodes=5, background_degree=7).validate()
        ScenarioSpec(duration=10, background_nodes=5, background_degree=3,
                     background_model="poisson").validate()

    def test_poisson_model_runs(self):
        spec = ScenarioSpec(
            duration=30, background_nodes=15, background_model="poisson",
            rate_low=0.5, rate_high=2.0,
        )
        triplets, meta, _ = generate_synthetic(spec, seed=2)
        assert len(triplets) > 0
        assert all(0 <= tr.t < 30 for tr in triplets)


def test_scenario_from_dict():
    raw = {
        "duration": 100,
        "background_nodes": 50,
        "background_degree": 4,
        "injections": [
            {"kind": "scan", "source": "s", "targets": 100, "window": [10, 12]},
            {"kind": "fanin", "dest": "d", "sources": 80, "window": [20, 22]},
            {"kind": "spike", "node": "n", "level": 60, "window": [30, 32]},
        ],
    }
    spec = scenario_from_dict(raw)
    assert spec.duration == 100
    assert len(spec.injections) == 3
    with pytest.raises(ValueError):
        scenario_from_dict({"duration": 1, "background_nodes": 1,
                            "injections": [{"kind": "nope", "window": [0, 1]}]})
    with pytest.raises(ValueError, match="JSON object"):
        scenario_from_dict([raw])
