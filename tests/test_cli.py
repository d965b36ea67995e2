import csv
import io
import json
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import streamdeg
from streamdeg.cli import main, write_identified_csv
from streamdeg.config import RunConfig
from streamdeg.linkstream import build_stream
from streamdeg.pipeline import IdentifiedSet
from streamdeg.trace_io import GroundTruth, TruthEntry, parse_trace, write_ground_truth

from streams import from_pair_intervals

SCENARIO = {
    "duration": 120,
    "background_nodes": 40,
    "background_degree": 4,
    "injections": [
        {"kind": "scan", "source": "scanner", "targets": 500, "window": [60, 62]},
    ],
}


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


@pytest.fixture()
def synth_dir(tmp_path, scenario_file):
    out = tmp_path / "synth"
    rc = main(["synth", "--scenario", str(scenario_file), "--seed", "5", "--output-dir", str(out)])
    assert rc == 0
    return out


def read_bytes(path: Path) -> bytes:
    return Path(path).read_bytes()


def small_cache() -> bytes:
    stream = from_pair_intervals(["a", "b"], {("a", "b"): [(0.0, 4.0)]})
    buf = io.BytesIO()
    stream.save(buf)
    return buf.getvalue()


SMALL = "0 a b\n1 a c\n2 b c\n"
# windows over [-0.5, 1e15 + 0.5), which meets 1e15 + 2 whole seconds
LONG_SPAN = "0 a b\n1 a c\n1e15 a c\n"
SECONDS = ("data error: the trace span holds 1000000000000002 seconds, more than numpy can allocate "
           "one mean degree each")


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert main(["analyze", "--no-such-flag"]) == 1

    def test_usage_error_missing_required(self):
        assert main(["analyze"]) == 1

    def test_data_error_missing_trace(self, tmp_path):
        rc = main(["analyze", "--trace", str(tmp_path / "nope.txt"), "--output-dir", str(tmp_path)])
        assert rc == 2

    def test_data_error_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 a a\n")
        rc = main(["analyze", "--trace", str(bad), "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("head", [b"1 a b\n", b"1 a a\n"], ids=["valid", "malformed-line-1"])
    def test_data_error_not_utf8_past_the_first_step(self, tmp_path, capsys, head):
        # the trace is read in steps of 262,144 bytes; the bad byte lies in the
        # second, and wins over a malformed line in the first
        bad = tmp_path / "bad.txt"
        bad.write_bytes(head + b"1 a b\n" * 49_999 + b"2 \xff c\n")
        rc = main(["analyze", "--trace", str(bad), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert ("'utf-8' codec can't decode byte 0xff in position 300002: invalid start byte"
                in capsys.readouterr().err)

    def test_data_error_truncated_cache(self, tmp_path, capsys):
        cache = tmp_path / "cut.bin"
        cache.write_bytes(small_cache()[:-5])
        rc = main(["identify", "--trace", str(cache), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "bad stream cache" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_data_error_unknown_cache_version(self, tmp_path, capsys):
        blob = small_cache()
        cache = tmp_path / "v9.bin"
        cache.write_bytes(blob[:4] + struct.pack("<H", 9) + blob[6:])
        rc = main(["identify", "--trace", str(cache), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "unsupported cache version 9" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "identify", "validate", "sweep"])
    def test_data_error_cache_of_another_delta(self, tmp_path, capsys, command):
        # a cache's intervals are delta-windows; another delta would be reported
        # and would convert analyze's measures to counts wrongly
        cache = tmp_path / "delta1.bin"
        cache.write_bytes(small_cache())
        sweep = ["--axis", "tau", "--values", "2", "--reference", "2"] if command == "sweep" else []
        rc = main([command, "--trace", str(cache), "--delta", "2", *sweep,
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"stream cache {cache} has delta 1.0, not delta 2.0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "identify"])
    def test_data_error_empty_trace(self, tmp_path, capsys, command):
        trace = tmp_path / "empty.txt"
        trace.write_text("# no triplets\n")
        rc = main([command, "--trace", str(trace), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "no interactions" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "identify"])
    def test_data_error_trace_is_directory(self, tmp_path, capsys, command):
        rc = main([command, "--trace", str(tmp_path), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "not a file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,trace_text,flags,message", [
        pytest.param(command, *case, id=f"{name}-{command}") for name, case in [
            # numpy refuses the 3.55 PiB fraction matrix outright
            ("long-span", ("0 a b\n1e15 a c\n", [], "needs 500000000000000 slices of tau 2 s")),
            # a shape past numpy's index range: a dimension, or a byte count
            ("tau-1e-20", (SMALL, ["--tau", "1e-20"], "needs at least 2^63 slices of tau 1e-20 s")),
            ("tau-1e-20-normalized", (SMALL, ["--tau", "1e-20", "--normalized"],
                                      "needs at least 2^63 slices of tau 1e-20 s")),
            ("tau-1e-18", (SMALL, ["--tau", "1e-18"], "needs 3499999999999999743 slices of tau 1e-18 s")),
            ("tau-1e-300", (SMALL, ["--tau", "1e-300"], "needs at least 2^63 slices of tau 1e-300 s, more than numpy")),
            ("tau-5e-324", (SMALL, ["--tau", "5e-324"], "needs infinitely many slices of tau 4.94066e-324 s")),
            # 100 slices fit; the per-second series of the normalized degrees does not
            ("seconds-normalized", (LONG_SPAN, ["--tau", "1e13", "--normalized"], SECONDS)),
        ] for command in ["analyze", "identify", "validate"]
    ] + [
        # raw, only validate reads the per-second series
        pytest.param("validate", LONG_SPAN, ["--tau", "1e13"], SECONDS, id="seconds-validate"),
    ])
    def test_data_error_span_needs_too_many_slices(self, tmp_path, capsys, command, trace_text, flags,
                                                   message):
        trace = tmp_path / "huge.txt"
        trace.write_text(trace_text)
        rc = main([command, "--trace", str(trace), *flags, "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_data_error_cache_span_needs_too_many_slices(self, tmp_path, capsys):
        cache = tmp_path / "huge.bin"
        stream = from_pair_intervals(
            ["a", "b"], {("a", "b"): [(0.0, 1.0), (1e15, 1e15 + 1.0)]})
        with open(cache, "wb") as fh:
            stream.save(fh)
        rc = main(["identify", "--trace", str(cache), "--tau", "4", "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "needs 250000000000000 slices of tau 4 s" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # 10**400 overflows; normalized, at 1e-12 the degrees span 1e11 buckets, and at
    # 1e-300 every edge is 1.0: each used to end in a traceback, a hang or a growing list
    @pytest.mark.parametrize("r,normalized", [("400", []), ("400", ["--normalized"]),
                                              ("1e-12", ["--normalized"]), ("1e-300", ["--normalized"])])
    @pytest.mark.parametrize("command", ["analyze", "identify"])
    def test_data_error_ratio_outside_the_lattice(self, tmp_path, capsys, command, normalized, r):
        trace = tmp_path / "t.txt"
        trace.write_text("0 a b\n0 a c\n1 b c\n")
        rc = main([command, "--trace", str(trace), "--r", r, *normalized, "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"data error: r {float(r):g} leaves no lattice of degree classes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # raw degrees finer than the integers: one class per degree, as at r 0.01
    @pytest.mark.parametrize("r", ["1e-12", "1e-300"])
    @pytest.mark.parametrize("command", ["analyze", "identify"])
    def test_ratio_finer_than_the_integers(self, tmp_path, command, r):
        trace = tmp_path / "t.txt"
        trace.write_text("0 a b\n0 a c\n1 b c\n")
        runs = {}
        for ratio in (r, "0.01"):
            out = tmp_path / ratio
            assert main([command, "--trace", str(trace), "--r", ratio, "--output-dir", str(out)]) == 0
            runs[ratio] = json.loads((out / "report.json").read_text())
            del runs[ratio]["config"]["class_ratio"]
            runs[ratio].get("scheme", {}).pop("ratio", None)
        assert runs[r] == runs["0.01"]

    def test_data_error_bad_scenario(self, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text("{not json")
        rc = main(["synth", "--scenario", str(sc), "--output-dir", str(tmp_path)])
        assert rc == 2

    def test_data_error_scenario_is_directory(self, tmp_path, capsys):
        rc = main(["synth", "--scenario", str(tmp_path), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "not a file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_data_error_scenario_not_an_object(self, tmp_path, capsys):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps([SCENARIO]))
        rc = main(["synth", "--scenario", str(sc), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fields, message", [
        ({"duration": float("nan")}, "duration must be positive and finite, got nan"),
        ({"duration": float("inf")}, "duration must be positive and finite, got inf"),
        ({"background_model": "poisson", "rate_low": -1}, "rates must be non-negative and finite"),
        ({"background_model": "poisson", "rate_low": float("nan")}, "rates must be non-negative and finite"),
        ({"background_model": "poisson", "duration": 1e300}, "beyond numpy's Poisson limit"),
        ({"high_fraction": 1.5}, "high_fraction must be in [0, 1], got 1.5"),
        ({"rate_modulation": "weekly"}, "unknown rate modulation 'weekly'"),
        ({"background_model": "poisson", "background_nodes": 1}, "needs at least 2 nodes"),
        ({"background_model": "poisson", "background_nodes": -5}, "must be non-negative, got -5, 4"),
        ({"background_nodes": -5}, "must be non-negative, got -5, 4"),
        ({"background_degree": -2}, "must be non-negative, got 10, -2"),
        ({"rate_modulaton": "circadian"}, "unknown scenario keys: ['rate_modulaton']"),
        ({"injections": [{"kind": "scan", "source": "s", "targets": 5, "sources": 50,
                          "window": [1, 3]}]}, "unknown scan injection keys: ['sources']"),
        # numpy refuses the per-second seed draw of 1e300 seconds without allocating
        ({"duration": 1e300}, "too large to build: Maximum allowed dimension exceeded"),
        # names no trace line can hold
        ({"injections": [{"kind": "spike", "node": "a b", "level": 3, "window": [1, 3]}]},
         "injection name 'a b' or one made from it is not a whitespace-free UTF-8 token"),
        ({"injections": [{"kind": "scan", "source": "", "targets": 3, "window": [1, 3]}]},
         "injection name '' or one"),
        ({"injections": [{"kind": "fanin", "dest": "a\u001cb", "sources": 3, "window": [1, 3]}]},
         "injection name 'a\\x1cb' or one"),
        ({"injections": [{"kind": "spike", "node": "\ud800", "level": 3, "window": [1, 3]}]},
         "injection name '\\ud800' or one"),
        ({"injections": [{"kind": "scan", "source": "x" * 65_532, "targets": 11, "window": [1, 3]}]},
         "at most 65535 bytes"),
    ], ids=["duration-nan", "duration-inf", "rate-negative", "rate-nan", "poisson-limit",
            "high-fraction", "modulation", "poisson-one-node", "poisson-negative-nodes",
            "regular-negative-nodes", "negative-degree", "misspelled-key", "foreign-injection-key",
            "regular-too-large", "name-with-space", "empty-name", "name-with-separator",
            "name-not-utf8", "made-name-too-long"])
    def test_data_error_malformed_scenario(self, tmp_path, capsys, fields, message):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"duration": 60, "background_nodes": 10, **fields}))
        rc = main(["synth", "--scenario", str(sc), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: bad scenario {sc}: ")
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_data_error_scenario_odd_regular_degree_sum(self, tmp_path, capsys):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"duration": 10, "background_nodes": 5, "background_degree": 3}))
        rc = main(["synth", "--scenario", str(sc), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "even" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_data_error_config_is_directory(self, synth_dir, tmp_path, capsys):
        rc = main(["analyze", "--trace", str(synth_dir / "trace.txt"), "--config", str(tmp_path),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", ['[{"tau": 1.0}]', '{"tau": "x"}'])
    def test_usage_error_bad_config_file(self, synth_dir, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        rc = main(["analyze", "--trace", str(synth_dir / "trace.txt"), "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "bad configuration" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content,message", [
        ('{"normalized": "no"}', "normalized must be true or false"),
        ('{"seed": true}', "seed must be an integer"),
        ('{"seed": 5.0}', "seed must be an integer"),
        ('{"tau": false}', "tau must be a number"),
        ('{"ks_size_mode": 1}', "ks_size_mode must be a string"),
    ])
    def test_usage_error_config_value_type(self, synth_dir, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        rc = main(["analyze", "--trace", str(synth_dir / "trace.txt"), "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_float_accepts_json_integer(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tau": 4, "normalized": false}')
        rc = main(["analyze", "--trace", str(synth_dir / "trace.txt"), "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["tau"] == 4.0

    @pytest.mark.parametrize("name,flag,value", [
        ("delta", "--delta", "nan"), ("tau", "--tau", "nan"), ("tau", "--tau", "inf"),
        ("class_ratio", "--r", "-inf"), ("sigma_mult", "--sigma-mult", "nan"),
    ])
    @pytest.mark.parametrize("source", ["flag", "environment", "config file"])
    def test_usage_error_non_finite_config_value(self, tmp_path, capsys, monkeypatch,
                                                 source, name, flag, value):
        # checked before the trace is opened, so the trace need not exist
        argv = ["analyze", "--trace", str(tmp_path / "absent.txt"),
                "--output-dir", str(tmp_path / "out")]
        if source == "flag":
            argv.append(f"{flag}={value}")
        elif source == "environment":
            monkeypatch.setenv(f"STREAMDEG_{name.upper()}", value)
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({name: float(value)}))  # NaN, Infinity, -Infinity
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert f"{name} must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "environment", "config file"])
    @pytest.mark.parametrize("command", ["analyze", "synth"])
    def test_usage_error_negative_seed(self, synth_dir, scenario_file, tmp_path, capsys, monkeypatch,
                                       source, command):
        if command == "synth":
            argv = ["synth", "--scenario", str(scenario_file)]
        else:
            argv = ["analyze", "--trace", str(synth_dir / "trace.txt"), "--power-law",
                    "--bootstrap-count", "100"]
        argv += ["--output-dir", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "environment":
            monkeypatch.setenv("STREAMDEG_SEED", "-1")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"seed": -1}')
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_usage_error_unrecognized_bool_in_environment(self, synth_dir, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setenv("STREAMDEG_NORMALIZED", "ture")
        rc = main(["analyze", "--trace", str(synth_dir / "trace.txt"),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "STREAMDEG_NORMALIZED must be 1/true/yes/on or 0/false/no/off, got 'ture'" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["a file", "under a file", "an output is a directory"])
    @pytest.mark.parametrize("command", ["analyze", "identify"])
    def test_data_error_cannot_write_output(self, synth_dir, tmp_path, capsys, command, where):
        trace = synth_dir / "trace.txt"
        out = {"a file": trace, "under a file": trace / "out",
               "an output is a directory": tmp_path / "out"}[where]
        if where == "an output is a directory":
            (out / "report.json").mkdir(parents=True)
        rc = main([command, "--trace", str(trace), "--output-dir", str(out)])
        assert rc == 2
        assert "data error: cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize("command, output", [
        ("analyze", "report.json"), ("analyze", "ks_ratios.csv"),
        ("identify", "report.json"), ("identify", "cleaned_stream.bin"), ("validate", "report.json")])
    def test_data_error_output_is_directory_leaves_no_output(self, synth_dir, tmp_path, capsys,
                                                             command, output):
        # a run that ends in a data error removes the outputs it wrote
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        rc = main([command, "--trace", str(synth_dir / "trace.txt"), "--output-dir", str(out),
                   *["--ks-report"] * (command == "analyze")])
        assert rc == 2
        assert "data error: cannot write output" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [output]

    def test_usage_error_bootstrap_count_too_small(self, synth_dir, tmp_path, capsys):
        rc = main(["analyze", "--trace", str(synth_dir / "trace.txt"), "--power-law",
                   "--bootstrap-count", "10", "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "--bootstrap-count must be at least 100" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_usage_error_bad_sweep_reference(self, synth_dir, tmp_path):
        rc = main([
            "sweep", "--trace", str(synth_dir / "trace.txt"), "--axis", "tau",
            "--values", "1,2", "--reference", "3", "--output-dir", str(tmp_path),
        ])
        assert rc == 1

    def test_usage_error_bad_config_value(self, synth_dir, tmp_path):
        rc = main([
            "analyze", "--trace", str(synth_dir / "trace.txt"), "--tau", "-2",
            "--output-dir", str(tmp_path),
        ])
        assert rc == 1


class TestSynth:
    def test_outputs(self, synth_dir):
        assert (synth_dir / "trace.txt").exists()
        assert (synth_dir / "truth.csv").exists()
        report = json.loads((synth_dir / "report.json").read_text())
        assert report["synth"]["truth_entries"] == 1
        assert report["config"]["seed"] == 5

    def test_deterministic(self, tmp_path, scenario_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synth", "--scenario", str(scenario_file), "--seed", "5",
                         "--output-dir", str(out)]) == 0
            outs.append(out)
        assert read_bytes(outs[0] / "trace.txt") == read_bytes(outs[1] / "trace.txt")
        assert read_bytes(outs[0] / "truth.csv") == read_bytes(outs[1] / "truth.csv")


def write_steady_trace(path: Path, duration: int) -> None:
    # one pair contacting at every second midpoint: 1800 slices at tau=2
    lines = [f"{s + 0.5} a b" for s in range(duration)]
    path.write_text("\n".join(lines) + "\n")


class TestAnalyze:
    def test_slice_count_3600s(self, tmp_path, capsys):
        trace = tmp_path / "steady.txt"
        write_steady_trace(trace, 3600)
        out = tmp_path / "out"
        rc = main(["analyze", "--trace", str(trace), "--tau", "2", "--r", "0.1",
                   "--output-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["grid"]["slices"] == 1800
        assert "1800 slices" in capsys.readouterr().out

    def test_partial_slice_dropped_with_warning(self, tmp_path, capsys):
        trace = tmp_path / "steady.txt"
        write_steady_trace(trace, 3600)
        out = tmp_path / "out"
        rc = main(["analyze", "--trace", str(trace), "--tau", "7", "--output-dir", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["grid"]["slices"] == 514
        assert "partial slice" in captured.err

    def test_outputs_exist(self, synth_dir, tmp_path):
        out = tmp_path / "analysis"
        rc = main(["analyze", "--trace", str(synth_dir / "trace.txt"), "--output-dir", str(out)])
        assert rc == 0
        for name in ("matrix.csv", "matrix_meta.json", "labels.csv", "events.csv", "report.json"):
            assert (out / name).exists(), name

    def test_ks_report_flag(self, synth_dir, tmp_path):
        out = tmp_path / "analysis"
        rc = main(["analyze", "--trace", str(synth_dir / "trace.txt"), "--ks-report",
                   "--output-dir", str(out)])
        assert rc == 0
        rows = (out / "ks_ratios.csv").read_text().splitlines()
        assert rows[0] == "slice_a,slice_b,ratio"
        report = json.loads((out / "report.json").read_text())
        assert "ks_similarity" in report
        assert len(rows) - 1 == report["ks_similarity"]["pairs"] > 0
        for row in rows[1:]:
            float(row.split(",")[2])

    def test_power_law_flag(self, synth_dir, tmp_path):
        out = tmp_path / "pl"
        rc = main(["analyze", "--trace", str(synth_dir / "trace.txt"), "--power-law",
                   "--bootstrap-count", "100", "--output-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert "alpha_hat" in report["power_law"]
        # the regular background puts almost all degree mass at k_min = 4, so
        # the fit runs into the search bound and says so
        assert report["power_law"]["alpha_at_bound"] is True

    def test_power_law_insufficient_support_reported(self, tmp_path):
        trace = tmp_path / "steady.txt"
        write_steady_trace(trace, 60)  # single degree value: nothing to fit
        out = tmp_path / "pl"
        rc = main(["analyze", "--trace", str(trace), "--power-law", "--output-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert "error" in report["power_law"]

    def test_normalized_flag(self, synth_dir, tmp_path):
        out = tmp_path / "norm"
        rc = main(["identify", "--trace", str(synth_dir / "trace.txt"), "--normalized",
                   "--output-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["normalized"] is True
        assert "scanner" in report["identification"]["identified_nodes"]

    def test_config_round_trip_and_precedence(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 1.0, "class_ratio": 0.2}))
        out = tmp_path / "out"
        rc = main(["analyze", "--trace", str(synth_dir / "trace.txt"), "--config", str(cfg),
                   "--tau", "4.0", "--output-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["tau"] == 4.0  # flag wins
        assert report["config"]["class_ratio"] == 0.2  # file fills the rest
        # every config field is present in the report
        from streamdeg.config import RunConfig

        assert set(report["config"]) == {f.name for f in __import__("dataclasses").fields(RunConfig)}

    def test_env_override(self, synth_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("STREAMDEG_TAU", "4.0")
        out = tmp_path / "out"
        rc = main(["analyze", "--trace", str(synth_dir / "trace.txt"), "--output-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["tau"] == 4.0


class TestIdentify:
    def test_outputs_and_summary(self, synth_dir, tmp_path):
        out = tmp_path / "ident"
        rc = main(["identify", "--trace", str(synth_dir / "trace.txt"), "--output-dir", str(out)])
        assert rc == 0
        for name in ("removal_log.jsonl", "identified.csv", "events.csv",
                     "cleaned_stream.bin", "report.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        ident = report["identification"]
        assert ident["identified"] == ident["detected"]
        assert "scanner" in ident["identified_nodes"]

    def test_identify_twice_reaches_fixpoint(self, synth_dir, tmp_path):
        first = tmp_path / "first"
        assert main(["identify", "--trace", str(synth_dir / "trace.txt"),
                     "--output-dir", str(first)]) == 0
        second = tmp_path / "second"
        rc = main(["identify", "--trace", str(first / "cleaned_stream.bin"),
                   "--output-dir", str(second)])
        assert rc == 0
        report = json.loads((second / "report.json").read_text())
        assert report["identification"]["applied_removals"] == 0
        assert report["identification"]["removed_share"] == 0.0
        # loading and saving the cache round-trips its bytes
        assert read_bytes(second / "cleaned_stream.bin") == read_bytes(first / "cleaned_stream.bin")

    def test_deterministic_including_threads(self, synth_dir, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            assert main(["identify", "--trace", str(synth_dir / "trace.txt"),
                         "--seed", "3", "--threads", threads,
                         "--output-dir", str(out)]) == 0
            outs.append(out)
        for name in ("identified.csv", "removal_log.jsonl", "events.csv",
                     "cleaned_stream.bin"):
            blobs = [read_bytes(out / name) for out in outs]
            assert blobs[0] == blobs[1] == blobs[2], name
        # same flags -> byte-identical report; thread count only shows up in
        # the echoed config, never in the results
        assert read_bytes(outs[0] / "report.json") == read_bytes(outs[1] / "report.json")
        reports = [json.loads((out / "report.json").read_text()) for out in outs]
        assert reports[0]["identification"] == reports[2]["identification"]


POISSON_SCENARIO = {
    "duration": 40,
    "background_nodes": 20,
    "background_model": "poisson",
    "injections": [
        {"kind": "scan", "source": "scanner", "targets": 200, "window": [20, 22]},
        {"kind": "spike", "node": "burst", "level": 40, "window": [6, 8]},
    ],
}


@pytest.fixture(scope="module")
def poisson_sources(tmp_path_factory):
    """A poisson trace, in which pairs first appear out of key order, and the
    cache of the stream built from it."""
    root = tmp_path_factory.mktemp("poisson")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(POISSON_SCENARIO))
    assert main(["synth", "--scenario", str(scenario), "--seed", "1",
                 "--output-dir", str(root)]) == 0
    with open(root / "trace.txt", "rb") as fh:
        triplets, meta = parse_trace(fh)
    with open(root / "stream.bin", "wb") as fh:
        build_stream(triplets, meta.node_names, RunConfig().delta).save(fh)
    return root / "trace.txt", root / "stream.bin"


@pytest.mark.parametrize("command", [["analyze", "--normalized", "--ks-report"],
                                     ["identify"], ["validate"]], ids=lambda c: c[0])
def test_trace_and_its_cache_write_the_same_bytes(poisson_sources, tmp_path, command):
    outputs = []
    for source in poisson_sources:
        out = tmp_path / source.stem
        assert main([command[0], "--trace", str(source), *command[1:], "--output-dir", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


class TestValidate:
    def test_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "val"
        rc = main(["validate", "--trace", str(synth_dir / "trace.txt"), "--output-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        val = report["validation"]
        assert val["after"]["outlying_seconds"] == 0
        assert val["before"]["outlying_seconds"] >= 1
        for name in ("series_before.csv", "series_after.csv"):
            assert (out / name).exists()
        head = (out / "series_before.csv").read_text().splitlines()[0]
        assert head == "second,mean_degree"


class TestSweep:
    def test_csv_and_report(self, synth_dir, tmp_path):
        out = tmp_path / "sw"
        rc = main(["sweep", "--trace", str(synth_dir / "trace.txt"), "--axis", "tau",
                   "--values", "1,2,4", "--reference", "2", "--output-dir", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "value,jaccard,identified_measure,an,a,r,k_id,runtime_s"
        assert len(lines) == 4
        report = json.loads((out / "report.json").read_text())
        assert [p["value"] for p in report["sweep"]["points"]] == [1.0, 2.0, 4.0]
        # runtime stays out of report.json so reports are byte-reproducible
        assert "runtime_s" not in report["sweep"]["points"][0]

    def test_failed_point_leaves_empty_cells(self, tmp_path):
        # tau 1e-12 over 1000 s needs 1e15 slices: numpy refuses the matrix outright
        trace = tmp_path / "t.txt"
        trace.write_text("0 a b\n1000 a c\n")
        out = tmp_path / "sw"
        rc = main(["sweep", "--trace", str(trace), "--axis", "tau", "--values", "1e-12,2",
                   "--reference", "2", "--output-dir", str(out)])
        assert rc == 0
        rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))
        assert rows[1][:7] == ["1e-12", "", "", "", "", "", ""] and rows[1][7]
        assert rows[2][:2] == ["2.0", "1.0"]
        points = json.loads((out / "report.json").read_text())["sweep"]["points"]
        assert points[0]["error"].startswith("MemoryError")
        assert points[1]["error"] is None

    def test_point_outside_the_lattice_is_its_error(self, tmp_path):
        trace = tmp_path / "t.txt"
        trace.write_text("0 a b\n0 a c\n1 b c\n")
        out = tmp_path / "sw"
        rc = main(["sweep", "--trace", str(trace), "--axis", "r", "--values", "0.1,1e-12",
                   "--reference", "0.1", "--normalized", "--output-dir", str(out)])
        assert rc == 0
        points = json.loads((out / "report.json").read_text())["sweep"]["points"]
        assert points[0]["error"] is None
        assert points[1]["error"].startswith("LatticeError: r 1e-12 leaves no lattice")

    def test_data_error_reference_point_failed(self, tmp_path, capsys):
        trace = tmp_path / "huge.txt"
        trace.write_text("0 a b\n1e15 a c\n")
        rc = main(["sweep", "--trace", str(trace), "--axis", "tau", "--values", "1,2",
                   "--reference", "2", "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "reference point 2.0 failed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis,value", [("tau", "0"), ("tau", "nan"), ("tau", "inf"),
                                            ("r", "0")])
    def test_usage_error_bad_value(self, synth_dir, tmp_path, capsys, axis, value):
        rc = main(["sweep", "--trace", str(synth_dir / "trace.txt"), "--axis", axis,
                   "--values", f"{value},0.1", "--reference", "0.1",
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert f"bad sweep value {float(value)!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCompare:
    def test_precision_recall(self, synth_dir, tmp_path):
        ident_dir = tmp_path / "ident"
        assert main(["identify", "--trace", str(synth_dir / "trace.txt"),
                     "--output-dir", str(ident_dir)]) == 0
        out = tmp_path / "cmp"
        rc = main(["compare", "--identified", str(ident_dir / "identified.csv"),
                   "--truth", str(synth_dir / "truth.csv"), "--output-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        overlap = report["label_overlap"]
        assert overlap["recall"] == 1.0
        assert overlap["precision"] == 1.0
        assert report["slack"] == 1.0  # defaults to delta

    @pytest.mark.parametrize("slack", ["-1", "nan", "inf"])
    def test_usage_error_bad_slack(self, tmp_path, capsys, slack):
        rc = main(["compare", "--identified", str(tmp_path / "x.csv"),
                   "--truth", str(tmp_path / "y.csv"), f"--slack={slack}",
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "--slack must be finite and at least 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_files(self, tmp_path):
        rc = main(["compare", "--identified", str(tmp_path / "x.csv"),
                   "--truth", str(tmp_path / "y.csv"), "--output-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("directory", ["--identified", "--truth"])
    def test_directory_inputs(self, tmp_path, capsys, directory):
        files = {"--identified": tmp_path / "identified.csv", "--truth": tmp_path / "truth.csv"}
        files["--identified"].write_text("node,start,end\na,1.0,2.0\n")
        files["--truth"].write_text("node,start,end,kind\na,1,2,spike\n")
        files[directory] = tmp_path
        rc = main(["compare", "--identified", str(files["--identified"]),
                   "--truth", str(files["--truth"]), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "not a file" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["--identified", "--truth"])
    def test_not_utf8_inputs(self, tmp_path, capsys, which):
        files = {"--identified": tmp_path / "identified.csv", "--truth": tmp_path / "truth.csv"}
        files["--identified"].write_text("node,start,end\na,1.0,2.0\n")
        files["--truth"].write_text("node,start,end,kind\na,1,2,spike\n")
        files[which].write_bytes(b"node,start,end\n\xff\xfe,1.0,2.0\n")
        rc = main(["compare", "--identified", str(files["--identified"]),
                   "--truth", str(files["--truth"]), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_node_name_with_comma(self, tmp_path):
        # identify's own output must be valid compare input for any node name
        ident = tmp_path / "identified.csv"
        with open(ident, "w", encoding="utf-8") as fh:
            write_identified_csv(IdentifiedSet({0: [(29.7, 30.7)]}), ["a,b"], fh)
        assert ident.read_text() == 'node,start,end\n"a,b",29.7,30.7\n'
        truth = tmp_path / "truth.csv"
        with open(truth, "w", encoding="utf-8", newline="") as fh:
            write_ground_truth(GroundTruth([TruthEntry("a,b", 29.7, 30.7, "scan")]), fh)
        out = tmp_path / "out"
        rc = main(["compare", "--identified", str(ident), "--truth", str(truth),
                   "--output-dir", str(out)])
        assert rc == 0
        overlap = json.loads((out / "report.json").read_text())["label_overlap"]
        assert [m["node"] for m in overlap["matched"]] == ["a,b"]
        assert overlap["precision"] == overlap["recall"] == 1.0

    def test_node_named_node(self, tmp_path):
        # only the first row is a header; a node may be called "node"
        ident = tmp_path / "identified.csv"
        ident.write_text("node,start,end\nnode,1.0,2.0\nother,5.0,6.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("node,start,end,kind\nnode,1,2,spike\n")
        out = tmp_path / "out"
        rc = main(["compare", "--identified", str(ident), "--truth", str(truth),
                   "--output-dir", str(out)])
        assert rc == 0
        overlap = json.loads((out / "report.json").read_text())["label_overlap"]
        assert [m["node"] for m in overlap["matched"]] == ["node"]
        assert overlap["recall"] == 1.0
        assert overlap["precision"] == 0.5

    @pytest.mark.parametrize("row", [
        "a,1", "a,x,2,scan", pytest.param("a" * 200_000 + ",1,2,scan", id="over-long-field"),
        "a,302,300,scan", "a,-inf,inf,scan",
    ])
    def test_malformed_truth(self, tmp_path, capsys, row):
        ident = tmp_path / "identified.csv"
        ident.write_text("node,start,end\na,1.0,2.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text(f"node,start,end,kind\n{row}\n")
        rc = main(["compare", "--identified", str(ident), "--truth", str(truth),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row", [
        "a,1", "a,x,2", pytest.param("a" * 200_000 + ",1,2", id="over-long-field"),
        # times that are not finite or not ordered would read as an empty or all-covering set
        "scanner,302,300", "scanner,nan,301", "scanner,-inf,inf",
    ])
    def test_malformed_identified(self, tmp_path, capsys, row):
        ident = tmp_path / "identified.csv"
        ident.write_text(f"node,start,end\n{row}\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("node,start,end,kind\na,1,2,spike\n")
        rc = main(["compare", "--identified", str(ident), "--truth", str(truth),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"malformed identified set {ident} at line 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_header_only_identified(self, tmp_path):
        ident = tmp_path / "identified.csv"
        ident.write_text("node,start,end\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("node,start,end,kind\na,1,2,spike\n")
        out = tmp_path / "out"
        rc = main(["compare", "--identified", str(ident), "--truth", str(truth),
                   "--output-dir", str(out)])
        assert rc == 0
        overlap = json.loads((out / "report.json").read_text())["label_overlap"]
        assert overlap["identified_nodes"] == []
        assert overlap["recall"] == 0.0


# Modules that cost most of a fresh import and that identify and analyze never call;
# a plain np.unique imports numpy.ma, about 5 ms.
HEAVY_MODULES = ("scipy.stats", "scipy.optimize", "networkx", "numpy.ma")
# Every command runs without these: the special functions of the fits are
# computed in-repo, and synth pairs a regular background's stubs in-repo.
NO_SCIPY = ("scipy", "networkx")


def heavy_modules_in_fresh_run(args: list[str], heavy: tuple[str, ...] = HEAVY_MODULES) -> list[str]:
    """Run the CLI in a fresh interpreter (this test process has long since
    imported them all); returns the import line and the exit line, each with
    the packages of ``heavy`` that have a module loaded."""
    script = textwrap.dedent(f"""
        import sys
        import streamdeg.cli
        def loaded():
            return sorted(h for h in {heavy!r} if any(m == h or m.startswith(h + ".") for m in sys.modules))
        print(loaded())
        rc = streamdeg.cli.main({args!r})
        print(rc, loaded())
    """)
    src = str(Path(streamdeg.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return [lines[0], lines[-1]]


def test_identify_imports_no_heavy_modules(tmp_path):
    trace = tmp_path / "steady.txt"
    write_steady_trace(trace, 60)
    args = ["identify", "--trace", str(trace), "--output-dir", str(tmp_path / "out")]
    assert heavy_modules_in_fresh_run(args) == ["[]", "0 []"]


def test_analyze_power_law_runs_with_scipy_blocked(synth_dir, tmp_path):
    """A fresh interpreter in which ``import scipy`` fails writes the report
    of a normal run."""
    args = ["analyze", "--trace", str(synth_dir / "trace.txt"), "--power-law", "--bootstrap-count", "100"]
    blocked = [*args, "--output-dir", str(tmp_path / "blocked")]
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        import streamdeg.cli
        sys.exit(streamdeg.cli.main({blocked!r}))
    """)
    src = str(Path(streamdeg.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert main([*args, "--output-dir", str(tmp_path / "normal")]) == 0
    report = read_bytes(tmp_path / "blocked" / "report.json")
    assert report == read_bytes(tmp_path / "normal" / "report.json")
    assert "alpha_hat" in json.loads(report)["power_law"]


def test_synth_regular_imports_no_heavy_modules(scenario_file, tmp_path):
    assert json.loads(scenario_file.read_text()).get("background_model", "regular") == "regular"
    args = ["synth", "--scenario", str(scenario_file), "--output-dir", str(tmp_path / "out")]
    assert heavy_modules_in_fresh_run(args, NO_SCIPY) == ["[]", "0 []"]


@pytest.fixture(scope="module")
def poisson_identified(poisson_sources, tmp_path_factory):
    """The poisson trace and the output directory of ``identify`` on it."""
    trace, _ = poisson_sources
    out = tmp_path_factory.mktemp("poisson_identified")
    assert main(["identify", "--trace", str(trace), "--output-dir", str(out)]) == 0
    return trace, out


SCIPY_FREE_COMMANDS = {
    "identify": lambda trace, run: ["identify", "--trace", str(trace)],
    "identify-cache": lambda trace, run: ["identify", "--trace", str(run / "cleaned_stream.bin")],
    "analyze": lambda trace, run: ["analyze", "--trace", str(trace), "--ks-report"],
    "analyze-power-law": lambda trace, run: ["analyze", "--trace", str(trace), "--power-law",
                                             "--bootstrap-count", "100"],
    "validate": lambda trace, run: ["validate", "--trace", str(trace)],
    "compare": lambda trace, run: ["compare", "--identified", str(run / "identified.csv"),
                                   "--truth", str(trace.parent / "truth.csv")],
}


@pytest.mark.parametrize("command", sorted(SCIPY_FREE_COMMANDS))
def test_commands_import_no_scipy(poisson_identified, tmp_path, command):
    # the poisson trace has AN classes, so the class fits run
    args = SCIPY_FREE_COMMANDS[command](*poisson_identified) + ["--output-dir", str(tmp_path / "out")]
    assert heavy_modules_in_fresh_run(args, NO_SCIPY) == ["[]", "0 []"]
