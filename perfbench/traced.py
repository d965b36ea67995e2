"""One pass of a workload in a single process, with or without spans.

    python3 perfbench/traced.py --workload NAME --trace-dir DIR --out DIR \
        --record 0|1 --result FILE

The pass calls the public functions of each ``streamdeg`` module in the order
the CLI subcommands call them.  With ``--record 1`` it records a span (name,
start, end, parent) around every call into a layer.  A span's layer is the
part of its name before the first dot; a layer's self time is the time its
spans cover minus the time covered by their child spans.  Spans stay in memory
and are written to the result file when the pass ends, with the pass's total
time, its counts and its failed checks.

run.py starts one pass with recording off and one with it on, each in a fresh
interpreter as a CLI command would be, so the difference between their totals
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from streamdeg import (
    LinkStream,
    RunConfig,
    TimeSliceGrid,
    build_class_scheme,
    build_normalized_scheme,
    build_stream,
    classify_classes,
    detect_events,
    fraction_matrix,
    ks_similarity_report,
    label_overlap,
    normalize_degrees,
    parse_trace,
    power_law_test,
    read_ground_truth,
    run_identification,
    slice_value_measures,
    sweep,
    validate_removal,
)
from streamdeg.cli import _pipeline_params, write_identified_csv
from streamdeg.pipeline import event_statuses, write_events_csv, write_removal_log
from streamdeg.reporting import build_report, write_report, write_series_csv
from streamdeg.robust_stats import InsufficientSupportError

from workloads import WORKLOADS, Workload

LAYERS = ("trace_io", "linkstream", "slicing", "robust_stats", "pipeline", "reporting", "cli")
BOOTSTRAP_COUNT = 100
SWEEP_TAUS = [2.0, 4.0]


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span recorder; with ``enabled`` false it records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = Span(name, self._open[-1] if self._open else None, time.perf_counter())
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._open.pop()


def span_cost_s(repeats: int = 10_000) -> float:
    """Measured cost of recording one empty span."""
    rec = Recorder(True)
    start = time.perf_counter()
    for _ in range(repeats):
        with rec.span("x.y"):
            pass
    return (time.perf_counter() - start) / repeats


def self_times(spans: list[Span], root: str | None = None) -> dict[str, float]:
    """Per-layer self time: span durations minus their children's durations,
    over all spans or over those under the top-level spans named ``root``."""
    child_time = [0.0] * len(spans)
    top: list[int] = []
    for i, s in enumerate(spans):
        if s.parent is not None:
            child_time[s.parent] += s.duration
        top.append(i if s.parent is None else top[s.parent])
    out = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        if root is None or spans[top[i]].name == root:
            out[s.name.split(".", 1)[0]] += s.duration - child_time[i]
    return out


def _power_law_samples(measures, delta: float) -> list[int]:
    # the conversion cmd_analyze applies before power_law_test
    counts: dict[int, float] = {}
    for acc in measures:
        for k, m in acc.items():
            counts[int(k)] = counts.get(int(k), 0.0) + m
    samples: list[int] = []
    for k in sorted(counts):
        samples.extend([k] * max(1, round(counts[k] / delta)))
    return samples


def run_sequence(rec: Recorder, wl: Workload, trace_dir: Path, out: Path, check) -> dict:
    """analyze, identify, re-identify, validate, both sweeps and compare.

    ``check(ok, what)`` records one output check.  Returns the facts the
    per-layer metrics need that spans do not carry.
    """
    cfg = RunConfig(normalized=wl.normalized)
    params = _pipeline_params(cfg)
    out.mkdir(parents=True, exist_ok=True)
    facts: dict = {}

    def load_trace() -> LinkStream:
        with rec.span("trace_io.parse"):
            with open(trace_dir / "trace.txt", "rb") as fh:
                triplets, meta = parse_trace(fh)
        with rec.span("linkstream.build"):
            stream = build_stream(triplets, meta.node_names, cfg.delta)
        facts.setdefault("trace_io.triplets", len(triplets))
        return stream

    def scheme_for(stream: LinkStream, probe: bool):
        # cli._scheme_for / reporting.run_pipeline_once; with ``probe`` the
        # path the workload does not take is timed as well
        view = None
        if probe or not cfg.normalized:
            with rec.span("linkstream.profiles"):
                k_max = stream.max_degree()
        if probe or cfg.normalized:
            with rec.span("linkstream.series"):
                series = stream.mean_degree_per_second()
            with rec.span("linkstream.normalized_max"):
                view = normalize_degrees(stream, series)
                top = view.max_value()
        if cfg.normalized:
            return build_normalized_scheme(max(top, 1e-9), cfg.class_ratio), view
        return build_class_scheme(max(k_max, 1), cfg.class_ratio), None

    def pipeline_once(stream: LinkStream, span_name: str):
        with rec.span("reporting.run_pipeline_once"):
            grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, cfg.tau)
            scheme, _ = scheme_for(stream, probe=False)
            with rec.span(span_name):
                return run_identification(stream, grid, scheme, params)

    def write_identify_outputs(result, stream: LinkStream, directory: Path) -> None:
        directory.mkdir(exist_ok=True)
        names = stream.node_names
        with open(directory / "removal_log.jsonl", "w", encoding="utf-8") as fh:
            write_removal_log(result.log, names, fh)
        with open(directory / "identified.csv", "w", encoding="utf-8") as fh:
            write_identified_csv(result.identified_set, names, fh)
        with open(directory / "events.csv", "w", encoding="utf-8") as fh:
            write_events_csv(result.detected_events, event_statuses(result), fh)
        with rec.span("linkstream.save"):
            with open(directory / "cleaned_stream.bin", "wb") as fh:
                result.final_stream.save(fh)

    # -- analyze ------------------------------------------------------------
    with rec.span("cli.analyze"):
        stream = load_trace()
        grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, cfg.tau)
        scheme, view = scheme_for(stream, probe=True)
        with rec.span("slicing.matrix"):
            matrix = fraction_matrix(stream, grid, scheme, view)
        with rec.span("pipeline.classify"):
            labels = classify_classes(matrix, cfg.grubbs_alpha, cfg.ks_alpha, cfg.zero_majority)
            events = detect_events(matrix, labels, cfg.sigma_mult)
        with rec.span("slicing.ks_report"):
            measures = slice_value_measures(stream, grid, view)
            sim = ks_similarity_report(measures, cfg.two_sample_alpha, cfg.ks_size_mode, cfg.delta)
        with open(out / "matrix.csv", "w", encoding="utf-8", newline="") as fh:
            matrix.write_csv(fh)
        with open(out / "events.csv", "w", encoding="utf-8") as fh:
            write_events_csv(events, {}, fh)
    rows = matrix.row_sums()
    check(bool((abs(rows - 1.0) <= 1e-9).all()), "a fraction-matrix row does not sum to 1")
    facts.update({
        "linkstream.pairs": len(stream.links),
        "linkstream.intervals": sum(len(ivs) for ivs in stream.links.values()),
        "linkstream.profile_segments": sum(
            len(stream.degree_profile(n).values) for n in range(stream.num_nodes)
        ),
        "slicing.slices": grid.count,
        "slicing.classes": len(scheme),
        "slicing.ks_pairs": len(sim.pairs),
    })

    # -- identify -----------------------------------------------------------
    with rec.span("cli.identify"):
        stream = load_trace()
        result = pipeline_once(stream, "pipeline.identify")
        write_identify_outputs(result, stream, out / "identify")
    statuses = [r.status for r in result.log]
    facts.update({
        "pipeline.attempts": len(statuses),
        "pipeline.applied": statuses.count("applied"),
        "pipeline.rolled_back": statuses.count("rolled-back"),
        "pipeline.cascade": statuses.count("cascade"),
        "linkstream.cache_bytes": (out / "identify" / "cleaned_stream.bin").stat().st_size,
    })

    # -- re-identify on the cleaned cache -------------------------------------
    with rec.span("cli.reidentify"):
        with rec.span("linkstream.load"):
            with open(out / "identify" / "cleaned_stream.bin", "rb") as fh:
                cleaned = LinkStream.load(fh)
        again = pipeline_once(cleaned, "pipeline.reidentify")
        write_identify_outputs(again, cleaned, out / "reidentify")
    facts["pipeline.reidentify_applied"] = again.applied_count

    # -- power-law test, as analyze --power-law ------------------------------
    # it and the sweeps run on the raw trace where the workload's CLI runs
    # them, otherwise on the cleaned cache: the injected tails of the other
    # traces make the k_min scan of the raw fit take about a minute, and a
    # sweep of the raw trace repeats the whole removal loop at every point
    source = stream if "--power-law" in wl.analyze_flags else cleaned
    with rec.span("cli.analyze_power_law"):
        with rec.span("robust_stats.power_law"):
            samples = _power_law_samples(
                slice_value_measures(source, TimeSliceGrid.covering(source.t_begin, source.t_end, cfg.tau)),
                cfg.delta)
            try:
                power_law_test(samples, bootstrap_count=BOOTSTRAP_COUNT,
                               significance=cfg.ks_alpha, seed=cfg.seed)
            except InsufficientSupportError:
                pass
    if wl.expect_reidentify_applied is not None:
        check(again.applied_count == wl.expect_reidentify_applied,
              f"re-identify applied {again.applied_count} removals")

    # -- validate -----------------------------------------------------------
    with rec.span("cli.validate"):
        with rec.span("reporting.validate"):
            validation = validate_removal(stream, result.final_stream, result,
                                          cfg.grubbs_alpha, cfg.ks_alpha)
        with open(out / "series_before.csv", "w", encoding="utf-8", newline="") as fh:
            write_series_csv(validation.before.series, fh)
        with open(out / "series_after.csv", "w", encoding="utf-8", newline="") as fh:
            write_series_csv(validation.after.series, fh)
    if wl.expect_fewer_outlying:
        check(validation.after.outlying_seconds < validation.before.outlying_seconds,
              "validation did not lower the outlying seconds")

    # -- sweeps -------------------------------------------------------------
    reports = []
    for threads, name in ((1, "sweep"), (2, "sweep_t2")):
        with rec.span(f"cli.{name}"):
            with rec.span(f"reporting.{name}"):
                report = sweep(source, "tau", SWEEP_TAUS, cfg.tau, cfg.tau, cfg.class_ratio,
                               params, threads=threads)
            buf = io.StringIO()
            write_report(build_report(cfg.to_dict(), {"sweep": report.to_dict(include_runtime=False)}), buf)
        reports.append(buf.getvalue())
    check(reports[0] == reports[1], "sweep report differs between 1 and 2 threads")

    # -- compare ------------------------------------------------------------
    if wl.compare:
        with rec.span("cli.compare"):
            with rec.span("trace_io.read_ground_truth"):
                with open(trace_dir / "truth.csv", "r", encoding="utf-8") as fh:
                    truth = read_ground_truth(fh)
            with rec.span("reporting.label_overlap"):
                overlap = label_overlap(result.identified_set, stream.node_names, truth, cfg.delta)
        if wl.expect_recall is not None:
            check(overlap.recall == wl.expect_recall, f"recall {overlap.recall}")
        if wl.expect_precision is not None:
            check(overlap.precision == wl.expect_precision, f"precision {overlap.precision}")
    return facts


def build_peak_mb(trace_dir: Path) -> float:
    """Peak traced Python allocation while building the stream, in MiB."""
    with open(trace_dir / "trace.txt", "rb") as fh:
        triplets, meta = parse_trace(fh)
    tracemalloc.start()
    try:
        build_stream(triplets, meta.node_names, RunConfig().delta)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(spans: list[Span], facts: dict) -> dict[str, float]:
    """Per-layer metrics: the first call of each timed function, the counts,
    and every layer's self time."""
    first: dict[str, float] = {}
    for s in spans:
        first.setdefault(s.name, s.duration)
    m = {
        "trace_io.parse_s": first["trace_io.parse"],
        "linkstream.build_s": first["linkstream.build"],
        "linkstream.profiles_s": first["linkstream.profiles"],
        "linkstream.series_s": first["linkstream.series"],
        "linkstream.normalized_max_s": first["linkstream.normalized_max"],
        "linkstream.save_s": first["linkstream.save"],
        "linkstream.load_s": first["linkstream.load"],
        "slicing.matrix_s": first["slicing.matrix"],
        "slicing.ks_report_s": first["slicing.ks_report"],
        "robust_stats.power_law_s": first["robust_stats.power_law"],
        "pipeline.classify_s": first["pipeline.classify"],
        "pipeline.identify_s": first["pipeline.identify"],
        "pipeline.reidentify_s": first["pipeline.reidentify"],
        "reporting.validate_s": first["reporting.validate"],
        "reporting.sweep_s": first["reporting.sweep"],
        "reporting.sweep_t2_s": first["reporting.sweep_t2"],
    }
    m.update(facts)
    attempts = facts["pipeline.attempts"]
    m["pipeline.attempt_s"] = m["pipeline.identify_s"] / attempts if attempts else 0.0
    m["pipeline.applied_ratio"] = facts["pipeline.applied"] / attempts if attempts else 0.0
    for layer, value in self_times(spans).items():
        m[f"{layer}.self_s"] = value
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace-dir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--record", required=True, type=int, choices=(0, 1))
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()
    checks = {"attempted": 0, "problems": []}

    def check(ok: bool, what: str) -> None:
        checks["attempted"] += 1
        if not ok:
            checks["problems"].append(what)

    rec = Recorder(bool(args.record))
    start = time.perf_counter()
    facts = run_sequence(rec, WORKLOADS[args.workload], args.trace_dir, args.out, check)
    total = time.perf_counter() - start
    args.result.write_text(json.dumps({
        "total_s": total, "facts": facts, **checks,
        "spans": [vars(s) for s in rec.spans],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
