"""Command-line front end: trace -> pipeline -> reports.

Subcommands: synth, analyze, identify, validate, sweep, compare.  Exit codes:
0 success, 1 usage error, 2 data error.  Every run with a fixed seed writes
byte-identical outputs; sweep.csv's runtime column is the one documented
exception (wall-clock is not reproducible).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import intervals as iv
from .config import ENV_PREFIX, RunConfig, load_config
from .linkstream import LinkStream, build_stream
from .pipeline import (
    IdentifiedSet,
    PipelineParams,
    classify_classes,
    detect_events,
    event_statuses,
    write_events_csv,
    write_removal_log,
)
from .reporting import (
    build_report,
    class_count_summary,
    label_overlap,
    run_pipeline_once,
    smallest_identifiable_degree,
    sweep,
    validate_removal,
    write_report,
    write_series_csv,
)
from .robust_stats import MIN_BOOTSTRAP, InsufficientSupportError, power_law_test
from .slicing import (
    LatticeError,
    TimeSliceGrid,
    build_scheme,
    fraction_matrix,
    ks_similarity_report,
    slice_value_measures,
)
from .trace_io import (
    TraceFormatError,
    generate_synthetic,
    parse_trace,
    read_csv_records,
    read_ground_truth,
    scenario_from_dict,
    write_ground_truth,
    write_trace,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--output-dir", default=".", help="directory for output files")
    p.add_argument("--delta", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--r", dest="class_ratio", type=float, help="degree class ratio")
    p.add_argument("--sigma-mult", dest="sigma_mult", type=float)
    p.add_argument("--grubbs-alpha", dest="grubbs_alpha", type=float)
    p.add_argument("--ks-alpha", dest="ks_alpha", type=float)
    p.add_argument("--two-sample-alpha", dest="two_sample_alpha", type=float)
    p.add_argument("--zero-majority", dest="zero_majority", type=float)
    p.add_argument("--normalized", action="store_const", const=True, default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--ks-size-mode", dest="ks_size_mode", choices=["support-extent", "observation-count"])
    p.add_argument("--rollback-fit", dest="rollback_fit", choices=["refit", "frozen"])
    p.add_argument("--threads", type=int, help="accepted; sweep points always run in order")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    try:
        return load_config(getattr(args, "config", None), overrides)
    except FileNotFoundError as exc:
        raise DataError(f"config file not found: {exc.filename}") from exc
    except OSError as exc:  # a directory, unreadable, ...
        raise DataError(f"cannot read config file {exc.filename}: {exc.strerror}") from exc
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"bad configuration: {exc}") from exc


def _load_stream(path: str, cfg: RunConfig) -> LinkStream:
    p = Path(path)
    if not p.exists():
        raise DataError(f"trace file not found: {path}")
    if not p.is_file():
        raise DataError(f"trace path is not a file: {path}")
    with open(p, "rb") as fh:
        head = fh.read(4)
        fh.seek(0)
        if head == LinkStream.MAGIC:
            try:
                stream = LinkStream.load(fh)
            except ValueError as exc:  # truncated, a bad version, count, name or record
                raise DataError(f"bad stream cache {path}: {exc}") from exc
            if stream.delta != cfg.delta:
                raise DataError(f"stream cache {path} has delta {stream.delta}, not delta {cfg.delta}")
        else:
            try:
                triplets, meta = parse_trace(fh)
            except TraceFormatError as exc:
                raise DataError(f"malformed trace {path}: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise DataError(f"trace {path} is not UTF-8 text: {exc}") from exc
            stream = build_stream(triplets, meta.node_names, cfg.delta)
    if stream.num_nodes == 0:
        raise DataError(f"trace {path} has no interactions")
    return stream


def _grid_for(stream: LinkStream, cfg: RunConfig) -> TimeSliceGrid:
    try:
        grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, cfg.tau)
    except OverflowError:  # the span over tau is infinite
        raise DataError(f"the trace span needs infinitely many slices of tau {cfg.tau:g} s") from None
    rest = stream.t_end - grid.end
    if rest > 1e-12:
        print(f"warning: dropping trailing partial slice "
              f"({rest:.6g} s of {stream.t_end - grid.origin:.6g} s)", file=sys.stderr)
    return grid


@contextlib.contextmanager
def _span_in_memory(grid: TimeSliceGrid):
    """Turn an array numpy refuses outright, one row per slice or one entry per
    second of the trace span, and an r that leaves no class lattice, into a data error."""
    try:
        yield
    except LatticeError as exc:
        raise DataError(str(exc)) from None
    except MemoryError as exc:
        count = grid.count if grid.count <= np.iinfo(np.intp).max else "at least 2^63"
        raise DataError(f"the trace span needs {count} slices of tau {grid.tau:g} s, "
                        f"more than numpy can allocate ({exc})") from exc


def _pipeline_params(cfg: RunConfig) -> PipelineParams:
    return PipelineParams(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(PipelineParams)})


# the files that the command ``main`` runs has opened for writing: ``main``
# removes them when the command ends in a data error, so it leaves no output
_created: list[Path] = []


def _create(path: Path, mode: str, **kwargs):
    """``open`` for an output file, making its directory; a failure is a data error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, mode, **kwargs)
    except OSError as exc:  # a file on the path, a directory of the file's name, ...
        raise DataError(f"cannot write output {exc.filename or path}: {exc.strerror}") from exc
    _created.append(path)
    return fh


def _write_report(out: Path, cfg: RunConfig, blocks: dict) -> None:
    with _create(out / "report.json", "w", encoding="utf-8") as fh:
        write_report(build_report(cfg.to_dict(), blocks), fh)


def write_identified_csv(identified: IdentifiedSet, node_names, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["node", "start", "end"])
    for node, (s, e) in identified.victims():
        writer.writerow([node_names[node], repr(s), repr(e)])


def read_identified_csv(path: Path) -> tuple[IdentifiedSet, list[str]]:
    """Rows ``node,start,end`` as ``write_identified_csv`` writes them, read
    by ``read_csv_records``, with finite times and start before end; nodes are
    indexed in order of first appearance."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    entries: dict[str, list] = {}
    try:
        for line, (name, s, e) in read_csv_records(text, ("node", "start", "end")):
            start, end = float(s), float(e)
            if not -math.inf < start < end < math.inf:
                raise ValueError
            entries.setdefault(name, []).append((start, end))
    except TraceFormatError as exc:  # a field count, an over-long field
        raise DataError(f"malformed identified set {path} at line {exc.line_no}") from None
    except ValueError:  # a time, or an interval
        raise DataError(f"malformed identified set {path} at line {line}") from None
    merged = [iv.merge(spans) for spans in entries.values()]
    return IdentifiedSet(dict(enumerate(merged))), list(entries)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = _config_from_args(args)
    path = Path(args.scenario)
    if not path.is_file():
        raise DataError(f"scenario file not found or not a file: {args.scenario}")
    try:
        spec = scenario_from_dict(json.loads(path.read_text()))
        spec.validate()
    except (LookupError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"bad scenario {args.scenario}: {exc}") from exc
    try:
        triplets, meta, truth = generate_synthetic(spec, cfg.seed)
    except (ValueError, MemoryError) as exc:  # numpy cannot size or allocate an array
        raise DataError(f"bad scenario {args.scenario}: too large to build: {exc}") from exc
    out = Path(args.output_dir)
    with _create(out / "trace.txt", "w", encoding="utf-8") as fh:
        write_trace(triplets, meta.node_names, fh)
    with _create(out / "truth.csv", "w", encoding="utf-8", newline="") as fh:
        write_ground_truth(truth, fh)
    _write_report(out, cfg, {
        "synth": {
            "triplet_count": meta.triplet_count,
            "node_count": meta.node_count,
            "t_min": meta.t_min,
            "t_max": meta.t_max,
            "truth_entries": len(truth.entries),
        }
    })
    print(f"wrote {meta.triplet_count} triplets, {meta.node_count} nodes -> {out / 'trace.txt'}")
    return EXIT_OK


def _analysis_blocks(stream, grid, scheme, labels, events):
    return {
        "stream": {
            "nodes": stream.num_nodes,
            "pairs": stream.num_pairs,
            "link_seconds": stream.total_link_seconds(),
            "t_begin": stream.t_begin,
            "t_end": stream.t_end,
        },
        "grid": {"origin": grid.origin, "tau": grid.tau, "slices": grid.count},
        "scheme": {"ratio": scheme.ratio, "classes": len(scheme)},
        "labels": class_count_summary(labels),
        "events": {"detected": len(events)},
    }


def cmd_analyze(args) -> int:
    cfg = _config_from_args(args)
    if args.power_law and args.bootstrap_count < MIN_BOOTSTRAP:
        raise UsageError(f"--bootstrap-count must be at least {MIN_BOOTSTRAP}")
    stream = _load_stream(args.trace, cfg)
    grid = _grid_for(stream, cfg)
    with _span_in_memory(grid):
        scheme, view = build_scheme(stream, cfg.class_ratio, cfg.normalized)
        matrix = fraction_matrix(stream, grid, scheme, view)
    labels = classify_classes(matrix, cfg.grubbs_alpha, cfg.ks_alpha, cfg.zero_majority)
    events = detect_events(matrix, labels, cfg.sigma_mult)

    out = Path(args.output_dir)
    with _create(out / "matrix.csv", "w", encoding="utf-8", newline="") as fh:
        matrix.write_csv(fh)
    with _create(out / "matrix_meta.json", "w", encoding="utf-8") as fh:
        matrix.write_sidecar(fh)
    with _create(out / "labels.csv", "w", encoding="utf-8") as fh:
        fh.write("class,verdict,zero_share,mu,sigma\n")
        for lab in labels:
            mu = repr(lab.fit.mu) if lab.fit else ""
            sigma = repr(lab.fit.sigma) if lab.fit else ""
            fh.write(f"{lab.class_index},{lab.verdict},{lab.zero_share!r},{mu},{sigma}\n")
    with _create(out / "events.csv", "w", encoding="utf-8") as fh:
        write_events_csv(events, {}, fh)

    blocks = _analysis_blocks(stream, grid, scheme, labels, events)
    if args.ks_report:
        sim = ks_similarity_report(slice_value_measures(stream, grid, view), cfg.two_sample_alpha,
                                   cfg.ks_size_mode, cfg.delta)
        with _create(out / "ks_ratios.csv", "w", encoding="utf-8") as fh:
            fh.write("slice_a,slice_b,ratio\n")
            for (a, b), ratio in zip(sim.pairs, sim.ratios):
                fh.write(f"{a},{b},{float(ratio)!r}\n")
        blocks["ks_similarity"] = {
            "fraction_above_one": sim.fraction_above_one,
            "pairs": len(sim.pairs),
            "skipped_slices": sim.skipped_slices,
        }
    if args.power_law:
        counts: dict[int, float] = {}
        for acc in slice_value_measures(stream, grid):
            for k, m in acc.items():
                counts[int(k)] = counts.get(int(k), 0.0) + m
        degrees = sorted(counts)
        # couple-time measure converted to counts, one observation per delta
        samples = np.repeat(degrees, [max(1, round(counts[k] / cfg.delta)) for k in degrees])
        try:
            verdict = power_law_test(
                samples, bootstrap_count=args.bootstrap_count,
                significance=cfg.ks_alpha, seed=cfg.seed,
            )
            blocks["power_law"] = {
                k: v for k, v in dataclasses.asdict(verdict).items() if k != "ks_stat"
            }
        except InsufficientSupportError as exc:
            blocks["power_law"] = {"error": str(exc)}
    _write_report(out, cfg, blocks)
    print(f"{grid.count} slices, {len(scheme)} classes, {len(events)} events detected")
    return EXIT_OK


def _run_identify(args, cfg):
    stream = _load_stream(args.trace, cfg)
    with _span_in_memory(_grid_for(stream, cfg)):
        return stream, run_pipeline_once(stream, cfg.tau, cfg.class_ratio, _pipeline_params(cfg))


def cmd_identify(args) -> int:
    cfg = _config_from_args(args)
    stream, result = _run_identify(args, cfg)
    out = Path(args.output_dir)
    names = stream.node_names
    with _create(out / "removal_log.jsonl", "w", encoding="utf-8") as fh:
        write_removal_log(result.log, names, fh)
    with _create(out / "identified.csv", "w", encoding="utf-8") as fh:
        write_identified_csv(result.identified_set, names, fh)
    with _create(out / "events.csv", "w", encoding="utf-8") as fh:
        write_events_csv(result.detected_events, event_statuses(result), fh)
    with _create(out / "cleaned_stream.bin", "wb") as fh:
        result.final_stream.save(fh)
    blocks = {
        "identification": {
            "detected": len(result.detected_events),
            "identified": len(result.identified_events),
            "residual": len(result.residual_events),
            "rolled_back": len(result.rolled_back_events),
            "applied_removals": result.applied_count,
            "removed_share": result.removed_share,
            "identified_measure": result.identified_set.measure,
            "identified_nodes": sorted(names[n] for n in result.identified_set.nodes()),
            "k_id": smallest_identifiable_degree(result),
            "class_counts": class_count_summary(result.initial.labels),
            "residual_under_initial_labels": result.residual_under_initial_labels,
        }
    }
    _write_report(out, cfg, blocks)
    print(
        f"detected {len(result.detected_events)}, identified {len(result.identified_events)}, "
        f"removed {result.removed_share:.2%} of traffic"
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _config_from_args(args)
    stream, result = _run_identify(args, cfg)
    report_block = validate_removal(stream, result.final_stream, result, cfg.grubbs_alpha, cfg.ks_alpha)
    out = Path(args.output_dir)
    with _create(out / "series_before.csv", "w", encoding="utf-8", newline="") as fh:
        write_series_csv(report_block.before.series, fh)
    with _create(out / "series_after.csv", "w", encoding="utf-8", newline="") as fh:
        write_series_csv(report_block.after.series, fh)
    _write_report(out, cfg, {"validation": report_block.to_dict()})
    print(
        f"outlying seconds {report_block.before.outlying_seconds} -> "
        f"{report_block.after.outlying_seconds}, mean change "
        f"{report_block.relative_mean_change:.2%}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    stream = _load_stream(args.trace, cfg)
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError:
        raise UsageError(f"cannot parse sweep values {args.values!r}")
    if args.reference is None or args.reference not in values:
        raise UsageError("--reference must be one of --values")
    swept = "tau" if args.axis == "tau" else "class_ratio"
    for value in values:
        try:
            dataclasses.replace(cfg, **{swept: value}).validate()
        except ValueError as exc:
            raise UsageError(f"bad sweep value {value!r}: {exc}") from exc
    report = sweep(
        stream, args.axis, values, args.reference, cfg.tau, cfg.class_ratio,
        _pipeline_params(cfg), threads=cfg.threads,
    )
    ref_error = report.points[values.index(args.reference)].error
    if ref_error:
        raise DataError(f"reference point {args.reference!r} failed, so no Jaccard value exists: "
                        f"{ref_error}")
    out = Path(args.output_dir)
    with _create(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        report.write_csv(fh)
    _write_report(out, cfg, {"sweep": report.to_dict(include_runtime=False)})
    print(f"swept {args.axis} over {len(values)} values")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    if args.slack is not None and not 0 <= args.slack < math.inf:  # nan fails too
        raise UsageError("--slack must be finite and at least 0")
    ident_path = Path(args.identified)
    truth_path = Path(args.truth)
    if not ident_path.is_file():
        raise DataError(f"identified set not found or not a file: {args.identified}")
    if not truth_path.is_file():
        raise DataError(f"truth file not found or not a file: {args.truth}")
    try:
        identified, names = read_identified_csv(ident_path)
    except UnicodeDecodeError as exc:
        raise DataError(f"identified set {args.identified} is not UTF-8 text: {exc}") from exc
    try:
        with open(truth_path, "r", encoding="utf-8") as fh:
            truth = read_ground_truth(fh)
    except TraceFormatError as exc:
        raise DataError(f"malformed truth file {args.truth}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"truth file {args.truth} is not UTF-8 text: {exc}") from exc
    slack = args.slack if args.slack is not None else cfg.delta
    overlap = label_overlap(identified, names, truth, slack)
    out = Path(args.output_dir)
    _write_report(out, cfg, {"label_overlap": overlap.to_dict(), "slack": slack})
    print(f"precision {overlap.precision:.3f}, recall {overlap.recall:.3f}")
    return EXIT_OK


def make_parser() -> _Parser:
    parser = _Parser(
        prog="streamdeg",
        description="Degree-based anomaly detection in link streams",
        epilog=f"Environment overrides: {ENV_PREFIX}<FIELD> (e.g. {ENV_PREFIX}TAU=1.0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labelled synthetic trace")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("analyze", help="fraction matrix, class labels, events")
    p.add_argument("--trace", required=True)
    p.add_argument("--ks-report", action="store_true", help="all-pairs slice similarity")
    p.add_argument("--power-law", action="store_true", help="test the global degree distribution")
    p.add_argument("--bootstrap-count", type=int, default=250)
    _add_config_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("identify", help="iterative removal identification")
    p.add_argument("--trace", required=True, help="text trace or binary stream cache")
    _add_config_flags(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("validate", help="identification plus before/after validation")
    p.add_argument("--trace", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="parameter sweep with Jaccard stability")
    p.add_argument("--trace", required=True)
    p.add_argument("--axis", required=True, choices=["tau", "r"])
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--reference", type=float, required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="score an identified set against ground truth")
    p.add_argument("--identified", required=True, help="identified.csv from identify")
    p.add_argument("--truth", required=True, help="ground truth CSV")
    p.add_argument("--slack", type=float, help="temporal slack in seconds (default: delta)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        _created.clear()
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        for path in _created:
            path.unlink(missing_ok=True)
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
