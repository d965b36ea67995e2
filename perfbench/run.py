#!/usr/bin/env python3
"""Benchmark of the streamdeg CLI on synthetic link-stream workloads.

    python3 perfbench/run.py --workload regular-bulk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from ``src``.

``--trace 0``: set-up generates the workload's trace from the seed, five
times or more.  The run then calls the real ``streamdeg`` subcommands on it as
child processes, one at a time, in passes that repeat until ``--seconds`` have
gone by, and at least twice so that repeated outputs can be compared byte for
byte.  It reports the median wall time of each subcommand, the median set-up
time and the peak RSS of the children.

``--trace 1``: the workload's layer calls run in a fresh interpreter, once
without and once with a span around every call into a layer (see traced.py),
and the run reports per-layer metrics and the tracing overhead.

Both modes check the outputs and print every metric by name with its unit.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts commands and
output checks; ``failed`` counts the commands that exited non-zero and the
checks that failed.  Full samples, and the spans of a traced run, are written
to ``.perfbench_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # a run has to end within 180 s
SETUP_REPEATS = 5
SETUP_BUDGET_S = 2.0
IMPORT_REPEATS = 3
CLI_ENTRY = "import sys; from streamdeg.cli import main; sys.exit(main())"
HASHED = ("report.json", "removal_log.jsonl", "events.csv", "identified.csv", "matrix.csv")
COMMANDS = ("analyze_s", "identify_s", "reidentify_s")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def calibration_s() -> float:
    """Fixed pure-Python work: a host-noise probe, not a metric."""
    start = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


class Tally:
    """Counts operations (commands and output checks) and the failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


class Children:
    """Runs child interpreters one at a time."""

    def __init__(self, run_start: float, log: Path):
        self.run_start = run_start
        self.log = log
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("STREAMDEG_")}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, args: list[str]) -> tuple[int | str, float]:
        """Exit code and wall time of ``python3 ARGS``; the child is killed at
        the run's time limit, and its exit code is then ``"timeout"``."""
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.run_start))
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            try:
                rc = subprocess.run([sys.executable, *args], stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
            return rc, time.perf_counter() - start

    @staticmethod
    def peak_rss_mb() -> float:
        """The largest maximum RSS of any child waited for so far."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def cli(self, args: list[str]) -> tuple[int | str, float]:
        return self.run(["-c", CLI_ENTRY, *args])


def file_hashes(directory: Path, names=HASHED) -> dict[str, str]:
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.name in names:
            out[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def make_trace(wl: Workload, seed: int, directory: Path) -> float:
    """Generate one trace plus its ground truth; returns the seconds taken."""
    from streamdeg.trace_io import (
        generate_synthetic, scenario_from_dict, write_ground_truth, write_trace,
    )

    start = time.perf_counter()
    triplets, meta, truth = generate_synthetic(scenario_from_dict(wl.scenario), seed)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "trace.txt", "w", encoding="utf-8") as fh:
        write_trace(triplets, meta.node_names, fh)
    with open(directory / "truth.csv", "w", encoding="utf-8", newline="") as fh:
        write_ground_truth(truth, fh)
    return time.perf_counter() - start


def setup(wl: Workload, seed: int, run_dir: Path, check: Tally) -> tuple[Path, list[float]]:
    """Generate the trace at least SETUP_REPEATS times, and until SETUP_BUDGET_S
    have been timed; every copy must be identical."""
    trace_dir = run_dir / "trace"
    times = [make_trace(wl, seed, trace_dir)]
    names = ("trace.txt", "truth.csv")
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_BUDGET_S:
        again = run_dir / "setup-repeat"
        times.append(make_trace(wl, seed, again))
        check(file_hashes(again, names) == file_hashes(trace_dir, names),
              "trace generation gave different bytes for the same seed")
        shutil.rmtree(again)
    return trace_dir, times


def matrix_rows_sum_to_one(path: Path) -> bool:
    sums: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            slice_index, _, fraction = line.rstrip("\n").split(",")
            sums[slice_index] = sums.get(slice_index, 0.0) + float(fraction)
    return bool(sums) and all(abs(s - 1.0) <= 1e-9 for s in sums.values())


def run_pass(wl: Workload, trace_dir: Path, pass_dir: Path, children: Children, samples: dict,
             facts: dict, check: Tally, first: bool) -> dict[str, str] | None:
    """One pass of the workload's subcommands over the trace.

    Returns the hashes of the deterministic outputs, or None when a command
    failed.  Content checks run on the first pass; later passes are checked
    by comparing hashes with it.
    """
    trace = str(trace_dir / "trace.txt")
    cache = str(pass_dir / "identify" / "cleaned_stream.bin")
    flags = list(wl.config_flags)
    steps = [
        ("analyze_s", ["analyze", "--trace", trace, *wl.analyze_flags, *flags], "analyze"),
        ("identify_s", ["identify", "--trace", trace, *flags], "identify"),
        ("reidentify_s", ["identify", "--trace", cache, *flags], "reidentify"),
    ]
    for metric, args, out in steps:
        rc, wall = children.cli([*args, "--output-dir", str(pass_dir / out)])
        if not check(rc == 0, f"{out} exited with code {rc}"):
            return None
        samples[metric].append(wall)
    if not first:
        return file_hashes(pass_dir)

    check(matrix_rows_sum_to_one(pass_dir / "analyze" / "matrix.csv"),
          "a matrix.csv row does not sum to 1 within 1e-9")
    report = json.loads((pass_dir / "reidentify" / "report.json").read_text())
    applied = report["identification"]["applied_removals"]
    facts["reidentify_applied"].append(applied)
    if wl.expect_reidentify_applied is not None:
        check(applied == wl.expect_reidentify_applied,
              f"re-identify applied {applied} removals")
    if wl.compare:
        rc, _ = children.cli(["compare", "--identified", str(pass_dir / "identify" / "identified.csv"),
                              "--truth", str(trace_dir / "truth.csv"),
                              "--output-dir", str(pass_dir / "compare")])
        if check(rc == 0, f"compare exited with code {rc}"):
            overlap = json.loads((pass_dir / "compare" / "report.json").read_text())["label_overlap"]
            facts["precision"].append(overlap["precision"])
            facts["recall"].append(overlap["recall"])
            for key, want in (("precision", wl.expect_precision), ("recall", wl.expect_recall)):
                if want is not None:
                    check(overlap[key] == want, f"{key} is {overlap[key]}")
    return {k: v for k, v in file_hashes(pass_dir).items() if not k.startswith("compare")}


def run_untraced(wl: Workload, seed: int, seconds: float, run_dir: Path, run_start: float) -> dict:
    check = Tally()
    calibration = [calibration_s()]
    trace_dir, setup_times = setup(wl, seed, run_dir, check)
    children = Children(run_start, run_dir / "children.log")
    samples: dict[str, list[float]] = {name: [] for name in COMMANDS}
    facts: dict[str, list] = {"precision": [], "recall": [], "reidentify_applied": []}
    first_hashes = None
    pass_times: list[float] = []
    start = time.perf_counter()
    while True:
        pass_dir = run_dir / f"pass{len(pass_times)}"
        began = time.perf_counter()
        hashes = run_pass(wl, trace_dir, pass_dir, children, samples, facts, check,
                          first=first_hashes is None)
        pass_times.append(time.perf_counter() - began)
        shutil.rmtree(pass_dir)
        if hashes is not None and first_hashes is not None:
            for name, digest in first_hashes.items():
                check(hashes.get(name) == digest, f"{name} changed between repeats")
        elif hashes is not None:
            first_hashes = hashes
        now = time.perf_counter()
        if now - run_start + 2 * max(pass_times) > RUN_LIMIT_S:
            break
        if len(pass_times) >= 2 and now + statistics.median(pass_times) > start + seconds:
            break
    calibration.append(calibration_s())

    metrics = {"setup_s": statistics.median(setup_times)}
    for name in COMMANDS:
        if not samples[name]:
            raise RuntimeError(f"no successful sample for {name}: {check.problems}")
        metrics[name] = statistics.median(samples[name])
    metrics["peak_rss_mb"] = children.peak_rss_mb()
    lines = [f"{'setup_s':<14} {metrics['setup_s']:.6f} s  median of {len(setup_times)} set-ups"]
    for name in COMMANDS:
        got = samples[name]
        lines.append(f"{name:<14} {metrics[name]:.6f} s  median of {len(got)}: "
                     + " ".join(f"{v:.3f}" for v in got))
    lines.append(f"{'peak_rss_mb':<14} {metrics['peak_rss_mb']:.3f} MiB  max over child processes")
    lines.append(f"{len(pass_times)} passes in {sum(pass_times):.1f} s; diagnostic calibration_s "
                 + " ".join(f"{c:.4f}" for c in calibration))
    lines.append(f"precision {facts['precision']} recall {facts['recall']} "
                 f"reidentify_applied {facts['reidentify_applied']}")
    return {"check": check, "metrics": metrics, "lines": lines,
            "detail": {"samples": samples, "setup": setup_times, "passes": pass_times,
                       "calibration_s": calibration, **facts}}


def run_traced(wl: Workload, seed: int, run_dir: Path, run_start: float) -> dict:
    check = Tally()
    calibration = [calibration_s()]
    trace_dir = run_dir / "trace"
    make_trace(wl, seed, trace_dir)
    children = Children(run_start, run_dir / "children.log")
    imports = []
    for _ in range(IMPORT_REPEATS):
        rc, wall = children.run(["-c", "import streamdeg.cli"])
        if check(rc == 0, f"importing streamdeg.cli exited with code {rc}"):
            imports.append(wall)

    passes = []
    for record in (0, 1):
        result = run_dir / f"pass{record}.json"
        rc, _ = children.run([str(HERE / "traced.py"), "--workload", wl.name,
                              "--trace-dir", str(trace_dir), "--out", str(run_dir / f"pass{record}"),
                              "--record", str(record), "--result", str(result)])
        if not check(rc == 0, f"traced.py --record {record} exited with code {rc}"):
            raise RuntimeError(f"a traced pass failed: {check.problems}")
        passes.append(json.loads(result.read_text()))
        check.attempted += passes[-1]["attempted"]
        check.failed += len(passes[-1]["problems"])
        check.problems += passes[-1]["problems"]
    plain, recorded = file_hashes(run_dir / "pass0"), file_hashes(run_dir / "pass1")
    check(bool(plain) and plain == recorded, "outputs differ between the two passes")
    calibration.append(calibration_s())

    import traced

    spans = [traced.Span(**s) for s in passes[1]["spans"]]
    facts = passes[1]["facts"]
    metrics = traced.layer_metrics(spans, facts)
    metrics["linkstream.build_peak_mb"] = traced.build_peak_mb(trace_dir)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["tracing.traced_s"] = passes[1]["total_s"]
    metrics["tracing.untraced_s"] = passes[0]["total_s"]
    metrics["tracing.overhead_s"] = passes[1]["total_s"] - passes[0]["total_s"]
    metrics["tracing.spans"] = len(spans)
    metrics["tracing.span_cost_s"] = traced.span_cost_s()

    lines = [f"{name:<30} {value:.6f} {unit_of(name)}" if isinstance(value, float)
             else f"{name:<30} {value} {unit_of(name)}" for name, value in sorted(metrics.items())]
    lines.append(f"pipeline.attempt_s is pipeline.identify_s over "
                 f"{facts['pipeline.attempts']} attempts")
    lines.append("layer self-time shares of the traced total: " + ", ".join(
        f"{layer} {metrics[f'{layer}.self_s'] / metrics['tracing.traced_s']:.1%}"
        for layer in traced.LAYERS))
    step = traced.self_times(spans, "cli.identify")
    lines.append("layer self-time shares of the identify step: " + ", ".join(
        f"{layer} {value / sum(step.values()):.1%}" for layer, value in step.items()))
    lines.append("diagnostic calibration_s " + " ".join(f"{c:.4f}" for c in calibration))
    return {"check": check, "metrics": metrics, "lines": lines,
            "detail": {"calibration_s": calibration, "imports": imports,
                       "spans": passes[1]["spans"]}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "streamdeg" / "cli.py").is_file():
        print(f"streamdeg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_start = time.perf_counter()
    wl = WORKLOADS[args.workload]
    run_dir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            result = run_traced(wl, args.seed, run_dir, run_start)
        else:
            result = run_untraced(wl, args.seed, args.seconds, run_dir, run_start)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    check: Tally = result["check"]
    for line in result["lines"]:
        print(line)
    print(f"failed_share {check.failed / check.attempted:.6f} "
          f"({check.failed} of {check.attempted} operations)")
    for problem in check.problems:
        print(f"FAILED: {problem}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "metrics": result["metrics"], "problems": check.problems, **result["detail"]}
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
