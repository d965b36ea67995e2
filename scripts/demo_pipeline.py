#!/usr/bin/env python3
"""End-to-end demo: synthetic trace -> detection -> identification -> validation.

Generates a 600 s trace with a stationary background and three injected
anomalies (network scan, fan-in, sustained degree spike), runs the full
pipeline, and prints what was detected, what was identified and how the
per-second average degree looks before and after the removals.
"""

import argparse
import json
from pathlib import Path

from streamdeg.linkstream import build_stream
from streamdeg.pipeline import PipelineParams, run_identification
from streamdeg.reporting import label_overlap, validate_removal
from streamdeg.slicing import TimeSliceGrid, build_class_scheme
from streamdeg.trace_io import (
    FanInInjection,
    ScanInjection,
    ScenarioSpec,
    SpikeInjection,
    generate_synthetic,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--tau", type=float, default=2.0)
    parser.add_argument("--ratio", type=float, default=0.1)
    parser.add_argument("--delta", type=float, default=1.0)
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args()

    spec = ScenarioSpec(
        duration=600,
        background_nodes=200,
        background_degree=4,
        injections=[
            ScanInjection("scanner", 5000, (300.0, 302.0)),
            FanInInjection("sink", 300, (420.0, 422.0)),
            SpikeInjection("burst", 150, (100.0, 102.0)),
        ],
    )
    triplets, meta, truth = generate_synthetic(spec, seed=args.seed)
    print(f"trace: {meta.triplet_count} triplets, {meta.node_count} nodes, 600 s")

    stream = build_stream(triplets, meta.node_names, args.delta)
    grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, args.tau)
    scheme = build_class_scheme(stream.max_degree(), args.ratio)
    print(f"grid: {grid.count} slices of {args.tau} s; {len(scheme)} degree classes "
          f"up to k={stream.max_degree()}")

    result = run_identification(stream, grid, scheme, PipelineParams())
    counts = {"AN": 0, "A": 0, "R": 0}
    for label in result.initial.labels:
        counts[label.verdict] += 1
    print(f"classes: {counts['AN']} AN, {counts['A']} A, {counts['R']} R")
    print(f"events: {len(result.detected_events)} detected, "
          f"{len(result.identified_events)} identified, "
          f"{len(result.residual_events)} residual, "
          f"{len(result.rolled_back_events)} rolled back")
    print(f"removals applied: {result.applied_count}, "
          f"traffic removed: {result.removed_share:.2%}")
    for node, intervals in sorted(result.identified_set.entries.items()):
        spans = ", ".join(f"[{s:g}, {e:g})" for s, e in intervals)
        print(f"  identified {meta.node_names[node]}: {spans}")

    validation = validate_removal(stream, result.final_stream, result)
    print(f"outlying seconds: {validation.before.outlying_seconds} -> "
          f"{validation.after.outlying_seconds}")
    print(f"mean of per-second average degree: {validation.before.mean_of_means:.6g} -> "
          f"{validation.after.mean_of_means:.6g} "
          f"({validation.relative_mean_change:.2%} change)")

    overlap = label_overlap(result.identified_set, meta.node_names, truth, slack=args.delta)
    print(f"vs ground truth: precision {overlap.precision:.2f}, recall {overlap.recall:.2f}")
    for m in overlap.matched:
        print(f"  {m.kind} on {m.node}: identified time inside truth {m.identified_covered:.1%}, "
              f"truth covered {m.truth_covered:.1%}")

    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "events": {
                "detected": len(result.detected_events),
                "identified": len(result.identified_events),
            },
            "validation": validation.to_dict(),
            "overlap": overlap.to_dict(),
        }
        (out / "demo_summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {out / 'demo_summary.json'}")


if __name__ == "__main__":
    main()
