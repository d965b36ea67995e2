#!/usr/bin/env python3
"""Sweep the time-slice duration and the degree-class ratio on one trace.

Shows the stability plateau: identified sets barely move over a wide range of
slice sizes, and the class ratio only matters once classes get so wide that
anomalous degrees share a class with the background.
"""

import argparse

from streamdeg.linkstream import build_stream
from streamdeg.pipeline import PipelineParams
from streamdeg.reporting import sweep
from streamdeg.trace_io import (
    FanInInjection,
    ScanInjection,
    ScenarioSpec,
    SpikeInjection,
    generate_synthetic,
)


def show(report) -> None:
    print(f"axis={report.axis} reference={report.reference}")
    print(f"{'value':>8} {'jaccard':>8} {'measure':>9} {'AN':>3} {'A':>3} {'R':>3} {'k_id':>7} {'time':>7}")
    for p in report.points:
        k_id = f"{p.k_id:g}" if p.k_id is not None else "-"
        print(f"{p.value:>8g} {p.jaccard_vs_reference:>8.3f} {p.identified_measure:>9.2f} "
              f"{p.class_counts['AN']:>3} {p.class_counts['A']:>3} {p.class_counts['R']:>3} "
              f"{k_id:>7} {p.runtime_s:>6.2f}s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=6)
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
    triplets, meta, _ = generate_synthetic(spec, seed=args.seed)
    stream = build_stream(triplets, meta.node_names, 1.0)

    show(sweep(stream, "tau", [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0], 2.0,
               2.0, 0.1, PipelineParams()))
    print()
    show(sweep(stream, "r", [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0], 0.1,
               2.0, 0.1, PipelineParams()))


if __name__ == "__main__":
    main()
