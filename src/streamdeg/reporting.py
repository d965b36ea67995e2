"""Validation metrics, ground-truth comparison and parameter sweeps.

Removal quality is validated on the average degree per second: a clean run
removes the outlying seconds while barely moving the mean.  Identified sets
from different parameter choices are compared by node-second measure with the
Jaccard coefficient, which is grid-independent.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from typing import IO, Sequence

from . import intervals as iv
from .linkstream import LinkStream, MeanDegreeSeries
from .pipeline import (
    ClassLabel,
    IdentificationResult,
    IdentifiedSet,
    PipelineParams,
    run_identification,
)
from .robust_stats import fit_homogeneous, three_sigma_outliers
from .slicing import TimeSliceGrid, build_scheme
from .trace_io import GroundTruth

SCHEMA_VERSION = 1


@dataclass
class SeriesStats:
    outlying_seconds: int
    mean_of_means: float
    series: MeanDegreeSeries


@dataclass
class ValidationReport:
    before: SeriesStats
    after: SeriesStats
    removed_share: float
    identified_count: int
    detected_count: int
    degenerate_after: bool = False

    @property
    def relative_mean_change(self) -> float:
        if self.before.mean_of_means == 0:
            return 0.0
        return abs(self.after.mean_of_means - self.before.mean_of_means) / self.before.mean_of_means

    def to_dict(self) -> dict:
        return {
            "before": {
                "outlying_seconds": self.before.outlying_seconds,
                "mean_of_means": self.before.mean_of_means,
            },
            "after": {
                "outlying_seconds": self.after.outlying_seconds,
                "mean_of_means": self.after.mean_of_means,
            },
            "removed_share": self.removed_share,
            "relative_mean_change": self.relative_mean_change,
            "identified_count": self.identified_count,
            "detected_count": self.detected_count,
            "degenerate_after": self.degenerate_after,
        }


def _series_stats(series: MeanDegreeSeries, grubbs_alpha: float, ks_alpha: float) -> SeriesStats:
    values = series.values
    fit = fit_homogeneous(values, grubbs_alpha, ks_alpha)
    high, low = three_sigma_outliers(values, fit)
    return SeriesStats(len(high) + len(low), series.mean(), series)


def validate_removal(
    before: LinkStream,
    after: LinkStream,
    result: IdentificationResult,
    grubbs_alpha: float = 0.05,
    ks_alpha: float = 0.1,
) -> ValidationReport:
    """Count outlying seconds and the mean shift of the per-second average
    degree, before and after removals."""
    if before.num_nodes != after.num_nodes:
        raise ValueError("before/after streams must share the node universe")
    series_before = before.mean_degree_per_second()
    series_after = after.mean_degree_per_second()
    stats_before = _series_stats(series_before, grubbs_alpha, ks_alpha)
    stats_after = _series_stats(series_after, grubbs_alpha, ks_alpha)
    before_seconds = before.total_link_seconds()
    after_seconds = after.total_link_seconds()
    removed_share = 1.0 - after_seconds / before_seconds if before_seconds > 0 else 0.0
    return ValidationReport(
        before=stats_before,
        after=stats_after,
        removed_share=removed_share,
        identified_count=len(result.identified_events),
        detected_count=len(result.detected_events),
        degenerate_after=after_seconds == 0.0 and before_seconds > 0.0,
    )


def write_series_csv(series: MeanDegreeSeries, out: IO[str]) -> None:
    writer = csv.writer(out)
    writer.writerow(["second", "mean_degree"])
    for s, v in zip(series.seconds(), series.values):
        writer.writerow([int(s), repr(float(v))])


# ---------------------------------------------------------------------------
# Jaccard over identified sets
# ---------------------------------------------------------------------------


def jaccard(set_a: IdentifiedSet, set_b: IdentifiedSet) -> float:
    """Node-second Jaccard similarity of two identified sets.

    Both-empty compares as 1.0: two runs that found nothing agree maximally.
    """
    inter = 0.0
    union = 0.0
    nodes = set(set_a.entries) | set(set_b.entries)
    for n in nodes:
        a = set_a.entries.get(n, [])
        b = set_b.entries.get(n, [])
        inter += iv.intersection_measure(a, b)
        union += iv.union_measure(a, b)
    if union == 0.0:
        return 1.0
    return inter / union


# ---------------------------------------------------------------------------
# Ground-truth comparison
# ---------------------------------------------------------------------------


@dataclass
class MatchedNode:
    node: str
    kind: str
    identified_covered: float  # share of identified time inside dilated truth
    truth_covered: float  # share of the truth window inside dilated identified


@dataclass
class OverlapReport:
    precision: float
    recall: float
    per_kind_recall: dict[str, float]
    matched: list[MatchedNode]
    identified_nodes: list[str]
    flagged_empty: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def label_overlap(
    identified: IdentifiedSet,
    node_names: Sequence[str],
    truth: GroundTruth,
    slack: float,
) -> OverlapReport:
    """Node-level precision/recall against a labelled anomaly list.

    A truth entry is recalled when the node was identified and its intervals
    overlap the truth window dilated by ``slack``.  Precision counts
    identified nodes present in the truth list; an empty identified set has
    precision 1 by convention and is flagged.
    """
    if slack < 0:
        raise ValueError("slack must be non-negative")
    ident_by_name: dict[str, list[iv.Interval]] = {}
    for node, ivs in identified.entries.items():
        if ivs:
            ident_by_name[node_names[node]] = ivs

    truth_nodes = {e.node for e in truth.entries}
    matched: list[MatchedNode] = []
    recalled = 0
    kind_totals: dict[str, int] = {}
    kind_hits: dict[str, int] = {}
    for entry in truth.entries:
        kind_totals[entry.kind] = kind_totals.get(entry.kind, 0) + 1
        ivs = ident_by_name.get(entry.node)
        if not ivs:
            continue
        dilated_truth = iv.dilate([(entry.start, entry.end)], slack)
        overlap = iv.intersection_measure(ivs, dilated_truth)
        if overlap <= 0:
            continue
        recalled += 1
        kind_hits[entry.kind] = kind_hits.get(entry.kind, 0) + 1
        dilated_ident = iv.dilate(ivs, slack)
        matched.append(
            MatchedNode(
                node=entry.node,
                kind=entry.kind,
                identified_covered=overlap / iv.measure(ivs),
                truth_covered=iv.intersection_measure(dilated_ident, [(entry.start, entry.end)])
                / (entry.end - entry.start),
            )
        )

    n_truth = len(truth.entries)
    recall = recalled / n_truth if n_truth else 1.0
    if ident_by_name:
        precision = sum(1 for n in ident_by_name if n in truth_nodes) / len(ident_by_name)
        flagged = False
    else:
        precision = 1.0
        flagged = n_truth > 0
    per_kind = {k: kind_hits.get(k, 0) / t for k, t in sorted(kind_totals.items())}
    return OverlapReport(precision, recall, per_kind, matched, sorted(ident_by_name), flagged)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepPoint:
    value: float
    jaccard_vs_reference: float
    identified_measure: float
    class_counts: dict[str, int]
    k_id: float | None
    runtime_s: float
    error: str | None = None


@dataclass
class SweepReport:
    axis: str  # "tau" | "r"
    reference: float
    points: list[SweepPoint] = field(default_factory=list)

    def write_csv(self, out: IO[str]) -> None:
        writer = csv.writer(out)
        writer.writerow(["value", "jaccard", "identified_measure", "an", "a", "r", "k_id",
                         "runtime_s"])
        for p in self.points:
            row = [
                repr(p.value),
                repr(p.jaccard_vs_reference),
                repr(p.identified_measure),
                p.class_counts.get("AN", 0),
                p.class_counts.get("A", 0),
                p.class_counts.get("R", 0),
                "" if p.k_id is None else repr(p.k_id),
            ]
            if p.error:  # a failed point has no metrics; its error is in the JSON report
                row[1:] = [""] * (len(row) - 1)
            writer.writerow(row + [repr(p.runtime_s)])

    def to_dict(self, include_runtime: bool = True) -> dict:
        out = asdict(self)
        if not include_runtime:
            for item in out["points"]:
                del item["runtime_s"]
        return out


def smallest_identifiable_degree(result: IdentificationResult) -> float | None:
    """Lower edge of the lowest A-labelled class: below it, events can be
    detected but never directly identified."""
    edges = result.initial.matrix.scheme.edges
    lows = [float(edges[label.class_index - 1]) for label in result.initial.labels
            if label.verdict == "A"]
    return min(lows) if lows else None


def class_count_summary(labels: Sequence[ClassLabel]) -> dict[str, int]:
    counts = {"AN": 0, "A": 0, "R": 0}
    for label in labels:
        counts[label.verdict] += 1
    return counts


def run_pipeline_once(
    stream: LinkStream,
    tau: float,
    ratio: float,
    params: PipelineParams,
) -> IdentificationResult:
    """Grid + scheme construction followed by a full identification run."""
    grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, tau)
    scheme, _ = build_scheme(stream, ratio, params.normalized)
    return run_identification(stream, grid, scheme, params)


def sweep(
    stream: LinkStream,
    axis: str,
    values: Sequence[float],
    referenced: float,
    tau: float,
    ratio: float,
    params: PipelineParams,
    threads: int = 1,
) -> SweepReport:
    """Run the full pipeline per axis value, in order, and compare identified
    sets against the reference value's run.  Per-point failures are recorded
    and the sweep continues.  ``threads`` is accepted for compatibility and
    does not change how the points run: the work is GIL-bound Python."""
    if axis not in ("tau", "r"):
        raise ValueError("axis must be 'tau' or 'r'")
    if not values:
        raise ValueError("values must be non-empty")
    if referenced not in values:
        raise ValueError("reference must be one of the sweep values")

    def point_args(value: float) -> tuple[float, float]:
        return (value, ratio) if axis == "tau" else (tau, value)

    def run_point(value: float) -> tuple[IdentificationResult | None, float, str | None]:
        start = time.perf_counter()
        try:
            res = run_pipeline_once(stream, *point_args(value), params)
            return res, time.perf_counter() - start, None
        except Exception as exc:  # per-point failures recorded, sweep continues
            return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"

    values = list(values)
    outcomes = [run_point(v) for v in values]
    ref_result = outcomes[values.index(referenced)][0]
    report = SweepReport(axis, referenced)
    for value, (res, elapsed, error) in zip(values, outcomes):
        if res is None:
            report.points.append(
                SweepPoint(value, 0.0, 0.0, {"AN": 0, "A": 0, "R": 0}, None, elapsed, error)
            )
            continue
        jac = jaccard(res.identified_set, ref_result.identified_set) if ref_result else 0.0
        report.points.append(
            SweepPoint(
                value,
                jac,
                res.identified_set.measure,
                class_count_summary(res.initial.labels),
                smallest_identifiable_degree(res),
                elapsed,
            )
        )
    return report


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def build_report(config: dict, blocks: dict) -> dict:
    report = {"schema_version": SCHEMA_VERSION, "config": config}
    report.update(blocks)
    return report


def write_report(report: dict, out: IO[str]) -> None:
    json.dump(report, out, indent=2, sort_keys=True)
    out.write("\n")
