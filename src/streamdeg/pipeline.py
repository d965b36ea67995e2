"""Class labelling, event detection and identification by iterative removal.

Each degree class gets a verdict from its fraction column:

* ``A``  -- the column is zero in a strict majority of slices: the class is
  normally empty, so any occupancy is anomalous and directly attributable.
* ``AN`` -- the Grubbs-pruned normal fit of the column is accepted with a
  positive mean: normal and anomalous traffic mix, only high-side
  three-sigma excursions are events and they cannot be attributed directly.
* ``R``  -- the fit is rejected: no stable baseline, the class is discarded.

Identification walks the A-class events from the highest degree class down.
For each event it removes every incident link of the responsible nodes during
the sub-intervals where their degree sits in the event's class.  A removal
that creates a fresh negative outlier (a fraction newly below mu - 3 sigma in
any class) removed legitimate traffic: it is rolled back and the event stays
detected but unidentified.  Removals of high-degree events typically erase
low-class events caused by the same nodes' partners, which is how events in
AN classes get identified without ever being removed directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from . import intervals as iv
from .linkstream import LinkStream, NormalizedDegrees, degree_segments, grid_pieces, normalize_degrees
from .robust_stats import NormalFit, fit_homogeneous, three_sigma_outliers
from .slicing import ClassScheme, FractionMatrix, TimeSliceGrid, fraction_matrix, update_rows

POLARITY_HIGH = "high"
POLARITY_NONZERO = "nonzero-in-A"


@dataclass
class ClassLabel:
    class_index: int
    verdict: str  # "AN" | "A" | "R"
    zero_share: float
    fit: NormalFit | None = None


@dataclass(frozen=True)
class Event:
    class_index: int
    slice_index: int
    fraction: float
    polarity: str

    @property
    def key(self) -> tuple[int, int]:
        return (self.class_index, self.slice_index)


@dataclass
class IdentifiedSet:
    """Per-node disjoint intervals of attributed anomalous activity."""

    entries: dict[int, list[iv.Interval]] = field(default_factory=dict)

    @property
    def measure(self) -> float:
        return iv.ordered_sum(iv.measure(ivs) for ivs in self.entries.values())

    @property
    def is_empty(self) -> bool:
        return not any(self.entries.values())

    def nodes(self) -> set[int]:
        return {n for n, ivs in self.entries.items() if ivs}

    def victims(self) -> list[tuple[int, iv.Interval]]:
        return [(n, interval) for n, ivs in sorted(self.entries.items()) for interval in ivs]


def classify_classes(
    matrix: FractionMatrix,
    grubbs_alpha: float = 0.05,
    ks_alpha: float = 0.1,
    zero_majority: float = 0.5,
) -> list[ClassLabel]:
    """Label every degree class from its fraction column."""
    labels = []
    n_slices = matrix.grid.count
    for j in range(1, matrix.n_classes + 1):
        column = matrix.column(j)
        zero_share = float((column == 0.0).sum()) / n_slices if n_slices else 1.0
        if zero_share > zero_majority:
            labels.append(ClassLabel(j, "A", zero_share))
            continue
        fit = fit_homogeneous(column, grubbs_alpha, ks_alpha)
        if fit.accepted and fit.mu > 0:
            labels.append(ClassLabel(j, "AN", zero_share, fit))
        else:
            labels.append(ClassLabel(j, "R", zero_share, fit))
    return labels


def detect_events(
    matrix: FractionMatrix,
    labels: Sequence[ClassLabel],
    sigma_mult: float = 3.0,
) -> list[Event]:
    """High-side three-sigma events in AN classes, every non-zero slice in A
    classes; R classes contribute nothing."""
    events = []
    for label in labels:
        column = matrix.column(label.class_index)
        if label.verdict == "A":
            for i in np.flatnonzero(column > 0.0):
                events.append(Event(label.class_index, int(i), float(column[i]), POLARITY_NONZERO))
        elif label.verdict == "AN":
            high, _ = three_sigma_outliers(column, label.fit, sigma_mult)
            for i in high:
                events.append(Event(label.class_index, int(i), float(column[i]), POLARITY_HIGH))
    return events


def negative_outliers(
    matrix: FractionMatrix,
    labels: Sequence[ClassLabel],
    sigma_mult: float = 3.0,
) -> set[tuple[int, int]]:
    """(class, slice) pairs whose fraction sits below mu - sigma_mult*sigma."""
    out = set()
    for label in labels:
        if label.verdict != "AN":
            continue
        column = matrix.column(label.class_index)
        _, low = three_sigma_outliers(column, label.fit, sigma_mult)
        for i in low:
            out.add((label.class_index, int(i)))
    return out


def identify_event(
    stream: LinkStream,
    event: Event,
    grid: TimeSliceGrid,
    scheme: ClassScheme,
    normalized: NormalizedDegrees | None = None,
) -> IdentifiedSet:
    """Nodes and maximal sub-intervals of the event's slice during which their
    degree lies in the event's class."""
    i = event.slice_index
    k_lo, k_hi = scheme.edges[event.class_index - 1:event.class_index + 1].tolist()
    segs = degree_segments(stream, *grid.bounds(i), None if normalized is None else normalized.series)
    at, _, start, end = grid_pieces(segs.start, segs.end, grid.origin, grid.tau, (i, i + 1))
    hit = (k_lo <= segs.value[at]) & (segs.value[at] < k_hi)
    node, start, end = segs.node[at][hit], start[hit], end[hit]
    # one interval per run of a node's touching pieces
    heads = np.ones(len(node), dtype=bool)
    heads[1:] = (node[1:] != node[:-1]) | (start[1:] > end[:-1])
    node, start, end = node[heads], start[heads], end[np.roll(heads, -1)]
    owners, at = np.unique(node, return_index=True)
    entries = {n: list(zip(a.tolist(), b.tolist()))
               for n, a, b in zip(owners.tolist(), np.split(start, at[1:]), np.split(end, at[1:]))}
    return IdentifiedSet(entries)


# ---------------------------------------------------------------------------
# Iterative removal
# ---------------------------------------------------------------------------


@dataclass
class PipelineParams:
    grubbs_alpha: float = 0.05
    ks_alpha: float = 0.1
    zero_majority: float = 0.5
    sigma_mult: float = 3.0
    rollback_fit: str = "refit"  # or "frozen"
    normalized: bool = False


@dataclass
class RemovalRecord:
    event: Event
    victims: IdentifiedSet
    status: str  # "applied" | "rolled-back" | "cascade"
    reason: str | None = None

    def to_json(self, node_names: Sequence[str]) -> str:
        payload = {
            "event": {"class": self.event.class_index, "slice": self.event.slice_index},
            "victims": [
                {"node": node_names[n], "start": s, "end": e}
                for n, (s, e) in self.victims.victims()
            ],
            "status": self.status,
        }
        if self.reason:
            payload["reason"] = self.reason
        return json.dumps(payload, sort_keys=True)


@dataclass
class DetectionState:
    matrix: FractionMatrix
    labels: list[ClassLabel]
    events: list[Event]
    negatives: set[tuple[int, int]]


@dataclass
class IdentificationResult:
    initial: DetectionState
    final_stream: LinkStream
    log: list[RemovalRecord]
    identified_set: IdentifiedSet
    detected_events: list[Event]
    identified_events: list[Event]
    residual_events: list[Event]
    rolled_back_events: list[Event]
    removed_share: float
    residual_under_initial_labels: int

    @property
    def applied_count(self) -> int:
        return sum(1 for rec in self.log if rec.status == "applied")


def _detect_state(matrix: FractionMatrix, params: PipelineParams) -> DetectionState:
    labels = classify_classes(matrix, params.grubbs_alpha, params.ks_alpha, params.zero_majority)
    events = detect_events(matrix, labels, params.sigma_mult)
    negatives = negative_outliers(matrix, labels, params.sigma_mult)
    return DetectionState(matrix, labels, events, negatives)


def _event_order(event: Event) -> tuple[int, float, int]:
    # highest class first, then largest fraction, then earliest slice
    return (-event.class_index, -event.fraction, event.slice_index)


def run_identification(
    stream: LinkStream,
    grid: TimeSliceGrid,
    scheme: ClassScheme,
    params: PipelineParams | None = None,
) -> IdentificationResult:
    """Detect events, then iteratively remove A-class events with rollback.

    Loop: re-detect on the current stream, pick the next unprocessed A-class
    event (highest class first), remove its identified couples, and keep the
    removal only if it creates no new negative outlier.  Every (class, slice)
    event is attempted at most once, so the loop always terminates.  The
    original stream object is never mutated.  A removal is re-detected by
    recomputing only the fraction-matrix row of its slice, so an attempt
    costs what the nodes whose spans meet that slice cost; the class labels
    are then refit on the full columns.

    Afterwards events are re-detected on the final stream: initially detected
    events that vanished are identified (directly or through cascades), the
    rest are residual; rolled-back attempts are reported separately.
    """
    params = params or PipelineParams()
    # the normalization reference is frozen from the input stream so that
    # removals do not shift class membership of untouched couples
    normalized = (normalize_degrees(stream, stream.mean_degree_per_second())
                  if params.normalized else None)

    original = stream
    initial = _detect_state(fraction_matrix(stream, grid, scheme, normalized), params)
    state = initial
    processed: set[tuple[int, int]] = set()
    log: list[RemovalRecord] = []

    while True:
        pending = [
            e for e in state.events if e.polarity == POLARITY_NONZERO and e.key not in processed
        ]
        if not pending:
            break
        event = min(pending, key=_event_order)
        processed.add(event.key)
        victims = identify_event(stream, event, grid, scheme, normalized)
        if victims.is_empty:
            log.append(RemovalRecord(event, victims, "cascade", "already removed"))
            continue
        tentative = stream.remove_interactions(victims.victims())
        # victims lie inside the event's slice, and slices tile time, so only its row changes
        rows = range(event.slice_index, event.slice_index + 1)
        tent_state = _detect_state(update_rows(state.matrix, tentative, rows, normalized), params)
        if params.rollback_fit == "frozen":
            before = negative_outliers(state.matrix, initial.labels, params.sigma_mult)
            after = negative_outliers(tent_state.matrix, initial.labels, params.sigma_mult)
        else:
            before, after = state.negatives, tent_state.negatives
        created = sorted(after - before)
        if created:
            j, i = created[0]
            log.append(
                RemovalRecord(
                    event, victims, "rolled-back",
                    f"negative outlier in class {j}, slice {i}",
                )
            )
            continue
        stream, state = tentative, tent_state
        log.append(RemovalRecord(event, victims, "applied"))

    # nodes in order of first applied removal: identified_measure sums in it
    victims_of: dict[int, list[iv.Interval]] = {}
    for rec in log:
        if rec.status == "applied":
            for n, ivs in rec.victims.entries.items():
                victims_of.setdefault(n, []).extend(ivs)
    final_keys = {e.key for e in state.events}
    rolled_keys = {rec.event.key for rec in log if rec.status == "rolled-back"}
    identified_events = [e for e in initial.events if e.key not in final_keys]
    rolled_back_events = [
        e for e in initial.events if e.key in final_keys and e.key in rolled_keys
    ]
    residual_events = [
        e for e in initial.events if e.key in final_keys and e.key not in rolled_keys
    ]
    before_seconds = original.total_link_seconds()
    after_seconds = stream.total_link_seconds()
    removed_share = 1.0 - after_seconds / before_seconds if before_seconds > 0 else 0.0

    residual_initial = len(
        {e.key for e in detect_events(state.matrix, initial.labels, params.sigma_mult)}
        & {e.key for e in initial.events}
    )

    return IdentificationResult(
        initial=initial,
        final_stream=stream,
        log=log,
        identified_set=IdentifiedSet({n: iv.merge(ivs) for n, ivs in victims_of.items()}),
        detected_events=list(initial.events),
        identified_events=identified_events,
        residual_events=residual_events,
        rolled_back_events=rolled_back_events,
        removed_share=removed_share,
        residual_under_initial_labels=residual_initial,
    )


def write_removal_log(log: Iterable[RemovalRecord], node_names: Sequence[str], out: IO[str]) -> None:
    for rec in log:
        out.write(rec.to_json(node_names))
        out.write("\n")


def write_events_csv(
    events: Iterable[Event], statuses: dict[tuple[int, int], str], out: IO[str]
) -> None:
    out.write("class,slice,fraction,polarity,status\n")
    for e in events:
        status = statuses.get(e.key, "detected")
        out.write(f"{e.class_index},{e.slice_index},{e.fraction!r},{e.polarity},{status}\n")


def event_statuses(result: IdentificationResult) -> dict[tuple[int, int], str]:
    out: dict[tuple[int, int], str] = {}
    for e in result.identified_events:
        out[e.key] = "identified"
    for e in result.residual_events:
        out[e.key] = "residual"
    for e in result.rolled_back_events:
        out[e.key] = "rolled-back"
    return out
