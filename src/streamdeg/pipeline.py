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
from .linkstream import (LinkStream, NormalizedDegrees, SliceState, cut_slice, normalize_degrees,
                         slice_state)
from .robust_stats import NormalFit, fit_homogeneous, three_sigma_outliers
from .slicing import ClassScheme, FractionMatrix, TimeSliceGrid, fraction_matrix, with_row

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

    def nodes(self) -> set[int]:
        return {n for n, ivs in self.entries.items() if ivs}

    def victims(self) -> list[tuple[int, iv.Interval]]:
        return [(n, interval) for n, ivs in sorted(self.entries.items()) for interval in ivs]

    @classmethod
    def of(cls, node: np.ndarray, start: np.ndarray, end: np.ndarray) -> "IdentifiedSet":
        """The set of the intervals ``[start, end)`` of each node, in node order."""
        entries: dict[int, list[iv.Interval]] = {}
        for n, a, b in zip(node.tolist(), start.tolist(), end.tolist()):
            entries.setdefault(n, []).append((a, b))
        return cls(entries)


def _label(column: np.ndarray, j: int, grubbs_alpha: float, ks_alpha: float,
           zero_majority: float) -> ClassLabel:
    zero_share = float((column == 0.0).sum()) / len(column) if len(column) else 1.0
    if zero_share > zero_majority:
        return ClassLabel(j, "A", zero_share)
    fit = fit_homogeneous(column, grubbs_alpha, ks_alpha)
    return ClassLabel(j, "AN" if fit.accepted and fit.mu > 0 else "R", zero_share, fit)


def classify_classes(
    matrix: FractionMatrix,
    grubbs_alpha: float = 0.05,
    ks_alpha: float = 0.1,
    zero_majority: float = 0.5,
) -> list[ClassLabel]:
    """Label every degree class from its fraction column."""
    return [_label(matrix.column(j), j, grubbs_alpha, ks_alpha, zero_majority)
            for j in range(1, matrix.n_classes + 1)]


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
    state: SliceState,
    event: Event,
    scheme: ClassScheme,
    normalized: NormalizedDegrees | None = None,
) -> tuple[np.ndarray, ...]:
    """``(node, start, end)``: the nodes and maximal sub-intervals of the event's
    slice, held by ``state``, during which their degree lies in the event's
    class, in node order, then time order."""
    segs = state.read(normalized)
    hit = scheme.class_of(segs.value) == event.class_index
    node, start, end = segs.node[hit], segs.start[hit], segs.end[hit]
    # one interval per run of a node's touching pieces
    heads = np.ones(len(node), dtype=bool)
    heads[1:] = (node[1:] != node[:-1]) | (start[1:] > end[:-1])
    return node[heads], start[heads], end[np.roll(heads, -1)]


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


def _detect_state(matrix: FractionMatrix, params: PipelineParams, previous: DetectionState | None = None,
                  changed: Sequence[int] = ()) -> DetectionState:
    """Every class of ``matrix`` labelled and detected; with a ``previous`` state,
    only the ``changed`` classes, and the others keep its labels and events."""
    changed = set(changed if previous else range(1, matrix.n_classes + 1))
    labels = list(previous.labels) if previous else [None] * matrix.n_classes
    for j in changed:
        labels[j - 1] = _label(matrix.column(j), j, params.grubbs_alpha, params.ks_alpha, params.zero_majority)
    fresh = [labels[j - 1] for j in sorted(changed)]
    events = [e for e in previous.events if e.class_index not in changed] if previous else []
    # events in class order, then slice order
    events = sorted(events + detect_events(matrix, fresh, params.sigma_mult), key=lambda e: e.class_index)
    return DetectionState(matrix, labels, events)


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

    Loop: pick the next unprocessed A-class event of the current detection
    state (highest class first), remove its identified couples, and keep the
    removal only if it creates no new negative outlier.  Every (class, slice)
    event is attempted at most once, so the loop always terminates.  The
    original stream object is never mutated.  Victims lie inside their
    event's slice, and slices tile time, so an attempt works on its slice
    alone: it cuts the slice's ``SliceState``, recomputes the fraction-matrix
    row of the slice from it, and refits and re-detects only the classes
    whose cell in that row changed.  The final stream is the input with
    every applied victim cut at once.

    Afterwards events are re-detected on the final stream: initially detected
    events that vanished are identified (directly or through cascades), the
    rest are residual; rolled-back attempts are reported separately.
    """
    params = params or PipelineParams()
    # the normalization reference is frozen from the input stream so that
    # removals do not shift class membership of untouched couples
    normalized = (normalize_degrees(stream, stream.mean_degree_per_second())
                  if params.normalized else None)

    initial = _detect_state(fraction_matrix(stream, grid, scheme, normalized), params)
    state = initial
    slices: dict[int, SliceState] = {}
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
        i = event.slice_index
        if i not in slices:
            slices[i] = slice_state(stream, *grid.bounds(i))
        victims = identify_event(slices[i], event, scheme, normalized)
        found = IdentifiedSet.of(*victims)
        if not found.entries:
            log.append(RemovalRecord(event, found, "cascade", "already removed"))
            continue
        tentative = cut_slice(stream, slices[i], victims)
        matrix = with_row(state.matrix, i, tentative.read(normalized))
        # the classes whose cell in the slice's row changed, bit for bit
        changed = (np.flatnonzero(matrix.fractions[i].view(np.int64)
                                  != state.matrix.fractions[i].view(np.int64)) + 1).tolist()
        tent_state = _detect_state(matrix, params, state, changed)
        # negative outliers the attempt creates, under each state's labels or the
        # initial ones; a class keeps its column and label unless it changed
        labels = lambda s: [(s if params.rollback_fit == "refit" else initial).labels[j - 1] for j in changed]
        before = negative_outliers(state.matrix, labels(state), params.sigma_mult)
        after = negative_outliers(tent_state.matrix, labels(tent_state), params.sigma_mult)
        created = sorted(after - before)
        if created:
            j, k = created[0]
            log.append(
                RemovalRecord(
                    event, found, "rolled-back",
                    f"negative outlier in class {j}, slice {k}",
                )
            )
            continue
        slices[i], state = tentative, tent_state
        log.append(RemovalRecord(event, found, "applied"))

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
    identified_set = IdentifiedSet({n: iv.merge(ivs) for n, ivs in victims_of.items()})
    final_stream = stream.remove_interactions(identified_set.victims()) if victims_of else stream
    before_seconds = stream.total_link_seconds()
    after_seconds = final_stream.total_link_seconds()
    removed_share = 1.0 - after_seconds / before_seconds if before_seconds > 0 else 0.0

    residual_initial = len(
        {e.key for e in detect_events(state.matrix, initial.labels, params.sigma_mult)}
        & {e.key for e in initial.events}
    )

    return IdentificationResult(
        initial=initial,
        final_stream=final_stream,
        log=log,
        identified_set=identified_set,
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
