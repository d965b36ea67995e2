"""Time slices, logarithmic degree classes and the fraction matrix.

The analysis window is cut into consecutive slices of duration tau by the grid
cut of ``linkstream``: at any tau, slice i ends exactly where slice i + 1 starts,
so a change of degrees inside one slice changes only its row.  Degrees are
grouped into half-open classes [10**(b*r), 10**((b+1)*r)) of the lattice
bucket b, numbered consecutively from 1.  For integer degrees the empty
buckets are dropped; with r = 0.1 this yields {1}, {2}, {3}, {4,5}, ... and
the class widths grow geometrically.

The fraction matrix holds, for slice i and class j, the measure share of
(time, node) couples whose degree lies in the class:

    f[i][j] = measure{(t, v) in T_i x V : degree_t(v) in C_j} / (tau * |V|)

plus the zero-degree share f[i][0], so each row is a partition of measure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import IO, NamedTuple, Sequence

import numpy as np

from .intervals import ordered_sum
from .linkstream import (LinkStream, NormalizedDegrees, Segments, _distinct, degree_segments, grid_bound,
                         grid_cells, grid_pieces, normalize_degrees, read_blocks)
from .robust_stats import _weighted_cdf, two_sample_coefficient


class SchemeRangeError(ValueError):
    """The class scheme does not cover an observed degree."""


class LatticeError(ValueError):
    """The class ratio r leaves no lattice of degree classes over a degree range."""


# A normalized scheme's degrees span fewer buckets than this: each is a class, so a matrix column and a fit.
_MAX_BUCKETS = 1 << 16


@dataclass(frozen=True)
class TimeSliceGrid:
    origin: float
    tau: float
    count: int

    def __post_init__(self) -> None:
        if not 0 < self.tau < math.inf:  # nan fails too
            raise ValueError("tau must be finite and positive")
        if self.count < 0:
            raise ValueError("count must be non-negative")

    def bounds(self, i: int) -> tuple[float, float]:
        return grid_bound(self.origin, self.tau, i), grid_bound(self.origin, self.tau, i + 1)

    @property
    def end(self) -> float:
        return grid_bound(self.origin, self.tau, self.count)

    @classmethod
    def covering(cls, t_begin: float, t_end: float, tau: float) -> "TimeSliceGrid":
        """Second-aligned grid over [t_begin, t_end): the most slices that end by
        t_end, by bisection around a division's guess (near the float spacing
        of the bounds, many counts share one bound)."""
        origin = float(math.floor(t_begin))
        lo, hi = 0, math.floor((t_end - origin) / tau) + 1
        while grid_bound(origin, tau, hi) <= t_end:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:  # grid_bound(lo) <= t_end < grid_bound(hi)
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if grid_bound(origin, tau, mid) <= t_end else (lo, mid)
        return cls(origin, tau, lo)


def _boundary(bucket: int, ratio: float) -> float:
    """Lower edge 10**(bucket*ratio), snapped to integers hit exactly; inf past the floats."""
    try:
        x = 10.0 ** (bucket * ratio)
    except OverflowError:
        return math.inf
    n = round(x)
    if n >= 1 and abs(x - n) <= 1e-9 * n:
        return float(n)
    return x


def _lattice(lo: float, hi: float, ratio: float, most: float = math.inf) -> np.ndarray:
    """Lattice edges from the bucket of ``lo`` to the top of the bucket of ``hi``, the
    bucket b of x > 0 having _boundary(b) <= x < _boundary(b + 1); a LatticeError when
    they overflow, underflow or coincide, or log10(hi / lo) / ratio is not below ``most``."""
    if ratio <= 0:
        raise ValueError("r must be positive")
    # a division guesses each bucket; one more edge either side takes its rounding
    first, last = (math.log10(x) / ratio for x in (lo, hi))
    if last - first < most:  # so neither guess is infinite
        edges = np.array([_boundary(b, ratio) for b in range(math.floor(first) - 1, math.floor(last) + 3)])
        i, j = np.searchsorted(edges, [lo, hi], side="right") - 1
        out = edges[i:j + 2]
        if i >= 0 and j + 1 < len(edges) and 0 < out[0] and out[-1] < math.inf and (np.diff(out) > 0).all():
            return out
    cap = f", and log10({hi:g} / {lo:g}) / r below {most}" if most < math.inf else ""
    raise LatticeError(f"r {ratio:g} leaves no lattice of degree classes from {lo:g} to {hi:g}: "
                       f"it needs finite, positive, increasing edges{cap}")


class SchemeClass(NamedTuple):
    """Bounds of one class as reports show them: the first and last integer
    of a raw class, the lower and upper edge of a normalized one."""

    index: int
    k_lo: float
    k_hi: float


@dataclass(eq=False)
class ClassScheme:
    """Degree classes on the logarithmic lattice 10**(b * ratio).

    Class j >= 1 holds the degrees in [edges[j - 1], edges[j]) and class 0
    holds degree 0.  Raw schemes (``integer``) have integer edges, empty
    buckets collapsed; normalized schemes have one class per bucket.
    """

    ratio: float
    edges: np.ndarray
    integer: bool

    def class_of(self, x):
        """Class index of each degree in ``x`` (an int for a scalar): 0 for
        degree 0, SchemeRangeError for any other degree outside the edges."""
        values = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.edges, values, side="right")
        bad = (idx == len(self.edges)) | ((idx == 0) & (values != 0))
        if bad.any():
            raise SchemeRangeError(
                f"degree {values[bad].flat[0]} outside scheme range "
                f"[{self.edges[0]}, {self.edges[-1]})"
            )
        return int(idx) if idx.ndim == 0 else idx

    def __len__(self) -> int:
        return len(self.edges) - 1

    @property
    def classes(self) -> list[SchemeClass]:
        lo, hi = self.edges[:-1].tolist(), self.edges[1:].tolist()
        if self.integer:
            lo, hi = [int(a) for a in lo], [int(b) - 1 for b in hi]
        return [SchemeClass(j, a, b) for j, (a, b) in enumerate(zip(lo, hi), 1)]


def build_class_scheme(k_max: int, r: float) -> ClassScheme:
    """Degree classes for 1..k_max with logarithmic width ``r``.

    Bucket b covers integers in [10**(b*r), 10**((b+1)*r)); empty buckets are
    collapsed and the last class is clipped at k_max.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    # buckets narrower than half a degree up to k_max + 1: each integer is its own class
    if 0 < r < math.log10(1 + 0.5 / (k_max + 1)):
        return ClassScheme(r, np.arange(1.0, k_max + 2), True)
    return ClassScheme(r, _distinct(np.minimum(np.ceil(_lattice(1, k_max, r)), k_max + 1)), True)


def build_normalized_scheme(max_value: float, r: float, min_value: float = 1e-12) -> ClassScheme:
    """One class per lattice bucket, from the bucket of ``min_value``, the
    smallest positive degree, to the bucket of ``max_value``."""
    return ClassScheme(r, _lattice(min_value, max(max_value, min_value), r, _MAX_BUCKETS), False)


def build_scheme(
    stream: LinkStream, r: float, normalized: bool
) -> tuple[ClassScheme, NormalizedDegrees | None]:
    """Class scheme covering every degree of ``stream``, plus the degree view
    it was built over: None for raw degrees, else the per-second normalized
    view.

    Normalized classes start at the bucket of 1 / max_s mean(s): a positive
    degree is at least 1, and removals keep the series frozen, so no stream
    derived from ``stream`` has a positive degree below it.
    """
    if not normalized:
        return build_class_scheme(max(stream.max_degree(), 1), r), None
    series = stream.mean_degree_per_second()
    top = float(series.values.max()) if len(series.values) else 0.0
    view = normalize_degrees(stream, series)
    return build_normalized_scheme(view.max_value(), r, 1.0 / top if top > 0 else 1.0), view


# ---------------------------------------------------------------------------
# Per-slice measures
# ---------------------------------------------------------------------------


# Rows of the matrix measured at once, at most (see ``read_blocks``); bounds the temporaries.
_ROW_BLOCK = 256


def slice_value_measures(
    stream: LinkStream,
    grid: TimeSliceGrid,
    normalized: NormalizedDegrees | None = None,
) -> list[dict[float, float]]:
    """Measure of active couple-time per degree value, one dict per slice.

    Keys are integer degrees (or real normalized degrees when a normalized view
    is given), in order of first appearance; zero-degree time is not included.
    """
    out: list[dict[float, float]] = [{} for _ in range(grid.count)]
    for rows in read_blocks(stream, grid.count, range(grid.count), _ROW_BLOCK):
        row, value, mass, first = _row_measures(*_pieces(stream, grid, rows, normalized))
        order = np.argsort(first)
        for j, k, m in zip((row[order] + rows.start).tolist(), value[order].tolist(),
                           mass[order].tolist()):
            out[j][k] = m
    return out


def _pieces(stream: LinkStream, grid: TimeSliceGrid, rows: range,
            normalized: NormalizedDegrees | None) -> tuple[np.ndarray, ...]:
    """``(row, value, measure)`` of each piece of the degree segments of
    ``stream`` in a slice of ``rows``, in segment order; ``row`` counts from
    ``rows.start``."""
    t0, t1 = grid.bounds(rows.start)[0], grid.bounds(rows.stop - 1)[1]
    segs = degree_segments(stream, t0, t1, None if normalized is None else normalized.series)
    first, stop = grid_cells(segs.start, segs.end, grid.origin, grid.tau)
    cells = np.maximum(first, rows.start), np.minimum(stop, rows.stop)
    at, i, lo, hi = grid_pieces(segs.start, segs.end, grid.origin, grid.tau, cells)
    return i - rows.start, segs.value[at], hi - lo


def _row_measures(row: np.ndarray, value: np.ndarray, ov: np.ndarray) -> tuple[np.ndarray, ...]:
    """Measure per degree value in each row of the pieces ``(row, value, ov)``:
    one ``(row, value, measure, first)`` entry per (row, value) in row order,
    then ascending value order; ``first`` is the position of the entry's first
    piece.

    A measure adds its pieces in node order, then time order, so a row takes
    the same terms in the same order whichever rows are asked for, and from
    segments clipped to its slice or not.
    """
    order = np.argsort(value, kind="stable")
    order = order[np.argsort(row[order], kind="stable")]
    row, value = row[order], value[order]
    heads = np.ones(len(order), dtype=bool)
    heads[1:] = (row[1:] != row[:-1]) | (value[1:] != value[:-1])
    # bincount adds in input order, so each entry's pieces one by one
    mass = np.bincount(np.cumsum(heads) - 1, ov[order])
    return row[heads], value[heads], mass, order[heads]


@dataclass
class FractionMatrix:
    """Per-slice, per-class measure fractions plus the zero-degree column."""

    grid: TimeSliceGrid
    scheme: ClassScheme
    fractions: np.ndarray  # (count, n_classes), class j at column j-1
    zero: np.ndarray  # (count,)
    node_count: int

    @property
    def n_classes(self) -> int:
        return self.fractions.shape[1]

    def column(self, class_index: int) -> np.ndarray:
        return self.fractions[:, class_index - 1]

    def row_sums(self) -> np.ndarray:
        return self.fractions.sum(axis=1) + self.zero

    def write_csv(self, out: IO[str]) -> None:
        writer = csv.writer(out)
        writer.writerow(["slice", "class", "fraction"])
        for i in range(self.grid.count):
            writer.writerow([i, 0, repr(float(self.zero[i]))])
            for j in range(1, self.n_classes + 1):
                writer.writerow([i, j, repr(float(self.fractions[i, j - 1]))])

    def sidecar(self) -> dict:
        lo, hi = ("k_lo", "k_hi") if self.scheme.integer else ("lo", "hi")
        classes = [{"index": c.index, lo: c.k_lo, hi: c.k_hi} for c in self.scheme.classes]
        return {
            "ratio": self.scheme.ratio,
            "classes": classes,
            "grid": {"origin": self.grid.origin, "tau": self.grid.tau, "count": self.grid.count},
            "node_count": self.node_count,
        }

    def write_sidecar(self, out: IO[str]) -> None:
        json.dump(self.sidecar(), out, indent=2, sort_keys=True)
        out.write("\n")


def fraction_matrix(
    stream: LinkStream,
    grid: TimeSliceGrid,
    scheme: ClassScheme,
    normalized: NormalizedDegrees | None = None,
) -> FractionMatrix:
    """Exact fraction matrix from degree segments clipped to slices, of the
    normalized degrees when a normalized view is given."""
    if stream.num_nodes == 0:
        raise ValueError("fraction matrix undefined for an empty node set")
    try:
        rows = np.zeros((grid.count, len(scheme)))
    except ValueError as exc:  # a shape past numpy's index range
        raise MemoryError(str(exc)) from exc
    out = FractionMatrix(grid, scheme, rows, np.zeros(grid.count), stream.num_nodes)
    for block in read_blocks(stream, grid.count, range(grid.count), _ROW_BLOCK):
        _fill_rows(out, block, _pieces(stream, grid, block, normalized))
    return out


def with_row(matrix: FractionMatrix, i: int, segs: Segments) -> FractionMatrix:
    """Copy of ``matrix`` with row ``i`` measured from ``segs``, the degree
    segments in slice ``i``, clipped to it: bitwise the row that
    ``fraction_matrix`` measures on a stream with those segments there."""
    out = replace(matrix, fractions=matrix.fractions.copy(), zero=matrix.zero.copy())
    _fill_rows(out, range(i, i + 1), (np.zeros(len(segs.node), dtype=np.int64), segs.value,
                                      segs.end - segs.start))
    return out


def _fill_rows(matrix: FractionMatrix, rows: range, pieces: tuple[np.ndarray, ...]) -> None:
    """Overwrite ``rows`` of ``matrix`` with the ``_row_measures`` of ``pieces``.

    The zero column is computed independently from the active measure, so the
    row-sum-equals-one invariant is a real check rather than a tautology.
    """
    row, value, mass, _ = _row_measures(*pieces)
    denom = matrix.grid.tau * matrix.node_count
    width = matrix.n_classes + 1
    # bincount adds in input order, row by row in ascending value order: the
    # sums of adding each row's measures one by one, bit for bit
    cells = np.bincount(row * width + matrix.scheme.class_of(value), mass, len(rows) * width)
    active = np.bincount(row, mass, len(rows))
    matrix.fractions[rows.start:rows.stop] = cells.reshape(len(rows), width)[:, 1:] / denom
    matrix.zero[rows.start:rows.stop] = (denom - active) / denom


# ---------------------------------------------------------------------------
# All-pairs slice similarity (two-sample KS)
# ---------------------------------------------------------------------------


@dataclass
class SimilarityReport:
    """KS distance over critical value for every unordered slice pair."""

    ratios: np.ndarray
    pairs: list[tuple[int, int]]
    skipped_slices: list[int]

    @property
    def fraction_above_one(self) -> float:
        if len(self.ratios) == 0:
            return 0.0
        return float((self.ratios > 1.0).mean())


def ks_similarity_report(
    per_slice: Sequence[dict[float, float]],
    alpha: float = 0.1,
    size_mode: str = "support-extent",
    delta: float = 1.0,
) -> SimilarityReport:
    """Two-sample KS of per-slice degree distributions, all unordered pairs.

    Sample sizes enter only the critical value: ``support-extent`` uses each
    slice's maximum degree, ``observation-count`` the active measure in units
    of delta.  Slices with no active couples are skipped and reported.

    Each active slice's CDF is built once and read off at every slice's
    support.  ``gap[a, b]`` is the largest CDF gap over slice a's support, and
    a pair's KS distance over its merged support, as ``ks_two_sample`` takes
    it, is ``max(gap[a, b], gap[b, a])``.
    """
    active = np.array([i for i, m in enumerate(per_slice) if m], dtype=np.int64)
    skipped = [i for i, m in enumerate(per_slice) if not m]
    keys = [sorted(per_slice[i]) for i in active]
    supports = [np.array(k, dtype=float) for k in keys]
    if size_mode == "support-extent":
        # normalized supports can sit entirely below 1; a size under one
        # observation is meaningless for the critical value
        sizes = np.array([max(1.0, float(s.max())) for s in supports], dtype=float)
    elif size_mode == "observation-count":
        sizes = np.array([max(1.0, round(ordered_sum(per_slice[i].values()) / delta))
                          for i in active], dtype=float)
    else:
        raise ValueError(f"unknown size mode {size_mode!r}")

    # slice b's support as ranks in the union plus b * len(union): one ascending
    # array, in which slice b's CDF at x is cdfs[b + the position after x]
    union = _distinct(np.concatenate([np.zeros(0)] + supports))
    ranks = [np.searchsorted(union, s) for s in supports]
    flat = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        b * len(union) + r for b, r in enumerate(ranks)])
    cdfs = np.concatenate([np.zeros(0)] + [
        _weighted_cdf(np.array([per_slice[i][k] for k in ks], dtype=float))
        for i, ks in zip(active, keys)])
    rows = np.arange(len(active))[:, None]
    gap = np.zeros((len(active), len(active)))
    for a, r in enumerate(ranks):
        at_support = cdfs[np.searchsorted(flat, rows * len(union) + r, side="right") + rows]
        gap[a] = np.abs(at_support - at_support[a]).max(axis=1)

    a, b = np.triu_indices(len(active), 1)
    n, m = sizes[a], sizes[b]
    ratios = np.maximum(gap[a, b], gap[b, a]) / (
        two_sample_coefficient(alpha) * np.sqrt((n + m) / (n * m)))
    pairs = list(zip(active[a].tolist(), active[b].tolist()))
    return SimilarityReport(ratios, pairs, skipped)
