"""Triplet trace I/O and synthetic trace generation.

A trace is a sequence of triplets ``(t, u, v)``: nodes u and v interacted at
time t.  On disk this is UTF-8 text, one ``t u v`` per line, whitespace
separated, with ``#`` comment lines.  Node identifiers are opaque tokens,
interned to dense integer indices at parse time; every downstream structure
works on indices and keeps the name table for reporting.

The synthetic generator produces traces with a stationary background plus
injected anomalies (network scan, fan-in, degree spike) and the matching
ground-truth labels, so that detection quality can be scored end to end.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import random
from collections import defaultdict, deque
from contextlib import suppress
from dataclasses import dataclass, field, fields
from itertools import chain, compress, count, islice, repeat, takewhile
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# the binary stream cache stores each node name's UTF-8 length as a u16
MAX_NAME_BYTES = 0xFFFF
# the largest mean numpy's Generator.poisson accepts
POISSON_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10
# Bytes (characters, for text) of trace one parse step reads; bounds its temporaries.
_PARSE_CHARS = 1 << 18


class TraceFormatError(ValueError):
    """Malformed trace input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Triplet(NamedTuple):
    t: float
    u: int
    v: int


@dataclass
class TraceMeta:
    triplet_count: int
    node_count: int
    t_min: float
    t_max: float
    node_names: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class TruthEntry:
    node: str
    start: float
    end: float
    kind: str  # scan | fanin | spike


@dataclass
class GroundTruth:
    entries: list[TruthEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        for e in self.entries:
            if not e.start < e.end:
                raise ValueError(f"ground-truth interval not well-formed: {e}")


class Triplets(Sequence[Triplet]):
    """A trace as three columns: times ``t`` (float64) and node indices ``u``
    and ``v`` (int64).

    Reads as a sequence of ``Triplet`` holding plain Python ``float``/``int``
    values, and compares equal to a list of the same triplets.
    """

    def __init__(self, t: np.ndarray, u: np.ndarray, v: np.ndarray):
        self.t = np.asarray(t, dtype=np.float64)
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)

    @classmethod
    def of(cls, triplets: Iterable[Triplet]) -> "Triplets":
        """The columns of any iterable of ``(t, u, v)``; a ``Triplets`` as is."""
        if isinstance(triplets, cls):
            return triplets
        rows = list(triplets)
        t, u, v = zip(*rows) if rows else ((), (), ())
        return cls(np.array(t, dtype=np.float64), np.array(u, dtype=np.int64),
                   np.array(v, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[Triplet]:
        return map(Triplet, self.t.tolist(), self.u.tolist(), self.v.tolist())

    def __getitem__(self, i: int) -> Triplet:
        return Triplet(float(self.t[i]), int(self.u[i]), int(self.v[i]))

    def __eq__(self, other) -> bool:
        if isinstance(other, Triplets):
            return all(map(np.array_equal, (self.t, self.u, self.v), (other.t, other.u, other.v)))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


def is_node_name(name: str) -> bool:
    """Whether a trace line can hold ``name`` as a node: one ``str.split``
    token that encodes as UTF-8 in at most ``MAX_NAME_BYTES`` bytes."""
    try:
        return isinstance(name, str) and name.split() == [name] and len(name.encode()) <= MAX_NAME_BYTES
    except UnicodeEncodeError:
        return False


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def parse_trace(source: io.IOBase | bytes | str) -> tuple[Triplets, TraceMeta]:
    """Parse a text trace into index-interned triplets plus summary metadata.

    Lines are split by ``str.splitlines`` and fields by ``str.split``; a line
    whose first field starts with ``#`` is a comment.  Rejects lines without
    exactly 3 fields, times ``float`` cannot read or that are not finite,
    self-interactions (u == v) and node names longer than ``MAX_NAME_BYTES``
    in UTF-8, reporting the 1-based number of the first bad line (checked in
    that order).  Triplets are returned in input order; duplicates are kept
    (they are harmless under interval-union semantics).  Names are indexed in
    order of first appearance.  The input is read in steps of ``_PARSE_CHARS``
    bytes, each parsed up to its last line feed, and the columns are joined
    one at a time.  A UTF-8 error anywhere wins over a malformed line.

    A step in ``write_trace``'s layout is split once and never into lines.
    The layout check reads the whole step, which ends with a line feed or
    holds none: it holds no ``#``; with n its tokens over 3, one pass over
    its UTF-8 bytes finds those up to 0x20 (every ASCII whitespace and
    control character) to be a space, a space and a line feed, n times over;
    and, unless the step is ASCII, its length less its tokens' is 3n, so it
    holds no other whitespace.  Then each line holds two spaces and, with 3n
    tokens in all, three fields.  Any other step is split into lines first.
    """
    index: defaultdict[str, int] = defaultdict(count().__next__)  # a new name gets the next index
    columns = [(np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64))]
    steps = _text_steps(source)
    lines_before, held = 0, []
    try:
        for text in steps:
            cut = text.rfind("\n") + 1
            if cut:
                lines_before += _parse_step("".join([*held, text[:cut]]), lines_before, index, columns)
                held.clear()
            held.append(text[cut:])
        if any(held):  # a last line with no line feed
            _parse_step("".join(held), lines_before, index, columns)
    except TraceFormatError:
        deque(steps, maxlen=0)  # decode the rest: a UTF-8 error there wins
        raise
    columns = list(zip(*columns))
    times, u, v = (np.concatenate(columns.pop(0)) for _ in range(3))  # parts freed once joined
    if len(times):
        t_min, t_max = float(times[times.argmin()]), float(times[times.argmax()])
    else:
        t_min = t_max = 0.0
    meta = TraceMeta(len(times), len(index), t_min, t_max, list(index))
    return Triplets(times, u, v), meta


def _text_steps(source: io.IOBase | bytes | str) -> Iterator[str]:
    """The text of ``source``, read and decoded ``_PARSE_CHARS`` bytes (or
    characters) at a time; ``bytes`` and ``str`` are sliced, not copied whole."""
    if isinstance(source, (bytes, str)):
        reads = (source[at:at + _PARSE_CHARS] for at in range(0, len(source), _PARSE_CHARS))
    else:
        reads = takewhile(len, map(source.read, repeat(_PARSE_CHARS)))
    decoder, offset = codecs.getincrementaldecoder("utf-8")(), 0
    for data in chain(reads, [b""]):  # the empty read ends a character cut at the end
        try:
            yield data if isinstance(data, str) else decoder.decode(data, final=not data)
        except UnicodeDecodeError as exc:  # give the offset in the whole input, as one decode does
            at = offset - len(decoder.getstate()[0])  # exc counts from the bytes held back
            exc.object, exc.start, exc.end = bytes(at) + exc.object, at + exc.start, at + exc.end
            raise
        offset += len(data)


def _write_trace_layout(text: str, tokens: list[str]) -> bool:
    """Whether ``text``, which ends with a line feed or holds none and which
    ``str.split`` cut into ``tokens``, is lines of three fields, each field
    followed by one space and the last by a line feed."""
    n = len(tokens) // 3
    if not tokens or len(tokens) != 3 * n:
        return False
    # a whitespace character outside ASCII is no byte below 0x80 in UTF-8
    if not text.isascii() and len(text) - len("".join(tokens)) != 3 * n:
        return False
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)  # a str may hold a lone surrogate
    low = np.flatnonzero(data <= 32)  # every ASCII whitespace and control character
    return len(low) == 3 * n and bool((data[low].reshape(n, 3) == (32, 32, 10)).all())


def _parse_step(text: str, lines_before: int, index: defaultdict[str, int], columns: list) -> int:
    """Check and parse ``text``, whole lines after ``lines_before`` others: add new
    names to ``index`` and the ``(t, u, v)`` columns to ``columns``; count the lines."""
    tokens = [] if "#" in text else text.split()
    if _write_trace_layout(text, tokens):
        lines = len(tokens) // 3
        line_nos = np.arange(lines) + 1 + lines_before
        fields = np.full(lines, 3)
    else:
        # every line end is whitespace to str.split, so one split of the data
        # lines yields their fields in order
        split = text.splitlines()
        lines = len(split)
        fields = np.fromiter(map(len, map(str.split, split)), np.int64, lines)
        data = fields > 0
        if "#" in text:
            comment = map(str.startswith, map(str.lstrip, split), repeat("#"))
            data &= ~np.fromiter(comment, bool, lines)
            tokens = "\n".join(compress(split, data.tolist())).split()
        del split
        line_nos = np.flatnonzero(data) + 1 + lines_before
        fields = fields[data]

    # Each check looks only at the lines before the earliest fault found so
    # far, so the first bad line wins, and on one line the earlier check.
    limit = len(fields)
    error: TraceFormatError | None = None

    def fail(i: int | None, message: Callable[[int], str]) -> None:
        nonlocal limit, error
        if i is not None:
            limit = i
            error = TraceFormatError(int(line_nos[i]), message(i))

    fail(_first(fields != 3), lambda i: f"expected 't u v', got {fields[i]} fields")
    del tokens[3 * limit:]
    time_tokens = tokens[0::3]
    try:
        times = np.fromiter(map(float, time_tokens), np.float64, len(time_tokens))
    except ValueError:
        parsed: list[float] = []
        with suppress(ValueError):
            parsed.extend(map(float, time_tokens))  # stops at the bad token
        fail(len(parsed), lambda i: f"cannot parse time {time_tokens[i]!r}")
        times = np.array(parsed, dtype=np.float64)
    fail(_first(~np.isfinite(times)), lambda i: f"non-finite time {time_tokens[i]!r}")

    del tokens[0::3]  # leaves u0, v0, u1, v1, ...
    known = len(index)
    ids = np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))  # interns new names
    fresh = list(islice(reversed(index), len(index) - known))
    u, v = ids[0::2], ids[1::2]
    fail(_first(u[:limit] == v[:limit]), lambda i: f"self-interaction {tokens[2 * i]!r}")
    # a UTF-8 character takes at most 4 bytes, so only long names need
    # encoding; a name seen in an earlier step was checked there
    too_long = [index[name] for name in fresh
                if len(name) > MAX_NAME_BYTES // 4 and len(name.encode("utf-8")) > MAX_NAME_BYTES]
    fail(_first(np.isin(u[:limit], too_long) | np.isin(v[:limit], too_long)),
         lambda i: f"node name longer than {MAX_NAME_BYTES} UTF-8 bytes")
    if error is not None:
        raise error
    columns.append((times, u, v))
    return lines


def format_time(t: float) -> str:
    """Canonical decimal rendering: integral times without trailing zeros."""
    if t == int(t) and abs(t) < 1e15:
        return str(int(t))
    return repr(t)


def write_trace(triplets: Iterable[Triplet], node_names: Sequence[str], out: io.IOBase) -> None:
    """Write triplets back to canonical text form, preserving order.

    Formats each distinct time once and writes the columns in blocks of lines.
    """
    tr = Triplets.of(triplets)
    times, at = np.unique(tr.t, return_inverse=True)
    stamps = np.array([format_time(t) for t in times.tolist()], dtype=object)
    names = np.array(list(node_names), dtype=object)
    block = 1 << 16
    for lo in range(0, len(tr), block):
        rows = slice(lo, lo + block)
        line = np.full((len(at[rows]), 6), " ", dtype=object)
        line[:, 0], line[:, 2], line[:, 4] = stamps[at[rows]], names[tr.u[rows]], names[tr.v[rows]]
        line[:, 5] = "\n"
        out.write("".join(line.ravel().tolist()))


def write_ground_truth(truth: GroundTruth, out: io.IOBase) -> None:
    writer = csv.writer(out)
    writer.writerow(["node", "start", "end", "kind"])
    for e in truth.entries:
        writer.writerow([e.node, format_time(e.start), format_time(e.end), e.kind])


def read_csv_records(text: str, fields: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """``(line, row)`` for each CSV row of ``text``, ``line`` 1-based; skips
    blank rows and a first row whose first field is ``fields[0]`` (the header).

    A row without ``len(fields)`` fields, or one the csv module rejects (e.g.
    a field over its size limit), raises ``TraceFormatError`` at its line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for n, row in enumerate(filter(None, reader)):
            if n == 0 and row[0] == fields[0]:
                continue
            if len(row) != len(fields):
                raise TraceFormatError(
                    reader.line_num, f"expected '{','.join(fields)}', got {len(row)} fields"
                )
            yield reader.line_num, row
    except csv.Error as exc:
        raise TraceFormatError(reader.line_num, str(exc)) from None


def read_ground_truth(source: io.IOBase | str) -> GroundTruth:
    """Parse ground-truth CSV rows ``node,start,end,kind`` by ``read_csv_records``;
    a time that is not a number or an interval that is not finite and
    well-formed also raises ``TraceFormatError`` at its line.
    """
    text = source if isinstance(source, str) else source.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    entries = []
    for line, (node, start, end, kind) in read_csv_records(text, ("node", "start", "end", "kind")):
        try:
            entry = TruthEntry(node, float(start), float(end), kind)
        except ValueError:
            raise TraceFormatError(line, f"cannot parse times {start!r}, {end!r}") from None
        if not -math.inf < entry.start < entry.end < math.inf:
            raise TraceFormatError(line, f"interval not finite and well-formed: {start}, {end}")
        entries.append(entry)
    return GroundTruth(entries)


# ---------------------------------------------------------------------------
# Synthetic scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanInjection:
    """One source contacts ``targets`` fresh nodes inside ``window``.

    Per-target contact probability within a degree window of width delta is
    at least ``delta / (window + delta)`` (uniform model) or ``1/ceil(window)``
    (regular model), so the source's peak degree is >= targets * p_hit.
    """

    source: str
    targets: int
    window: tuple[float, float]


@dataclass(frozen=True)
class FanInInjection:
    """``sources`` fresh nodes each contact one destination inside ``window``."""

    dest: str
    sources: int
    window: tuple[float, float]


@dataclass(frozen=True)
class SpikeInjection:
    """One node holds a sustained degree of ``level`` for the whole window."""

    node: str
    level: int
    window: tuple[float, float]


Injection = ScanInjection | FanInInjection | SpikeInjection
_INJECTION_KINDS = {"scan": ScanInjection, "fanin": FanInInjection, "spike": SpikeInjection}


@dataclass
class ScenarioSpec:
    """Synthetic trace description.

    background_model:
      * ``"regular"`` -- every integral second gets a fresh random d-regular
        graph over the background nodes, all contacts placed at the second's
        midpoint.  Per-second interaction measure is exactly constant, which
        makes per-slice degree-class fractions stationary by construction.
      * ``"poisson"`` -- each background node draws a contact rate from a
        two-point (low/high) mixture and contacts uniformly random peers as a
        Poisson process.  ``rate_modulation`` optionally scales the rate over
        time (``'circadian'`` applies a sinusoid with max/min ratio 3).
    """

    duration: float
    background_nodes: int
    background_degree: int = 4
    background_model: str = "regular"
    rate_low: float = 0.5
    rate_high: float = 2.0
    high_fraction: float = 0.2
    rate_modulation: str | None = None
    injections: list[Injection] = field(default_factory=list)

    @property
    def regular_degree(self) -> int:
        """Degree of each per-second regular graph: at most background_nodes - 1."""
        return min(self.background_degree, self.background_nodes - 1)

    def validate(self) -> None:
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        if min(self.background_nodes, self.background_degree) < 0:
            raise ValueError(f"background_nodes and background_degree must be non-negative, "
                             f"got {self.background_nodes}, {self.background_degree}")
        if self.background_model not in ("regular", "poisson"):
            raise ValueError(f"unknown background model {self.background_model!r}")
        if not (0 <= self.rate_low < math.inf and 0 <= self.rate_high < math.inf):
            raise ValueError(f"rates must be non-negative and finite, got {self.rate_low}, {self.rate_high}")
        if not 0 <= self.high_fraction <= 1:
            raise ValueError(f"high_fraction must be in [0, 1], got {self.high_fraction}")
        if self.rate_modulation not in (None, "circadian"):
            raise ValueError(f"unknown rate modulation {self.rate_modulation!r}")
        if self.background_model == "poisson":
            if self.background_nodes == 1:
                raise ValueError("a poisson background needs at least 2 nodes")
            peak = max(self.rate_low, self.rate_high) * (2.0 if self.rate_modulation == "circadian" else 1.0)
            if peak * self.duration > POISSON_LAM_MAX:
                raise ValueError(f"peak rate {peak} times duration {self.duration} is beyond "
                                 f"numpy's Poisson limit {POISSON_LAM_MAX:g}")
        if (
            self.background_model == "regular"
            and self.regular_degree >= 1
            and (self.regular_degree * self.background_nodes) % 2
        ):
            raise ValueError("regular background needs background_degree * background_nodes even")
        for inj in self.injections:
            w0, w1 = inj.window
            if not (0 <= w0 < w1 <= self.duration):
                raise ValueError(f"injection window {inj.window} outside [0, {self.duration})")
            name, count, _ = (getattr(inj, f.name) for f in fields(inj))
            if count < 1:
                raise ValueError(f"injection needs a positive count, got {count}")
            # the names made from it add '.', a letter and a number below count
            if not (is_node_name(name) and is_node_name(f"{name}.t{count - 1}")):
                raise ValueError(f"injection name {name!r:.80} or one made from it is not a "
                                 f"whitespace-free UTF-8 token of at most {MAX_NAME_BYTES} bytes")


def _reject_unknown(what: str, raw: dict, known: Iterable[str]) -> None:
    unknown = set(raw) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def scenario_from_dict(raw: dict) -> ScenarioSpec:
    """Build a scenario from its JSON representation (see README); a key
    that names no scenario field, or no field of its injection's kind, is a
    ValueError."""
    if not isinstance(raw, dict):
        raise ValueError(f"scenario must be a JSON object, got {type(raw).__name__}")
    _reject_unknown("scenario", raw, (f.name for f in fields(ScenarioSpec)))
    injections: list[Injection] = []
    for item in raw.get("injections", []):
        kind = item["kind"]
        if kind not in _INJECTION_KINDS:
            raise ValueError(f"unknown injection kind {kind!r}")
        # every kind's fields are its name, its count and its window
        name, count, _ = (f.name for f in fields(_INJECTION_KINDS[kind]))
        _reject_unknown(f"{kind} injection", item, ("kind", name, count, "window"))
        window = (float(item["window"][0]), float(item["window"][1]))
        injections.append(_INJECTION_KINDS[kind](item[name], int(item[count]), window))
    return ScenarioSpec(
        duration=float(raw["duration"]),
        background_nodes=int(raw["background_nodes"]),
        background_degree=int(raw.get("background_degree", 4)),
        background_model=raw.get("background_model", "regular"),
        rate_low=float(raw.get("rate_low", 0.5)),
        rate_high=float(raw.get("rate_high", 2.0)),
        high_fraction=float(raw.get("high_fraction", 0.2)),
        rate_modulation=raw.get("rate_modulation"),
        injections=injections,
    )


def _second_centers(window: tuple[float, float]) -> list[float]:
    """Midpoints of the integral seconds fully or partly inside the window."""
    lo = int(math.floor(window[0]))
    hi = int(math.ceil(window[1]))
    return [s + 0.5 for s in range(lo, hi) if window[0] <= s + 0.5 < window[1]]


def _shuffle(x: list, getrandbits: Callable[[int], int]) -> None:
    """``random.Random.shuffle(x)`` as CPython 3 writes it, on the same draws."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _regular_edges(d: int, n: int, seed: int) -> set[int]:
    """The edges of ``networkx.random_regular_graph(d, n, seed)``, as ``a * n + b`` for ``a < b``.

    Steger and Wormald's pairing model with restarts, ported line for line from
    networkx 3.x (BSD-3-Clause) to draw the same numbers from ``random.Random``,
    its shuffle inlined as ``_shuffle``.  ``_suitable`` keeps its in-loop swap
    of ``s1``: it decides when to restart.
    """
    rng = random.Random(seed)

    def _suitable(edges, potential_edges):
        # True while some pair of the unmatched nodes may still be joined
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 * n + s2 not in edges:
                    return True
        return False

    def _try_creation():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            potential_edges = defaultdict(lambda: 0)
            _shuffle(stubs, rng.getrandbits)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                key = s1 * n + s2
                if s1 != s2 and (key not in edges):
                    edges.add(key)
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not _suitable(edges, potential_edges):
                return None
            stubs = [node for node, potential in potential_edges.items() for _ in range(potential)]
        return edges

    edges = _try_creation()
    while edges is None:
        edges = _try_creation()
    return edges


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` with fewer whole-array temporaries."""
    order = np.argsort(values)
    values = values[order]  # frees the input unless the caller holds it
    new = np.ones(len(values), dtype=bool)
    new[1:] = values[1:] != values[:-1]
    distinct = values[new]
    del values
    sorted_rank = np.cumsum(new)
    sorted_rank -= 1
    rank = np.empty_like(order)
    rank[order] = sorted_rank
    return distinct, rank


def _sorted_triplets(columns: list[np.ndarray], n: int) -> Triplets:
    """The columns ``[t, u, v]``, ids below ``n``, in ``(t, u, v)`` order, each freed once packed.

    Sorts in place one int64 key, time rank × pair count + pair rank, below ``len(t)**2``
    whatever the ids (the pair keys ``u * n + v`` need ``n**2 < 2**63``).
    """
    columns[1] *= n
    columns[1] += columns.pop(2)
    pairs, rank = _ranks(columns.pop(1))
    times, key = _ranks(columns.pop())
    key *= len(pairs)
    key += rank
    del rank
    key.sort()
    u = pairs[key % len(pairs)]
    key //= len(pairs)
    del pairs
    t = times[key]
    del key
    v = u % n
    u //= n
    return Triplets(t, u, v)


def generate_synthetic(spec: ScenarioSpec, seed: int) -> tuple[Triplets, TraceMeta, GroundTruth]:
    """Deterministically generate a labelled synthetic trace.

    Returns interned triplets sorted by ``(t, u, v)``, the name table, and one
    ground-truth entry per injection.  A regular background draws one seed per
    second from ``numpy.random.default_rng(seed)`` and pairs that second's
    stubs by Steger and Wormald's model as networkx 3.x implements it, on
    CPython's ``random.Random`` and its ``shuffle``; everything else draws from
    the same numpy generator.  Golden hashes in the tests pin the written bytes.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    regular = spec.background_model == "regular"
    n_bg = spec.background_nodes
    index = {f"bg{i}": i for i in range(n_bg)}  # name -> dense index, in order of first use

    def intern(names: Iterable[str]) -> np.ndarray:
        return np.fromiter((index.setdefault(name, len(index)) for name in names), np.int64)

    # (t, u, v) column chunks, ordered together at the end
    chunks = [(np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64))]

    def add(t: np.ndarray, u, v) -> None:
        chunks.append(np.broadcast_arrays(t, u, v))

    if regular and spec.regular_degree >= 1:
        d, seconds = spec.regular_degree, int(math.floor(spec.duration))
        g_seeds = rng.integers(0, 2**31 - 1, size=seconds).tolist()
        keys = chain.from_iterable(_regular_edges(d, n_bg, s) for s in g_seeds)
        add(np.repeat(np.arange(seconds) + 0.5, n_bg * d // 2),
            *np.divmod(np.fromiter(keys, np.int64, seconds * n_bg * d // 2), n_bg))
    elif not regular:
        circadian = spec.rate_modulation == "circadian"
        rates = np.where(rng.random(n_bg) < spec.high_fraction, spec.rate_high, spec.rate_low)
        for i in range(n_bg):
            peak = rates[i] * (2.0 if circadian else 1.0)
            n_events = rng.poisson(peak * spec.duration)
            times = np.sort(rng.random(n_events) * spec.duration)
            if circadian:
                # thinning against (2+sin)/3 keeps a max/min rate ratio of 3
                phase = 2 * math.pi * times / spec.duration
                times = times[rng.random(n_events) < (2.0 + np.sin(phase)) / 3.0]
            peers = rng.integers(0, n_bg - 1, size=len(times))
            add(times, i, peers + (peers >= i))

    truth_entries: list[TruthEntry] = []
    for inj in spec.injections:
        w = inj.window
        if isinstance(inj, (ScanInjection, FanInInjection)):
            scan = isinstance(inj, ScanInjection)
            name, count, kind, tag = ((inj.source, inj.targets, "scan", "t") if scan
                                      else (inj.dest, inj.sources, "fanin", "s"))
            hub = intern([name])
            fresh = intern(f"{name}.{tag}{j}" for j in range(count))
            centers = _second_centers(w) if regular else None
            if centers:
                t = np.array(centers)[rng.integers(0, len(centers), size=count)]
            else:
                t = w[0] + rng.random(count) * (w[1] - w[0])
            add(t, *((hub, fresh) if scan else (fresh, hub)))
            truth_entries.append(TruthEntry(name, w[0], w[1], kind))
        else:
            node = intern([inj.node])
            peers = intern(f"{inj.node}.p{j}" for j in range(inj.level))
            if regular:
                times = np.array(_second_centers(w), dtype=np.float64)
            else:
                # one contact per peer per delta-sized step keeps the level sustained
                steps = max(1, int(math.ceil(w[1] - w[0])))
                times = w[0] + (np.arange(steps) + 0.5) * (w[1] - w[0]) / steps
            add(np.repeat(times, inj.level), node, np.tile(peers, len(times)))
            truth_entries.append(TruthEntry(inj.node, w[0], w[1], "spike"))

    parts = list(zip(*chunks))
    chunks.clear()
    columns = [np.concatenate(parts.pop(0)) for _ in range(3)]  # parts freed once joined
    triplets = _sorted_triplets(columns, len(index))
    t_min, t_max = (float(triplets.t[0]), float(triplets.t[-1])) if len(triplets) else (0.0, 0.0)
    meta = TraceMeta(len(triplets), len(index), t_min, t_max, list(index))
    return triplets, meta, GroundTruth(truth_entries)
