"""Differential tests of the columnar trace ingest.

``reference_parse`` is the line-by-line parser the columnar ``parse_trace``
replaced, ``whole_text_parse`` the columnar parser that read the whole text
in one step before ``parse_trace`` read it in steps, and ``reference_links``
the ``intervals.merge``-based construction of a stream's links that
``LinkStream.from_triplets`` replaced; all are kept here as the oracles.
``reference_links`` lists the pairs in key order, the order every stream
keeps.
"""

import io
import math
from contextlib import suppress
from itertools import compress, repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamdeg import intervals as iv
from streamdeg import trace_io
from streamdeg.linkstream import build_stream
from streamdeg.trace_io import (
    MAX_NAME_BYTES,
    TraceFormatError,
    TraceMeta,
    Triplet,
    Triplets,
    parse_trace,
)


def reference_parse(text: str) -> tuple[list[Triplet], TraceMeta]:
    triplets: list[Triplet] = []
    names: list[str] = []
    index: dict[str, int] = {}

    def intern(name: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    t_min = math.inf
    t_max = -math.inf
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise TraceFormatError(line_no, f"expected 't u v', got {len(parts)} fields")
        try:
            t = float(parts[0])
        except ValueError:
            raise TraceFormatError(line_no, f"cannot parse time {parts[0]!r}") from None
        if not math.isfinite(t):
            raise TraceFormatError(line_no, f"non-finite time {parts[0]!r}")
        if parts[1] == parts[2]:
            raise TraceFormatError(line_no, f"self-interaction {parts[1]!r}")
        for name in parts[1:]:
            if len(name.encode("utf-8")) > MAX_NAME_BYTES:
                raise TraceFormatError(
                    line_no, f"node name longer than {MAX_NAME_BYTES} UTF-8 bytes"
                )
        triplets.append(Triplet(t, intern(parts[1]), intern(parts[2])))
        t_min = min(t_min, t)
        t_max = max(t_max, t)
    if not triplets:
        t_min = t_max = 0.0
    return triplets, TraceMeta(len(triplets), len(names), t_min, t_max, names)


def first_of(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def whole_text_parse(source) -> tuple[Triplets, TraceMeta]:
    """``parse_trace`` as it was when it read the whole text in one step."""
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw

    # every line end is whitespace to str.split, so one split of the data
    # lines yields their fields in order
    lines = text.splitlines()
    fields = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    data = fields > 0
    if "#" in text:
        comment = map(str.startswith, map(str.lstrip, lines), repeat("#"))
        data &= ~np.fromiter(comment, bool, len(lines))
        text = "\n".join(compress(lines, data.tolist()))
    del lines
    line_nos = np.flatnonzero(data) + 1
    fields = fields[data]

    # Each check looks only at the lines before the earliest fault found so
    # far, so the first bad line wins, and on one line the earlier check.
    limit = len(fields)
    error: TraceFormatError | None = None

    def fail(i: int | None, message) -> None:
        nonlocal limit, error
        if i is not None:
            limit = i
            error = TraceFormatError(int(line_nos[i]), message(i))

    fail(first_of(fields != 3), lambda i: f"expected 't u v', got {fields[i]} fields")
    tokens = text.split()
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
    fail(first_of(~np.isfinite(times)), lambda i: f"non-finite time {time_tokens[i]!r}")

    del tokens[0::3]  # leaves u0, v0, u1, v1, ...
    index = dict.fromkeys(tokens)
    for i, name in enumerate(index):
        index[name] = i
    names = list(index)
    ids = np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))
    u, v = ids[0::2], ids[1::2]
    fail(first_of(u[:limit] == v[:limit]), lambda i: f"self-interaction {names[u[i]]!r}")
    # a UTF-8 character takes at most 4 bytes, so only long names need encoding
    name_lengths = np.fromiter(map(len, names), np.int64, len(names))
    too_long = np.zeros(len(names), dtype=bool)
    for i in np.flatnonzero(name_lengths > MAX_NAME_BYTES // 4):
        too_long[i] = len(names[i].encode("utf-8")) > MAX_NAME_BYTES
    fail(
        first_of(too_long[u[:limit]] | too_long[v[:limit]]),
        lambda i: f"node name longer than {MAX_NAME_BYTES} UTF-8 bytes",
    )
    if error is not None:
        raise error

    if len(times):
        t_min, t_max = float(times[times.argmin()]), float(times[times.argmax()])
    else:
        t_min = t_max = 0.0
    meta = TraceMeta(len(times), len(names), t_min, t_max, names)
    return Triplets(times, u, v), meta


def reference_links(triplets, delta: float) -> dict:
    half = delta / 2.0
    raw: dict = {}
    for t, u, v in triplets:
        raw.setdefault((min(u, v), max(u, v)), []).append((t - half, t + half))
    return {key: iv.merge(raw[key]) for key in sorted(raw)}


def exact(triplets) -> list:
    """Triplets with the types and float signs spelled out."""
    return [(repr(t), type(t), u, type(u), v, type(v)) for t, u, v in triplets]


def assert_parses_alike(text: str) -> None:
    try:
        want = reference_parse(text)
    except TraceFormatError as exc:
        with pytest.raises(TraceFormatError) as got:
            parse_trace(text)
        assert (got.value.line_no, str(got.value)) == (exc.line_no, str(exc))
        return
    triplets, meta = parse_trace(text)
    assert isinstance(triplets, Triplets)
    assert exact(triplets) == exact(want[0])
    assert triplets == want[0]
    assert meta == want[1]
    assert (repr(meta.t_min), repr(meta.t_max)) == (repr(want[1].t_min), repr(want[1].t_max))


def assert_builds_alike(triplets, names, delta: float) -> None:
    want = reference_links(triplets, delta)
    for given_as in (list(triplets), Triplets.of(triplets)):
        stream = build_stream(given_as, names, delta)
        assert list(stream.links.items()) == list(want.items())
        assert all(type(s) is float and type(e) is float for ivs in stream.links.values()
                   for s, e in ivs)
        starts = [ivs[0][0] for ivs in want.values() if ivs]
        ends = [ivs[-1][1] for ivs in want.values() if ivs]
        assert stream.t_begin == (min(starts) if starts else 0.0)
        assert stream.t_end == (max(ends) if ends else 0.0)


LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SEPARATORS = [" ", "  ", "\t", " \t ", "\x1f", "\xa0", "\u3000"]
TIMES = ["0", "1", "2.5", "0.25", "-3", "1_0", "-0.0", "+0", "1e17", "1e22", "infinity",
         "-inf", "nan", "1e400", "oops", "1__0", "0x10", "٣"]
NAMES = ["a", "b", "c", "a#b", "#b", "é", "a.b", "1", "-0.0"]

GOOD_TIMES = ["0", "1", "2.5", "0.25", "-3", "1_0", "-0.0", "+0", "1e17", "1e22"]

separators = st.sampled_from(SEPARATORS)
float_reprs = st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr)


@st.composite
def trace_lines(draw, valid: bool) -> str:
    """One line; with ``valid`` only data, comment and blank lines."""
    kinds = ["data"] * 6 + ["comment", "blank"] + ([] if valid else ["fields", "self"])
    kind = draw(st.sampled_from(kinds))
    lead = draw(st.sampled_from(["", " ", "\t", "\x1f "]))
    trail = draw(st.sampled_from(["", " ", "\t"]))
    sep = draw(separators)
    if kind == "comment":
        body = "#" + draw(st.sampled_from(["", " header", "1 a b", "#"]))
    elif kind == "blank":
        body = ""
    elif kind == "fields":
        tokens = draw(st.lists(st.sampled_from(NAMES + TIMES[:3]), max_size=5)
                      .filter(lambda ts: len(ts) != 3))
        body = sep.join(tokens)
    else:
        u = draw(st.sampled_from(NAMES))
        v = u if kind == "self" else draw(st.sampled_from([n for n in NAMES if n != u]))
        time = draw(st.one_of(st.sampled_from(GOOD_TIMES if valid else TIMES), float_reprs))
        body = sep.join([time, u, v])
    return lead + body + trail


@st.composite
def trace_texts(draw, valid: bool = False) -> str:
    lines = draw(st.lists(trace_lines(valid), max_size=12))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no line end after the last line
    return text


LAYOUT_NAMES = [name for name in NAMES if "#" not in name]
# one change to one line of a trace in write_trace's layout; every change but
# the non-ASCII name takes the step that holds the line off the fast path
LINE_CHANGES = {
    "double space": lambda line: line.replace(" ", "  ", 1),
    "tab": lambda line: line.replace(" ", "\t", 1),
    "\\r\\n": lambda line: line + "\r",
    "leading space": lambda line: " " + line,
    "trailing space": lambda line: line + " ",
    "2 fields": lambda line: line.rsplit(" ", 1)[0],
    "4 fields": lambda line: line + " d",
    "comment line": lambda line: "# t u\n" + line,  # three fields, single spaces
    "blank line": lambda line: "\n" + line,
    "\\xa0": lambda line: line.replace(" ", "\xa0", 1),
    "\\x1f": lambda line: line.replace(" ", "\x1f", 1),
    "non-ASCII name": lambda line: line + "\u540d",
}


@st.composite
def layout_traces(draw) -> tuple[str, bool]:
    """A trace in ``write_trace``'s layout, ``t u v`` and a line feed on each
    line, with faulty times and self-interactions or not; or a valid one with
    one change (``LINE_CHANGES``, or no line feed after the last line).  Also
    whether it keeps to the layout, so that the faults of a changed trace all
    lie in the step that holds the change."""
    change = draw(st.one_of(st.none(), st.sampled_from([*LINE_CHANGES, "no last line feed"])))
    valid = change is not None or draw(st.booleans())
    time = st.one_of(st.sampled_from(GOOD_TIMES if valid else TIMES), float_reprs)
    rows = st.tuples(time, st.sampled_from(LAYOUT_NAMES), st.sampled_from(LAYOUT_NAMES))
    lines = [" ".join(row) for row in draw(st.lists(rows.filter(lambda r: not valid or r[1] != r[2]),
                                                      min_size=1, max_size=12))]
    if change in LINE_CHANGES:
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = LINE_CHANGES[change](lines[at])
    text = "".join(line + "\n" for line in lines)
    if change == "no last line feed":
        text = text[:-1]
    return text, change in (None, "non-ASCII name")


def layout_verdicts(run) -> tuple:
    """``run()``, and what ``_write_trace_layout`` answered for each step it parsed."""
    verdicts = []
    check = trace_io._write_trace_layout

    def spy(text, tokens):
        verdicts.append(check(text, tokens))
        return verdicts[-1]

    with mock.patch.object(trace_io, "_write_trace_layout", spy):
        return run(), verdicts


def assert_layout_path(in_layout: bool, verdicts: list) -> None:
    """Every step of a trace in the layout took the fast path, and some step
    of a changed one did not."""
    if in_layout:
        assert verdicts and all(verdicts)
    else:
        assert not all(verdicts)


class TestParseMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(trace_texts(), trace_texts(valid=True)))
    @example("")
    @example("1 a b\r\n2 b c\r\n")
    @example("1 a b\x0b2 b c\x0c3 c a\x1c4 a b\x1d5 b c\x1e6 c a\x857 a b 8 b c ")
    @example("1\ta\tb\n2\t\tb c\n")
    @example("1 a\x1fb\n")
    @example("  # indented comment\n\t#tab comment\n1 a#b b\n2 #a b\n")
    @example("1_0 a b\n-0.0 b c\n")
    @example("-0.0 a b\n0 b c\n0.0 c a\n")
    @example("infinity a b\n")
    @example("1e400 a b\n")
    @example("1 a b\n1 a b\n1 b a\n")
    @example("1 a b\n2 c c\n3 d\n")
    @example("1 a b\n2 c\n3 d d\n")
    @example("1 a b\noops c d\n2 e e\n")
    @example("nan a a\n")
    def test_parse(self, text):
        assert_parses_alike(text)

    @settings(max_examples=200, deadline=None)
    @given(layout_traces())
    @example(("1 a b\n2.5 b \u540d\n", True))
    @example(("1 a b\n2 c c\noops d e\n", True))  # faults on the fast path: the first line wins
    @example(("1 a b\n2 b c", False))
    @example(("1 a b 2\nc d\n", False))  # a fourth field, and one missing on the next line
    # a fourth field after a tab or a no-break space, and two spaces before a second
    @example(("1 a\tx b\n2  c\n", False))
    @example(("1 a\xa0x b\n2  c\n", False))
    def test_write_trace_layout(self, case):
        text, in_layout = case
        _, verdicts = layout_verdicts(lambda: assert_parses_alike(text))
        assert_layout_path(in_layout, verdicts)

    @pytest.mark.parametrize("text", [
        f"1 a {'x' * MAX_NAME_BYTES}\n",
        f"1 a {'x' * (MAX_NAME_BYTES + 1)}\n",
        f"1 {'é' * (MAX_NAME_BYTES // 2)}x b\n",
        f"1 {'é' * (MAX_NAME_BYTES // 2 + 1)} b\n",
        f"1 a b\n2 c {'€' * 21846}\n3 d\n",
        f"1 a b\n2 c d e\n3 {'€' * 21846} c\n",
        f"1 {'x' * (MAX_NAME_BYTES + 1)} {'x' * (MAX_NAME_BYTES + 1)}\n",
    ])
    def test_name_length_limit(self, text):
        assert_parses_alike(text)

    def test_two_faults_first_line_wins(self):
        for first, second in [("2 c", "3 d d"), ("x c d", "3 e"), ("inf c d", "nan e f"),
                              ("2 c c", "3 d"), ("2 d d", "oops e f")]:
            text = f"1 a b\n{first}\n{second}\n"
            with pytest.raises(TraceFormatError) as exc:
                parse_trace(text)
            assert exc.value.line_no == 2
            assert_parses_alike(text)
            assert_parses_alike(f"1 a b\n{second}\n{first}\n")


def parse_outcome(parser, source) -> tuple:
    """What ``parser`` makes of ``source``: exact triplets and metadata, or
    the error's line and message."""
    try:
        triplets, meta = parser(source)
    except TraceFormatError as exc:
        return "rejected", exc.line_no, str(exc)
    except UnicodeDecodeError as exc:
        return "not UTF-8", str(exc)
    return exact(triplets), meta, repr(meta.t_min), repr(meta.t_max)


def as_source(text: str, kind: str):
    return {"str": text, "bytes": text.encode("utf-8"),
            "file": io.BytesIO(text.encode("utf-8"))}[kind]


class TestStepsMatchWholeText:
    """``parse_trace`` with steps of a few characters against ``whole_text_parse``."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(trace_texts(), trace_texts(valid=True)), st.integers(1, 8),
           st.sampled_from(["str", "bytes", "file"]))
    @example("1 a b\r\n2 b c\r\n3 c c\r\n", 3, "str")  # every step ends in a \r\n
    @example("1 a b\r2 b c\n3 c a\r\n", 1, "bytes")
    @example("# c\n1\xa0a b\x852 b c\n#\n3 c a\n", 2, "file")
    @example("1 a b\n2 b c\nx c a\n4 d d\n", 4, "str")
    @example("1 a b\n2 b c\n3 c\n", 2, "str")
    @example("1 a b\n2 b c\n3 d d\n", 2, "str")
    @example("1 a b\n\n\n2 b c\ninf c a\n", 1, "str")
    def test_parse(self, text, step, kind):
        want = parse_outcome(whole_text_parse, as_source(text, kind))
        with mock.patch.object(trace_io, "_PARSE_CHARS", step):
            assert parse_outcome(parse_trace, as_source(text, kind)) == want

    @settings(max_examples=200, deadline=None)
    @given(layout_traces(), st.integers(1, 8), st.sampled_from(["str", "bytes", "file"]))
    @example(("1 a b\n2 b c\n3 c a\n4 d d\n", True), 6, "str")  # a fault three steps on
    @example(("1 a b\n2 b c\n3 c\r\n", False), 5, "bytes")
    @example(("1 a b\n2 b c 3\nc a\n", False), 64, "file")  # a field moved to the next line
    def test_write_trace_layout(self, case, step, kind):
        text, in_layout = case
        want = parse_outcome(whole_text_parse, as_source(text, kind))
        with mock.patch.object(trace_io, "_PARSE_CHARS", step):
            got, verdicts = layout_verdicts(lambda: parse_outcome(parse_trace, as_source(text, kind)))
        assert got == want
        assert_layout_path(in_layout, verdicts)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(trace_texts(), trace_texts(valid=True)), st.binary(min_size=1, max_size=6),
           st.integers(0, 80), st.integers(1, 8), st.sampled_from(["bytes", "file"]))
    @example("1 a a\n2 b c\n", b"\xff", 9, 4, "file")  # a malformed line, then a bad byte
    @example("1 a \u20ac\n", b"\xe2\x82", 8, 3, "bytes")  # a bad byte the decoder held back
    def test_utf8_error(self, text, junk, at, step, kind):
        # bytes spliced into UTF-8 text: a UTF-8 error anywhere wins, with the
        # byte offset that one decode of the whole input gives
        data = text.encode("utf-8")
        data = data[:at] + junk + data[at:]
        want = parse_outcome(whole_text_parse, data)
        with mock.patch.object(trace_io, "_PARSE_CHARS", step):
            assert parse_outcome(parse_trace, data if kind == "bytes" else io.BytesIO(data)) == want

    @pytest.mark.parametrize("text", [
        f"1 a b\n2 c {'x' * (MAX_NAME_BYTES + 1)}\n",
        f"1 a b\n2 c d\n3 {'€' * 21846} c\n",
        f"1 {'x' * (MAX_NAME_BYTES + 1)} b\n2 a b\n",
        f"1 a {'é' * (MAX_NAME_BYTES // 2)}\n2 {'é' * (MAX_NAME_BYTES // 2)} b\n3 c c\n",
    ])
    def test_name_length_limit(self, text):
        want = parse_outcome(whole_text_parse, text)
        with mock.patch.object(trace_io, "_PARSE_CHARS", 4):
            assert parse_outcome(parse_trace, text) == want


class TestTriplets:
    def test_sequence_of_plain_values(self):
        triplets, _ = parse_trace("1 a b\n2.5 b c\n")
        assert len(triplets) == 2
        first = triplets[0]
        assert first == Triplet(1.0, 0, 1)
        assert (type(first.t), type(first.u), type(first.v)) == (float, int, int)
        assert triplets[-1] == Triplet(2.5, 1, 2)
        assert triplets == [Triplet(1.0, 0, 1), Triplet(2.5, 1, 2)]
        assert triplets != [Triplet(1.0, 0, 1)]
        with pytest.raises(IndexError):
            triplets[2]

    def test_of_round_trips(self):
        rows = [Triplet(0.5, 2, 0), Triplet(0.5, 0, 2)]
        cols = Triplets.of(rows)
        assert cols == rows
        assert Triplets.of(cols) is cols
        assert Triplets.of(iter([])) == []


pair_times = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.25, 10.0, 1e16, 1e17, 1e17 + 16, 2.0**53]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e15, max_value=1e18, allow_nan=False),
)


class TestBuildMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(pair_times, st.integers(0, 5), st.integers(0, 5))
                 .filter(lambda r: r[1] != r[2]), max_size=40),
        st.sampled_from([1.0, 0.1, 3.0, 1e-9, 2.0**-30]),
    )
    @example([], 1.0)
    @example([(1.0, 0, 1), (1.0, 0, 1), (1.0, 1, 0)], 1.0)
    @example([(1e17, 0, 1), (1.0, 1, 2), (1e17, 0, 1)], 1.0)  # t ± delta/2 collapses at 1e17
    @example([(1e17, 0, 1)], 1.0)
    @example([(0.0, 3, 1), (1.0, 1, 3), (2.5, 0, 3), (3.5, 3, 1)], 1.0)
    def test_links(self, rows, delta):
        triplets = [Triplet(t, u, v) for t, u, v in rows]
        assert_builds_alike(triplets, [f"n{i}" for i in range(6)], delta)

    @settings(max_examples=100, deadline=None)
    @given(trace_texts(valid=True))
    def test_parsed_traces(self, text):
        triplets, meta = parse_trace(text)
        assert_builds_alike(list(triplets), meta.node_names, 1.0)
