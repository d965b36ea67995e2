"""Memory gates: what the ingest, the profile build and readers, a removal
and the cache writer allocate, measured by ``tracemalloc``, stays bounded by
what they build.

The trace has 200,000 lines over 300 nodes and 2,000 s.  Parsing it in one
step holds lists of 600,000 tokens, reading a file whole holds its bytes and
its text, building the stream by ``np.unique``'s inverse and a three-key
``np.lexsort`` holds about ten whole-trace temporaries, reading every node's
segments at once copies every profile array, joining the profile sweep's
blocks while holding all of them holds the store twice, sweeping every cut of
a node against every pair of it holds 150,000 cuts, and gathering every
interval before writing the cache copies the interval arrays; each fails
these gates.
"""

import tracemalloc

import numpy as np
import pytest

from streamdeg.linkstream import _CACHE_WORDS, build_stream
from streamdeg.trace_io import parse_trace

LINES = 200_000
MIB = 1 << 20


def peak_bytes(call) -> tuple[int, object]:
    """Peak of the memory ``call()`` allocates beyond what was held before it,
    and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def trace_text() -> str:
    rng = np.random.default_rng(3)
    t = np.round(rng.random(LINES) * 2000.0, 3)
    u = rng.integers(0, 300, LINES)
    v = (u + rng.integers(1, 300, LINES)) % 300
    return "".join(f"{a!r} n{b} n{c}\n" for a, b, c in zip(t.tolist(), u.tolist(), v.tolist()))


@pytest.fixture(scope="module")
def stream(trace_text):
    triplets, meta = parse_trace(trace_text)
    out = build_stream(triplets, meta.node_names, 1.0)
    out._degree_arrays()
    return out


def test_parse_peak_bounded_by_its_columns(trace_text, tmp_path):
    peak, (triplets, meta) = peak_bytes(lambda: parse_trace(trace_text))
    assert len(triplets) == LINES and meta.node_count == 300
    columns = triplets.t.nbytes + triplets.u.nbytes + triplets.v.nbytes
    assert peak < 8 * MIB + 3 * columns, (peak, columns)
    # a file is read and decoded a step at a time, so neither its bytes nor
    # its whole text are held beside what parsing the text itself holds; a
    # whole read and decode, dropped before the columns are joined, peaks
    # 2.05 MiB above
    path = tmp_path / "trace.txt"
    path.write_text(trace_text, encoding="utf-8")
    with open(path, "rb") as fh:
        read, (again, _) = peak_bytes(lambda: parse_trace(fh))
    assert again == triplets
    assert read < peak + MIB, (read, peak)


def test_build_peak_bounded_by_the_columns(trace_text):
    triplets, meta = parse_trace(trace_text)
    peak, stream = peak_bytes(lambda: build_stream(triplets, meta.node_names, 1.0))
    assert stream.num_pairs > 40_000
    columns = triplets.t.nbytes + triplets.u.nbytes + triplets.v.nbytes
    assert peak < 2.5 * columns, (peak, columns)


def test_profile_readers_peak_below_the_profiles(stream):
    first, times, levels = stream._degree_arrays()
    profiles = times.nbytes + levels.nbytes
    peak, top = peak_bytes(stream.max_degree)
    assert top == max(int(k.max(initial=0)) for k in np.split(levels, first[1:-1]))
    assert peak < profiles, (peak, profiles)


def test_profile_build_peak_below_twice_the_store(trace_text):
    # the sweep's blocks are joined one column at a time, each column's blocks
    # freed once joined; joining every column while all blocks are held peaks
    # at 2.36 times the store
    triplets, meta = parse_trace(trace_text)
    stream = build_stream(triplets, meta.node_names, 1.0)
    peak, store = peak_bytes(stream._degree_arrays)
    size = sum(a.nbytes for a in store)
    assert peak < 2 * size, (peak, size)


def test_removal_peak_bounded_by_the_intervals(trace_text):
    # 500 one-second cuts of a node with 299 pairs: each pair takes only the
    # cuts that overlap its intervals, not all 500; with no profiles built,
    # the removal only trims
    triplets, meta = parse_trace(trace_text)
    stream = build_stream(triplets, meta.node_names, 1.0)
    cuts = [(0, (a, a + 1.0)) for a in np.arange(0.0, 2000.0, 4.0).tolist()]
    peak, out = peak_bytes(lambda: stream.remove_interactions(cuts))
    assert out.total_link_seconds() < stream.total_link_seconds()
    intervals = stream._starts.nbytes + stream._ends.nbytes
    assert peak < 3 * intervals, (peak, intervals)


class _CountingSink:
    """A binary output that keeps only the number of bytes written to it."""

    def __init__(self):
        self.size = 0

    def write(self, data: bytes) -> None:
        self.size += len(data)


def test_save_peak_bounded_by_its_blocks():
    # 20 nodes, so about 1,000 intervals per pair: the interval arrays dwarf
    # the per-pair arrays, and the writer holds a few blocks of words at a time,
    # on a fresh stream and on one whose removal killed pairs
    rng = np.random.default_rng(3)
    t = np.round(rng.random(LINES) * 2000.0, 3)
    u = rng.integers(0, 20, LINES)
    v = (u + rng.integers(1, 20, LINES)) % 20
    text = "".join(f"{a!r} n{b} n{c}\n" for a, b, c in zip(t.tolist(), u.tolist(), v.tolist()))
    triplets, meta = parse_trace(text)
    fresh = build_stream(triplets, meta.node_names, 0.01)
    derived = fresh.remove_interactions([(n, (0.0, 2000.0)) for n in range(0, 20, 7)])
    assert derived.num_pairs < fresh.num_pairs
    for stream in (fresh, derived):
        sink = _CountingSink()
        peak, _ = peak_bytes(lambda: stream.save(sink))
        intervals = stream._starts.nbytes + stream._ends.nbytes
        assert peak < 4 * 8 * _CACHE_WORDS < intervals, (peak, intervals)
