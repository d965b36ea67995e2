"""Memory gates: what the ingest and the profile readers allocate, measured by
``tracemalloc``, stays bounded by what they build.

The trace has 200,000 lines over 300 nodes and 2,000 s.  Parsing it in one
step holds lists of 600,000 tokens, and reading every node's segments at
once copies every profile array; both fail these gates.
"""

import tracemalloc

import numpy as np
import pytest

from streamdeg.linkstream import build_stream
from streamdeg.slicing import ActiveNodes, TimeSliceGrid
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


def test_parse_peak_bounded_by_its_columns(trace_text):
    peak, (triplets, meta) = peak_bytes(lambda: parse_trace(trace_text))
    assert len(triplets) == LINES and meta.node_count == 300
    columns = triplets.t.nbytes + triplets.u.nbytes + triplets.v.nbytes
    assert peak < 8 * MIB + 3 * columns, (peak, columns)


def test_profile_readers_peak_below_the_profiles(stream):
    profiles = sum(t.nbytes + k.nbytes for t, k in stream._degree_arrays())
    peak, top = peak_bytes(stream.max_degree)
    assert top == max(int(k.max(initial=0)) for _, k in stream._degree_arrays())
    assert peak < profiles, (peak, profiles)
    grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, 2.0)
    peak, _ = peak_bytes(lambda: ActiveNodes(stream, grid))
    assert peak < profiles, (peak, profiles)
