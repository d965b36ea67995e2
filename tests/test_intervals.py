import math

from hypothesis import given, strategies as st

from streamdeg import intervals as iv

from streams import covers


def ivs_strategy():
    pair = st.tuples(
        st.floats(-100, 100, allow_nan=False),
        st.floats(0.01, 50, allow_nan=False),
    ).map(lambda p: (p[0], p[0] + p[1]))
    return st.lists(pair, max_size=12)


def test_merge_basics():
    assert iv.merge([]) == []
    assert iv.merge([(1, 2), (1.5, 3)]) == [(1, 3)]
    assert iv.merge([(1, 2), (2, 3)]) == [(1, 3)]  # touching intervals fuse
    assert iv.merge([(5, 6), (1, 2)]) == [(1, 2), (5, 6)]
    assert iv.merge([(1, 1), (2, 1)]) == []


@given(ivs_strategy())
def test_merge_canonical(raw):
    merged = iv.merge(raw)
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert e1 < s2  # disjoint and not touching
    assert all(e > s for s, e in merged)
    # idempotent
    assert iv.merge(merged) == merged


@given(ivs_strategy(), st.floats(-120, 120, allow_nan=False))
def test_merge_preserves_cover(raw, t):
    covered = any(s <= t < e for s, e in raw if e > s)
    assert covers(iv.merge(raw), t) == covered


@given(ivs_strategy(), ivs_strategy())
def test_measure_inclusion_exclusion(raw_a, raw_b):
    a = iv.merge(raw_a)
    b = iv.merge(raw_b)
    lhs = iv.union_measure(a, b) + iv.intersection_measure(a, b)
    rhs = iv.measure(a) + iv.measure(b)
    assert math.isclose(lhs, rhs, rel_tol=0, abs_tol=1e-9)


@given(ivs_strategy(), ivs_strategy(), st.floats(-120, 120, allow_nan=False))
def test_intersect_pointwise(raw_a, raw_b, t):
    a = iv.merge(raw_a)
    b = iv.merge(raw_b)
    out = iv.intersect(a, b)
    assert covers(out, t) == (covers(a, t) and covers(b, t))


def test_dilate():
    assert iv.dilate([(1, 2), (2.5, 3)], 0.25) == [(0.75, 3.25)]
    assert iv.dilate([], 1.0) == []


def test_measure_adds_left_to_right():
    # a compensated sum, as the built-in ``sum`` is from Python 3.12 on, gives 1.0000000000000002
    assert iv.measure([(0.0, 1.0), (0.0, 2**-53), (0.0, 2**-53)]) == 1.0
