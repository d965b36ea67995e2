"""The columnar synthetic generator against its references.

* ``loop_generate_synthetic`` is the per-event loop generator the columnar one
  replaced, kept as the executable spec: on any small scenario both give the
  same triplets, names, ground truth and written bytes.
* ``_regular_edges`` is networkx's regular-graph pairing, ported; on any seed
  it gives the edges of ``networkx.random_regular_graph``.  Its inlined
  shuffle makes the draws and swaps of ``random.Random.shuffle``, and the
  packed sort gives ``np.lexsort``'s order.
* Any scenario ``validate`` accepts, whatever its injection names, is written
  as a trace that ``parse_trace`` reads back.
* Golden hashes pin the written bytes of two scenarios, so they stay checked
  where networkx is not installed.
"""

import hashlib
import io
import math
import random
from typing import Iterable

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from streamdeg.trace_io import (
    FanInInjection,
    GroundTruth,
    ScanInjection,
    ScenarioSpec,
    SpikeInjection,
    TraceMeta,
    Triplet,
    Triplets,
    TruthEntry,
    _regular_edges,
    _second_centers,
    _shuffle,
    _sorted_triplets,
    generate_synthetic,
    parse_trace,
    write_ground_truth,
    write_trace,
)
from test_acceptance import main_scenario


def loop_generate_synthetic(spec: ScenarioSpec, seed: int) -> tuple[list[Triplet], TraceMeta, GroundTruth]:
    """The loop generator: one Python record per triplet, a networkx graph per
    second of a regular background, one key sort."""
    spec.validate()
    rng = np.random.default_rng(seed)
    index: dict[str, int] = {}

    records: list[tuple[float, int, int]] = []
    n_bg = spec.background_nodes
    bg = [index.setdefault(f"bg{i}", len(index)) for i in range(n_bg)]

    if n_bg > 0 and spec.background_model == "regular":
        d = spec.regular_degree
        if d >= 1:
            import networkx as nx

            for sec in range(int(math.floor(spec.duration))):
                g_seed = int(rng.integers(0, 2**31 - 1))
                graph = nx.random_regular_graph(d, n_bg, seed=g_seed)
                center = sec + 0.5
                for a, b in sorted(graph.edges()):
                    records.append((center, bg[a], bg[b]))
    elif n_bg > 0:
        rates = np.where(rng.random(n_bg) < spec.high_fraction, spec.rate_high, spec.rate_low)
        for i in range(n_bg):
            peak = rates[i] * (2.0 if spec.rate_modulation == "circadian" else 1.0)
            n_events = rng.poisson(peak * spec.duration)
            times = np.sort(rng.random(n_events) * spec.duration)
            if spec.rate_modulation == "circadian":
                phase = 2 * math.pi * times / spec.duration
                accept = rng.random(n_events) < (2.0 + np.sin(phase)) / 3.0
                times = times[accept]
            for t in times:
                peer = int(rng.integers(0, n_bg - 1))
                if peer >= i:
                    peer += 1
                records.append((float(t), bg[i], bg[peer]))

    truth_entries: list[TruthEntry] = []
    for inj in spec.injections:
        w = inj.window
        if isinstance(inj, (ScanInjection, FanInInjection)):
            scan = isinstance(inj, ScanInjection)
            name, count, kind, tag = ((inj.source, inj.targets, "scan", "t") if scan
                                      else (inj.dest, inj.sources, "fanin", "s"))
            hub = index.setdefault(name, len(index))
            centers = _second_centers(w) if spec.background_model == "regular" else None
            for j in range(count):
                fresh = index.setdefault(f"{name}.{tag}{j}", len(index))
                if centers:
                    t = centers[int(rng.integers(0, len(centers)))]
                else:
                    t = float(w[0] + rng.random() * (w[1] - w[0]))
                records.append((t, hub, fresh) if scan else (t, fresh, hub))
            truth_entries.append(TruthEntry(name, w[0], w[1], kind))
        else:
            node = index.setdefault(inj.node, len(index))
            peers = [index.setdefault(f"{inj.node}.p{j}", len(index)) for j in range(inj.level)]
            if spec.background_model == "regular":
                times: Iterable[float] = _second_centers(w)
            else:
                steps = max(1, int(math.ceil(w[1] - w[0])))
                times = [w[0] + (i + 0.5) * (w[1] - w[0]) / steps for i in range(steps)]
            for t in times:
                for p in peers:
                    records.append((t, node, p))
            truth_entries.append(TruthEntry(inj.node, w[0], w[1], "spike"))

    records.sort(key=lambda r: (r[0], r[1], r[2]))
    triplets = [Triplet(t, u, v) for t, u, v in records]
    if triplets:
        t_min = triplets[0].t
        t_max = max(tr.t for tr in triplets)
    else:
        t_min = t_max = 0.0
    meta = TraceMeta(len(triplets), len(index), t_min, t_max, list(index))
    return triplets, meta, GroundTruth(truth_entries)


def written(triplets, meta: TraceMeta, truth: GroundTruth) -> tuple[str, str]:
    trace, csv = io.StringIO(), io.StringIO()
    write_trace(triplets, meta.node_names, trace)
    write_ground_truth(truth, csv)
    return trace.getvalue(), csv.getvalue()


# names that collide with each other, with background names and with the
# fresh names another injection makes
injection_names = st.sampled_from(["hub", "hub.t0", "bg1", "x", "x.p1"])


@st.composite
def scenarios(draw, model: str, names: st.SearchStrategy[str] = injection_names) -> ScenarioSpec:
    duration = draw(st.one_of(st.integers(1, 25).map(float), st.floats(0.25, 25.0)))
    n_bg = draw(st.integers(0, 12))
    degree = draw(st.integers(1, 6))
    if model == "regular":
        assume(min(degree, n_bg - 1) * n_bg % 2 == 0)
    else:
        assume(n_bg != 1)
    injections = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)))
        window = (a * duration, b * duration)
        assume(window[0] < window[1])
        name, count = draw(names), draw(st.integers(1, 12))
        kind = draw(st.sampled_from([ScanInjection, FanInInjection, SpikeInjection]))
        injections.append(kind(name, count, window))
    return ScenarioSpec(
        duration=duration, background_nodes=n_bg, background_degree=degree,
        background_model=model,
        rate_low=draw(st.floats(0.0, 2.0)), rate_high=draw(st.floats(0.0, 3.0)),
        high_fraction=draw(st.floats(0.0, 1.0)),
        rate_modulation=draw(st.sampled_from([None, "circadian"])),
        injections=injections,
    )


def assert_matches_loop(spec: ScenarioSpec, seed: int) -> None:
    triplets, meta, truth = generate_synthetic(spec, seed)
    want_triplets, want_meta, want_truth = loop_generate_synthetic(spec, seed)
    assert isinstance(triplets, Triplets)
    assert triplets == want_triplets
    assert meta == want_meta
    assert truth.entries == want_truth.entries
    assert written(triplets, meta, truth) == written(want_triplets, want_meta, want_truth)


@given(scenarios("poisson"), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_poisson_matches_loop_generator(spec, seed):
    assert_matches_loop(spec, seed)


@given(scenarios("regular"), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_regular_matches_loop_generator(spec, seed):
    pytest.importorskip("networkx")
    assert_matches_loop(spec, seed)


# d is kept at most 6: with d close to n the pairing model restarts for minutes
@given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 2**31 - 2))
@settings(max_examples=300, deadline=None)
def test_regular_pairing_matches_networkx(n, d, seed):
    nx = pytest.importorskip("networkx")
    assume(d < n and n * d % 2 == 0)
    edges = [divmod(key, n) for key in _regular_edges(d, n, seed)]
    assert all(a < b for a, b in edges)
    want = sorted(tuple(sorted(e)) for e in nx.random_regular_graph(d, n, seed=seed).edges())
    assert sorted(edges) == want


def test_shuffle_makes_the_stdlib_draws_and_swaps():
    for n in range(1001):
        for seed in (n, 2**40 + 7 * n, 2**64 - 1 - n):
            want, got = list(range(n)), list(range(n))
            stdlib, inlined = random.Random(seed), random.Random(seed)
            stdlib.shuffle(want)
            _shuffle(got, inlined.getrandbits)
            assert got == want, (n, seed)
            assert inlined.getstate() == stdlib.getstate(), (n, seed)  # the same words drawn


@pytest.mark.parametrize("seed", range(5))
def test_packed_order_is_lexsort_order_past_raw_packing_range(seed):
    """Node ids up to 2**31 with 40 distinct times: a key of time rank,
    u and v as they are would need 40 * 2**62 > 2**63."""
    rng = np.random.default_rng(seed)
    n, rows = 2**31, 5_000
    t = rng.choice(rng.normal(size=40) * 1e6, rows)
    u = rng.choice(np.r_[0, n - 1, rng.integers(0, n, 30)], rows)
    v = rng.choice(np.r_[0, n - 2, rng.integers(0, n, 30)], rows)
    assert len(np.unique(t)) * n * n > 2**63
    order = np.lexsort((v, u, t))
    assert _sorted_triplets([t.copy(), u.copy(), v.copy()], n) == Triplets(t[order], u[order], v[order])
    assert _sorted_triplets([t[:0], u[:0], v[:0]], n) == []


def named(triplets, names: list[str]) -> list[tuple[float, str, str]]:
    return [(t, names[u], names[v]) for t, u, v in triplets]


@given(st.sampled_from(["regular", "poisson"]).flatmap(lambda model: scenarios(model, st.text())),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_accepted_scenarios_read_back(spec, seed):
    try:
        spec.validate()
    except ValueError:
        reject()
    triplets, meta, _ = generate_synthetic(spec, seed)
    trace = io.StringIO()
    write_trace(triplets, meta.node_names, trace)
    parsed, parsed_meta = parse_trace(trace.getvalue().encode("utf-8"))
    want = named(triplets, meta.node_names)
    assert named(parsed, parsed_meta.node_names) == want
    # the parser names nodes in order of first appearance
    assert parsed_meta.node_names == list(dict.fromkeys(name for _, u, v in want for name in (u, v)))


def small_poisson_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        duration=120.5, background_nodes=40, background_model="poisson",
        rate_modulation="circadian",
        injections=[
            ScanInjection("scanner", 60, (30.0, 32.5)),
            FanInInjection("sink", 25, (70.0, 71.0)),
            SpikeInjection("burst", 12, (90.25, 93.0)),
        ],
    )


# sha256 of trace.txt and truth.csv as the loop generator wrote them
GOLDEN = {
    "main-seed-6": (
        main_scenario, 6,
        "90e5aae448c0311a6dd2ba6be0b562073f863ebd9fb0740e6a5312053302629c",
        "742e9f6c64e2b6899decdadfee2c73de80888686dd2aa43505db8dfd24f70ba9",
    ),
    "small-poisson-seed-3": (
        small_poisson_scenario, 3,
        "36553654ced02bd3ddd5fed34c5926057435badd8c9b65f11dff7ff291794896",
        "15ef23264dbcd053e8d8da81f3dc877ee139d8bcbed6e6c60e0da4b5cdb7a481",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_written_bytes_match_golden_hashes(case):
    scenario, seed, trace_sha, truth_sha = GOLDEN[case]
    trace, truth = written(*generate_synthetic(scenario(), seed))
    assert hashlib.sha256(trace.encode()).hexdigest() == trace_sha
    assert hashlib.sha256(truth.encode()).hexdigest() == truth_sha
