"""Acceptance suite: one test per release criterion, one printed line each.

Criteria 5-10 read their numeric outcomes from the ``criterion_artifacts``
bundle, collected once a session, so that criterion 11 can compare it with two
fresh runs byte for byte (one a threads=4 variant of the parallel surface).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sp_stats

from streamdeg.linkstream import LinkStream, build_stream, normalize_degrees
from streamdeg.pipeline import PipelineParams, run_identification
from streamdeg.reporting import label_overlap, validate_removal
from streamdeg.robust_stats import (
    fit_homogeneous,
    grubbs_critical,
    power_law_test,
    three_sigma_outliers,
)
from streamdeg.slicing import (
    TimeSliceGrid,
    build_class_scheme,
    fraction_matrix,
    ks_similarity_report,
    slice_value_measures,
)
from streamdeg.trace_io import (
    FanInInjection,
    ScanInjection,
    ScenarioSpec,
    SpikeInjection,
    Triplet,
    generate_synthetic,
)

from streams import max_value, pairs_of

DELTA = 1.0
TAU = 2.0
RATIO = 0.1


def report_line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status} {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def dump_json(payload, path: Path) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# shared scenarios
# ---------------------------------------------------------------------------


def main_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        duration=600,
        background_nodes=200,
        background_degree=4,
        injections=[
            ScanInjection("scanner", 5000, (300.0, 302.0)),
            FanInInjection("sink", 300, (420.0, 422.0)),
            SpikeInjection("burst", 150, (100.0, 102.0)),
        ],
    )


@pytest.fixture(scope="module")
def main_trace():
    triplets, meta, truth = generate_synthetic(main_scenario(), seed=6)
    stream = build_stream(triplets, meta.node_names, DELTA)
    return stream, meta, truth


def build_rollback_stream() -> tuple[LinkStream, list[str]]:
    spec = ScenarioSpec(duration=600, background_nodes=100, background_degree=4)
    triplets, meta, _ = generate_synthetic(spec, seed=9)
    names = list(meta.node_names)
    index = {n: i for i, n in enumerate(names)}

    def intern(n: str) -> int:
        if n not in index:
            index[n] = len(names)
            names.append(n)
        return index[n]

    extra = []
    hub = intern("hub")
    partners = [intern(f"hub.p{j}") for j in range(300)]
    for sec in range(600):
        for p in partners:
            extra.append(Triplet(sec + 0.5, hub, p))
    spikers = [intern(f"hub.s{j}") for j in range(3000)]
    for sec in (300, 301):
        for s in spikers:
            extra.append(Triplet(sec + 0.5, hub, s))
    merged = sorted(list(triplets) + extra, key=lambda t: t.t)
    return build_stream(merged, names, DELTA), names


def random_corpus(n_streams: int = 50, master_seed: int = 2024):
    streams = []
    for i in range(n_streams):
        rng = np.random.default_rng([master_seed, i])
        n_nodes = int(rng.integers(2, 51))
        n_triplets = int(rng.integers(50, 2001))
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        names = [f"n{k}" for k in range(n_nodes)]
        triplets = []
        for _ in range(n_triplets):
            u = int(rng.integers(0, n_nodes))
            v = int(rng.integers(0, n_nodes - 1))
            if v >= u:
                v += 1
            triplets.append(Triplet(float(rng.uniform(0, 100)), u, v))
        streams.append((build_stream(triplets, names, delta), rng))
    return streams


# ---------------------------------------------------------------------------
# criterion artifact collectors (re-runnable for the determinism criterion)
# ---------------------------------------------------------------------------


def collect_c5(seed_base: int = 0) -> dict:
    runs = []
    successes = 0
    for seed in range(seed_base, seed_base + 20):
        rng = np.random.default_rng(seed)
        mu, sigma = 2.1e-3, 1e-4
        values = np.concatenate([rng.normal(mu, sigma, 1800), np.full(5, mu + 10 * sigma)])
        fit = fit_homogeneous(values)
        high, low = three_sigma_outliers(values, fit)
        plants = set(range(1800, 1805))
        # a true normal sample of 1800 points carries ~5 natural three-sigma
        # excursions of its own, so the plants must be flagged and dominate
        # every flagged value; they cannot be required to be the only flags
        ok = (
            fit.accepted
            and plants <= set(high)
            and set(int(i) for i in np.argsort(values)[-5:]) == plants
        )
        successes += ok
        runs.append(
            {
                "seed": seed,
                "accepted": bool(fit.accepted),
                "mu": float(fit.mu),
                "sigma": float(fit.sigma),
                "high": sorted(int(i) for i in high),
                "low": sorted(int(i) for i in low),
                "success": bool(ok),
            }
        )
    return {"successes": successes, "runs": runs}


def collect_c6(stream, meta, truth) -> dict:
    grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, TAU)
    scheme = build_class_scheme(stream.max_degree(), RATIO)
    result = run_identification(stream, grid, scheme, PipelineParams())
    validation = validate_removal(stream, result.final_stream, result)
    overlap = label_overlap(result.identified_set, meta.node_names, truth, slack=DELTA)
    return {
        "identified_entries": {
            meta.node_names[n]: ivs for n, ivs in sorted(result.identified_set.entries.items())
        },
        "events": {
            "detected": len(result.detected_events),
            "identified": len(result.identified_events),
            "residual": len(result.residual_events),
            "rolled_back": len(result.rolled_back_events),
        },
        "validation": validation.to_dict(),
        "overlap": overlap.to_dict(),
    }


def collect_c7() -> dict:
    stream, names = build_rollback_stream()
    grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, TAU)
    scheme = build_class_scheme(stream.max_degree(), RATIO)
    import io

    before = io.BytesIO()
    stream.save(before)
    result = run_identification(stream, grid, scheme, PipelineParams())
    after = io.BytesIO()
    result.final_stream.save(after)
    return {
        "log": [
            {"event": list(rec.event.key), "status": rec.status, "reason": rec.reason}
            for rec in result.log
        ],
        "rolled_back": len(result.rolled_back_events),
        "identified": len(result.identified_events),
        "residual": len(result.residual_events),
        "stream_restored": before.getvalue() == after.getvalue(),
    }


def collect_c8(stream, meta, threads: int = 1) -> dict:
    taus = [0.5, 1.0, 2.0, 4.0]
    from streamdeg.reporting import sweep

    rep = sweep(stream, "tau", taus, 2.0, TAU, RATIO, PipelineParams(), threads=threads)
    burst = meta.node_names.index("burst")
    spike_intervals = {}
    for tau in taus:
        grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, tau)
        scheme = build_class_scheme(stream.max_degree(), RATIO)
        res = run_identification(stream, grid, scheme, PipelineParams())
        spike_intervals[str(tau)] = res.identified_set.entries.get(burst, [])
    return {
        "jaccards": {str(p.value): p.jaccard_vs_reference for p in rep.points},
        "identified_measures": {str(p.value): p.identified_measure for p in rep.points},
        "spike_intervals": spike_intervals,
    }


def collect_c9() -> dict:
    spec = ScenarioSpec(
        duration=400,
        background_nodes=120,
        background_model="poisson",
        rate_low=1.0,
        rate_high=3.0,
        high_fraction=0.25,
        rate_modulation="circadian",
    )
    triplets, meta, _ = generate_synthetic(spec, seed=3)
    stream = build_stream(triplets, meta.node_names, DELTA)
    grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, TAU)
    raw = ks_similarity_report(slice_value_measures(stream, grid))
    view = normalize_degrees(stream, stream.mean_degree_per_second())
    normalized = ks_similarity_report(slice_value_measures(stream, grid, view))
    return {
        "raw_fraction_above_one": raw.fraction_above_one,
        "normalized_fraction_above_one": normalized.fraction_above_one,
        "pairs": len(raw.pairs),
    }


def collect_c10() -> dict:
    zipf_runs = []
    geom_runs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        samples = rng.zipf(2.5, 10_000)
        v = power_law_test(samples, bootstrap_count=250, significance=0.1, seed=seed)
        zipf_runs.append(
            {"seed": seed, "alpha_hat": v.alpha_hat, "k_min": v.k_min,
             "p_value": v.p_value, "rejected": v.rejected}
        )
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        samples = rng.geometric(0.05, 10_000)
        v = power_law_test(samples, bootstrap_count=250, significance=0.1, seed=seed)
        geom_runs.append(
            {"seed": seed, "alpha_hat": v.alpha_hat, "k_min": v.k_min,
             "p_value": v.p_value, "rejected": v.rejected}
        )
    return {"zipf": zipf_runs, "geometric": geom_runs}


def write_criterion_artifacts(out_dir: Path, threads: int = 1) -> dict[str, float]:
    """Write criteria 5-10's artifacts; returns the seconds each took to collect."""
    out_dir.mkdir(parents=True, exist_ok=True)
    triplets, meta, truth = generate_synthetic(main_scenario(), seed=6)
    stream = build_stream(triplets, meta.node_names, DELTA)
    collectors = {
        "c5.json": collect_c5,
        "c6.json": lambda: collect_c6(stream, meta, truth),
        "c7.json": collect_c7,
        "c8.json": lambda: collect_c8(stream, meta, threads=threads),
        "c9.json": collect_c9,
        "c10.json": collect_c10,
    }
    seconds = {}
    for name, collect in collectors.items():
        start = time.perf_counter()
        dump_json(collect(), out_dir / name)
        seconds[name] = time.perf_counter() - start
    return seconds


@pytest.fixture(scope="session")
def criterion_artifacts(tmp_path_factory):
    """Criteria 5-10's artifacts, collected once a session: ``(directory,
    seconds per artifact)``.  Criterion 11 compares them with fresh runs."""
    out = tmp_path_factory.mktemp("criteria")
    return out, write_criterion_artifacts(out)


def read_artifact(bundle, name: str) -> tuple[dict, float]:
    """An artifact of the bundle, and the seconds it took to collect."""
    out, seconds = bundle
    return json.loads((out / name).read_text()), seconds[name]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_class_scheme_fidelity():
    start = time.perf_counter()
    scheme = build_class_scheme(25118, RATIO)
    first = [(c.k_lo, c.k_hi) for c in scheme.classes[:4]]
    c19 = scheme.classes[18]
    ok = (
        first == [(1, 1), (2, 2), (3, 3), (4, 5)]
        and (c19.k_lo, c19.k_hi) == (126, 158)
        and len(scheme) == 41
        and (scheme.classes[40].k_lo, scheme.classes[40].k_hi) == (19953, 25118)
        and len(build_class_scheme(39810, RATIO)) == 43
    )
    elapsed = time.perf_counter() - start
    report_line(1, "class-scheme fidelity", ok and elapsed < 1.0, f"{elapsed:.3f}s")


@pytest.fixture(scope="module")
def corpus():
    return random_corpus()


def test_criterion_02_degree_oracle_equivalence(corpus):
    start = time.perf_counter()
    mismatches = 0
    for stream, rng in corpus:
        ts = rng.uniform(-1.0, 101.0, size=10_000)
        nodes = rng.integers(0, stream.num_nodes, size=10_000)
        for node in np.unique(nodes):
            sel = ts[nodes == node]
            prof = stream.degree_profile(int(node))
            bp = prof.times
            vals = np.append(prof.values, 0)
            idx = np.searchsorted(bp, sel, side="right") - 1
            got = np.where((idx >= 0) & (idx < len(prof.values)), vals[idx], 0)
            starts, ends = [], []
            for key in pairs_of(stream, int(node)):
                for s, e in stream.links[key]:
                    starts.append(s)
                    ends.append(e)
            starts = np.sort(np.array(starts)) if starts else np.array([])
            ends = np.sort(np.array(ends)) if ends else np.array([])
            want = np.searchsorted(starts, sel, side="right") - np.searchsorted(
                ends, sel, side="right"
            )
            mismatches += int((got != want).sum())
    elapsed = time.perf_counter() - start
    report_line(
        2, "degree-oracle equivalence", mismatches == 0 and elapsed < 30.0,
        f"50 streams, 10k queries each, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_03_measure_conservation(corpus):
    worst = 0.0
    for stream, _ in corpus:
        grid = TimeSliceGrid.covering(stream.t_begin, stream.t_end, TAU)
        if grid.count == 0:
            continue
        scheme = build_class_scheme(max(stream.max_degree(), 1), RATIO)
        matrix = fraction_matrix(stream, grid, scheme)
        worst = max(worst, float(np.abs(matrix.row_sums() - 1.0).max()))
    report_line(3, "measure conservation", worst <= 1e-12, f"max row-sum error {worst:.2e}")


def test_criterion_04_statistics_references():
    rng = np.random.default_rng(7)
    ok = True
    worst_c = 0.0
    from streamdeg.robust_stats import ks_two_sample

    for _ in range(100):
        n = int(rng.integers(1, 100_000))
        m = int(rng.integers(1, 100_000))
        _, crit = ks_two_sample({1.0: 1.0}, {1.0: 1.0}, n, m, alpha=0.1)
        err = abs(crit - 1.073 * math.sqrt((n + m) / (n * m)))
        worst_c = max(worst_c, err)
        ok &= err < 1e-12
    worst_g = 0.0
    for alpha in (0.01, 0.05):
        for n in range(3, 101):
            t = sp_stats.t.isf(alpha / (2 * n), n - 2)
            oracle = (n - 1) / math.sqrt(n) * math.sqrt(t * t / (n - 2 + t * t))
            err = abs(grubbs_critical(n, alpha) - oracle)
            worst_g = max(worst_g, err)
            ok &= err < 1e-3
    report_line(
        4, "statistics references", ok,
        f"c err {worst_c:.1e}, grubbs err {worst_g:.1e}",
    )


def test_criterion_05_planted_spike_detection(criterion_artifacts):
    artifact, _ = read_artifact(criterion_artifacts, "c5.json")
    report_line(
        5, "planted-spike detection", artifact["successes"] >= 19,
        f"{artifact['successes']}/20 seeds",
    )


def test_criterion_06_end_to_end_identification(main_trace, criterion_artifacts):
    start = time.perf_counter()
    stream, meta, truth = main_trace
    background_max = 4
    for entry in truth.entries:
        peak = max_value(stream.degree_profile(meta.node_names.index(entry.node)))
        assert peak > background_max
    artifact, collected = read_artifact(criterion_artifacts, "c6.json")
    overlap = artifact["overlap"]
    matched_nodes = {m["node"] for m in overlap["matched"]}
    coverage_ok = all(
        m["identified_covered"] >= 0.95 and m["truth_covered"] >= 0.95
        for m in overlap["matched"]
    )
    validation = artifact["validation"]
    elapsed = time.perf_counter() - start + collected
    ok = (
        matched_nodes == {"scanner", "sink", "burst"}
        and coverage_ok
        and validation["after"]["outlying_seconds"] == 0
        and validation["before"]["outlying_seconds"] >= 3
        and validation["relative_mean_change"] <= 0.05
        and elapsed < 120.0
    )
    report_line(
        6, "end-to-end synthetic identification", ok,
        f"outlying {validation['before']['outlying_seconds']}->"
        f"{validation['after']['outlying_seconds']}, mean change "
        f"{validation['relative_mean_change']:.2%}, {elapsed:.1f}s",
    )


def test_criterion_07_rollback_behaviour(criterion_artifacts):
    artifact, _ = read_artifact(criterion_artifacts, "c7.json")
    rolled = [rec for rec in artifact["log"] if rec["status"] == "rolled-back"]
    applied = [rec for rec in artifact["log"] if rec["status"] == "applied"]
    ok = (
        len(rolled) == 1
        and applied == []
        and artifact["rolled_back"] == 1
        and artifact["identified"] == 0
        and artifact["stream_restored"]
    )
    report_line(
        7, "rollback behaviour", ok,
        f"1 rolled-back removal, reason: {rolled[0]['reason'] if rolled else 'none'}",
    )


def test_criterion_08_tau_stability(criterion_artifacts):
    artifact, _ = read_artifact(criterion_artifacts, "c8.json")
    jaccards = {float(k): v for k, v in artifact["jaccards"].items()}
    spike = artifact["spike_intervals"]
    reference_spike = spike["2.0"]
    ok = all(jaccards[tau] >= 0.8 for tau in (0.5, 1.0, 4.0)) and all(
        spike[str(tau)] == reference_spike for tau in (0.5, 1.0, 2.0, 4.0)
    )
    report_line(
        8, "tau stability", ok,
        "jaccards " + ", ".join(f"{t}:{jaccards[t]:.2f}" for t in (0.5, 1.0, 4.0)),
    )


def test_criterion_09_normalization(criterion_artifacts):
    artifact, _ = read_artifact(criterion_artifacts, "c9.json")
    raw = artifact["raw_fraction_above_one"]
    norm = artifact["normalized_fraction_above_one"]
    report_line(
        9, "degree normalization", raw > 0.10 and norm < 0.05,
        f"raw {raw:.1%} above 1, normalized {norm:.1%}",
    )


def test_criterion_10_power_law_calibration(criterion_artifacts):
    artifact, elapsed = read_artifact(criterion_artifacts, "c10.json")
    zipf_ok = sum(
        1 for r in artifact["zipf"] if not r["rejected"] and r["p_value"] >= 0.1
    )
    geom_ok = sum(1 for r in artifact["geometric"] if r["rejected"])
    report_line(
        10, "power-law calibration",
        zipf_ok >= 9 and geom_ok >= 9 and elapsed < 120.0,
        f"zipf {zipf_ok}/10 kept, geometric {geom_ok}/10 rejected, {elapsed:.0f}s",
    )


def test_criterion_11_determinism(criterion_artifacts, tmp_path):
    run_a = criterion_artifacts[0]
    run_b = tmp_path / "run_b"
    run_c = tmp_path / "run_c"
    write_criterion_artifacts(run_b, threads=1)
    write_criterion_artifacts(run_c, threads=4)
    names = ["c5.json", "c6.json", "c7.json", "c8.json", "c9.json", "c10.json"]
    identical = all((run_a / n).read_bytes() == (run_b / n).read_bytes() for n in names)
    threaded = all((run_a / n).read_bytes() == (run_c / n).read_bytes() for n in names)
    report_line(
        11, "determinism", identical and threaded,
        f"{len(names)} artifact files byte-identical across runs and threads=4",
    )
