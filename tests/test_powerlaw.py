import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from streamdeg.robust_stats import (
    ALPHA_BOUNDS,
    ALPHA_XATOL,
    InsufficientSupportError,
    _bootstrap_tables,
    _fit_powerlaw,
    _mle_alpha,
    _PowerLawSampler,
    power_law_test,
)


def reference_alpha(n: int, log_sum: float, k_min: int) -> float:
    """One bounded Brent search per candidate, to a tolerance of ALPHA_XATOL."""
    from scipy import optimize

    def neg_ll(a: float) -> float:
        return n * math.log(special.zeta(a, k_min)) + a * log_sum

    res = optimize.minimize_scalar(
        neg_ll, bounds=ALPHA_BOUNDS, method="bounded", options={"xatol": ALPHA_XATOL}
    )
    return float(res.x)


def reference_fit(values: np.ndarray, counts: np.ndarray) -> tuple[float, int, float] | None:
    """The k_min scan one candidate at a time, each with its own search."""
    tail_n = np.cumsum(counts[::-1])[::-1]
    tail_logsum = np.cumsum((counts * np.log(values))[::-1])[::-1]
    best = None
    for pos in np.flatnonzero(tail_n >= max(0.1 * tail_n[0], 2)):
        if len(values) - pos < 2:
            continue
        k_min = int(values[pos])
        alpha = reference_alpha(int(tail_n[pos]), float(tail_logsum[pos]), k_min)
        emp_cdf = np.cumsum(counts[pos:]) / tail_n[pos]
        model_cdf = 1.0 - special.zeta(alpha, values[pos:] + 1) / special.zeta(alpha, k_min)
        ks = float(np.abs(emp_cdf - model_cdf).max())
        if best is None or ks < best[2]:
            best = (alpha, k_min, ks)
    return best


def c10_samples() -> list[np.ndarray]:
    """Criterion 10's 20 samples: 10 zipf(2.5), then 10 geometric(0.05)."""
    zipf = [np.random.default_rng(seed).zipf(2.5, 10_000) for seed in range(10)]
    geom = [np.random.default_rng(1000 + seed).geometric(0.05, 10_000) for seed in range(10)]
    return zipf + geom


def assert_fits_match(tables) -> None:
    got = _fit_powerlaw(tables)
    for table, fit in zip(tables, got):
        want = reference_fit(*table)
        assert (fit is None) == (want is None)
        if want is not None:
            assert fit[1] == want[1]
            assert abs(fit[0] - want[0]) <= ALPHA_XATOL


def reference_bootstrap_tables(samples, alpha: float, k_min: int, count: int, seed: int) -> list:
    """``_bootstrap_tables`` as it was before it drew replicates as counts: each
    of a replicate's n draws in full, sorted by ``np.unique``."""
    n = len(samples)
    body = samples[samples < k_min]
    p_tail = 1.0 - len(body) / n
    sampler = _PowerLawSampler(alpha, k_min)

    def draw(rng, size):
        u = rng.random(size)
        idx = np.zeros(size, dtype=np.intp)
        past = u >= sampler.cdf[0]
        idx[past] = np.searchsorted(sampler.cdf, u[past], side="right")
        out = sampler.ks[np.minimum(idx, len(sampler.ks) - 1)]
        overflow = u > sampler.cdf[-1]
        if overflow.any():
            with np.errstate(over="ignore"):
                tail = np.floor((k_min - 0.5) * (1.0 - u[overflow]) ** (-1.0 / (alpha - 1.0)) + 0.5)
            out[overflow] = np.minimum(tail, sampler.TOP).astype(np.int64)
        return out

    tables = []
    for rep in range(count):
        rng = np.random.default_rng([seed, rep])
        n_tail = int(np.count_nonzero(rng.random(n) < p_tail))
        parts = []
        if n_tail:
            parts.append(draw(rng, n_tail))
        if n - n_tail:
            parts.append(rng.choice(body, size=n - n_tail, replace=True))
        tables.append(np.unique(np.concatenate(parts), return_counts=True))
    return tables


def assert_well_formed(tables, n: int, k_min: int, body=()) -> None:
    """Each table holds n draws: its values strictly ascend as int64, with
    positive counts; those below k_min are values of ``body``."""
    for values, counts in tables:
        assert values.dtype == np.int64
        assert (np.diff(values) > 0).all() and (counts > 0).all()
        assert counts.sum() == n
        assert np.isin(values[values < k_min], body).all()


def categories(values: np.ndarray) -> np.ndarray:
    """Chi-square categories: a value below 1024 is its own, a larger one
    falls in its power of two, and TOP is one apart."""
    binned = 1024 + np.floor(np.log2(values.astype(float))).astype(np.int64)
    return np.where(values == _PowerLawSampler.TOP, -1, np.where(values < 1024, values, binned))


def assert_same_distribution(got, want) -> None:
    """Two equal-sized lists of tables, each table of the same number of
    draws, come from one distribution: every value expected at least 5 times
    on each side (seen 10 times on both) has a mean count per table within 5
    standard errors of the reference's, and a chi-square homogeneity test
    over ``categories`` (those seen fewer than 10 times merged) gives
    p > 1e-6."""
    assert len(got) == len(want)
    tables = got + want
    values, at = np.unique(np.concatenate([v for v, _ in tables]), return_inverse=True)
    owner = np.repeat(np.arange(len(tables)), [len(v) for v, _ in tables])
    counts = np.concatenate([c for _, c in tables])
    pooled = np.zeros((len(values), 2))
    np.add.at(pooled, (at, (owner >= len(got)).astype(int)), counts)

    common = np.flatnonzero(pooled.sum(axis=1) >= 10)
    column = np.full(len(values), -1)
    column[common] = np.arange(len(common))
    hit = column[at] >= 0
    per_table = np.zeros((len(tables), len(common)))
    per_table[owner[hit], column[at[hit]]] = counts[hit]
    sides = per_table[:len(got)], per_table[len(got):]
    se = np.sqrt((sides[0].var(axis=0, ddof=1) + sides[1].var(axis=0, ddof=1)) / len(got))
    assert (np.abs(sides[0].mean(axis=0) - sides[1].mean(axis=0)) <= 5 * se).all()

    cat, inverse = np.unique(categories(values), return_inverse=True)
    table = np.zeros((len(cat), 2))
    np.add.at(table, inverse, pooled)
    rare = table.sum(axis=1) < 10
    table = np.vstack([table[~rare], table[rare].sum(axis=0, keepdims=True)])
    table = table[table.sum(axis=1) > 0]
    if len(table) > 1:
        expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
        chi2 = ((table - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi2, len(table) - 1) > 1e-6


BOOTSTRAP_CASES = [
    (1.01, 1, [1, 2, 3], 0),  # no body, and most tail draws past the table
    (1.2, 1, list(range(1, 41)) * 10, 2),  # a draw past the table below its last entry
    (1.01, 6, [1, 2, 6, 7, 7, 90], 3),  # a body, and draws past the table
    (20.0, 4, [4, 4, 4, 5], 1),  # no body, nearly every draw at k_min
    (20.0, 6, [1, 1, 2], 2),  # every sample in the body: no tail draw
    # a body and about 160 tail draws: that many table entries counted, and
    # draws past them in the table, past the table below TOP, and at TOP
    (1.01, 2, [1] * 40 + list(range(2, 162)), 4),
    (1.05, 1, [1, 2, 3, 5, 8] * 20, 5),  # about one tail draw in nine capped at TOP
]


@pytest.mark.parametrize("alpha, k_min, samples, seed", BOOTSTRAP_CASES)
def test_bootstrap_tables_match_reference_in_distribution(alpha, k_min, samples, seed):
    samples = np.array(samples, dtype=np.int64)
    got = _bootstrap_tables(samples, alpha, k_min, 2000, seed)
    assert_well_formed(got, len(samples), k_min, samples[samples < k_min])
    assert_same_distribution(got, reference_bootstrap_tables(samples, alpha, k_min, 2000, seed + 1))


@settings(max_examples=80, deadline=None)
@given(
    st.floats(1.01, 20.0),
    st.integers(1, 6),
    st.lists(st.integers(1, 40), min_size=1, max_size=300),
    st.integers(0, 2**32 - 1),
)
def test_bootstrap_tables_are_well_formed(alpha, k_min, samples, seed):
    samples = np.array(samples, dtype=np.int64)
    got = _bootstrap_tables(samples, alpha, k_min, 3, seed)
    assert len(got) == 3
    assert_well_formed(got, len(samples), k_min, samples[samples < k_min])


def test_zipf_not_rejected():
    rng = np.random.default_rng(0)
    samples = rng.zipf(2.5, 10_000)
    verdict = power_law_test(samples, bootstrap_count=250, significance=0.1, seed=0)
    assert not verdict.rejected
    assert verdict.p_value >= 0.1
    assert verdict.alpha_hat == pytest.approx(2.5, abs=0.15)
    assert verdict.alpha_hat > 1.0
    assert not verdict.alpha_at_bound


def test_alpha_at_search_bound_flagged():
    # nearly all mass at k_min, as in the regular-background traces: the
    # optimizer stops within its tolerance of the upper bound, not on it
    samples = np.array([1] * 100 + [2] * 300 + [3] * 600 + [4] * 5000 + [5] * 2)
    verdict = power_law_test(samples, bootstrap_count=100, seed=0)
    assert verdict.k_min == 4
    assert 0 < ALPHA_BOUNDS[1] - verdict.alpha_hat <= ALPHA_XATOL
    assert verdict.alpha_at_bound


def test_geometric_tail_rejected():
    rng = np.random.default_rng(0)
    samples = rng.geometric(0.05, 10_000)
    verdict = power_law_test(samples, bootstrap_count=250, significance=0.1, seed=0)
    assert verdict.rejected
    assert verdict.p_value < 0.1


def test_two_point_support_is_an_error():
    samples = np.array([1] * 50 + [2] * 50)
    with pytest.raises(InsufficientSupportError):
        power_law_test(samples, bootstrap_count=100, seed=0)


def test_support_must_start_at_one():
    with pytest.raises(ValueError):
        power_law_test(np.array([0, 1, 2, 3] * 10), bootstrap_count=100, seed=0)


def test_bootstrap_count_floor():
    with pytest.raises(ValueError):
        power_law_test(np.array([1, 2, 3] * 10), bootstrap_count=50, seed=0)


def test_deterministic_given_seed():
    rng = np.random.default_rng(5)
    samples = rng.zipf(2.0, 2000)
    a = power_law_test(samples, bootstrap_count=100, seed=42)
    b = power_law_test(samples, bootstrap_count=100, seed=42)
    assert a == b


def test_self_calibration():
    # data drawn from the fitted model itself should rarely be rejected
    rejections = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        samples = rng.zipf(2.2, 2000)
        verdict = power_law_test(samples, bootstrap_count=100, significance=0.1, seed=seed)
        rejections += verdict.rejected
    assert rejections <= 2


@pytest.mark.parametrize("alpha,k_min", [(20.0, 4), (2.5, 1), (1.5, 10)])
def test_sampler_table_cut_draws_alike(alpha, k_min):
    sampler = _PowerLawSampler(alpha, k_min)
    cap = _PowerLawSampler.CAP
    ks = np.arange(k_min, k_min + cap)
    cdf = 1.0 - special.zeta(alpha, ks + 1) / special.zeta(alpha, k_min)
    assert len(sampler.cdf) <= cap
    if alpha == 20.0:
        assert len(sampler.cdf) < 100  # the CDF reaches 1.0 within a few dozen entries

    def full_table_draw(rng, size):
        u = rng.random(size)
        out = ks[np.minimum(np.searchsorted(cdf, u, side="right"), cap - 1)]
        overflow = u > cdf[-1]
        if overflow.any():
            tail = np.floor((k_min - 0.5) * (1.0 - u[overflow]) ** (-1.0 / (alpha - 1.0)) + 0.5)
            out = out.copy()
            out[overflow] = tail.astype(np.int64)
        return out

    got = [sampler.draw_table(np.random.default_rng(seed), 5000) for seed in range(40)]
    assert_well_formed(got, 5000, k_min)
    want = [np.unique(full_table_draw(np.random.default_rng(100 + seed), 5000), return_counts=True)
            for seed in range(40)]
    assert_same_distribution(got, want)


@pytest.mark.parametrize("alpha", [1.01, 1.5, 2.5, 20.0])
def test_sampler_table_is_full_table_prefix(alpha):
    # the table grows in chunks, yet equals the full CAP-entry table up to
    # its first entry at 1.0 (or the whole table where none reaches 1.0)
    k_min = 4
    sampler = _PowerLawSampler(alpha, k_min)
    ks = np.arange(k_min, k_min + _PowerLawSampler.CAP)
    cdf = 1.0 - special.zeta(alpha, ks + 1) / special.zeta(alpha, k_min)
    full = np.flatnonzero(cdf == 1.0)
    stop = int(full[0]) + 1 if full.size else len(cdf)
    np.testing.assert_array_equal(sampler.cdf, cdf[:stop])
    np.testing.assert_array_equal(sampler.ks, ks[:stop])


def test_batched_fit_matches_reference_on_c10_samples():
    assert_fits_match([np.unique(x, return_counts=True) for x in c10_samples()])


@pytest.mark.parametrize("which", [0, 10], ids=["zipf", "geometric"])
def test_batched_fit_matches_reference_on_replicates(which):
    samples = c10_samples()[which]
    alpha, k_min, _ = _fit_powerlaw([np.unique(samples, return_counts=True)])[0]
    assert_fits_match(_bootstrap_tables(samples, alpha, k_min, 250, seed=0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12) | st.integers(1, 3000), min_size=10, max_size=300))
def test_batched_alpha_matches_reference_at_its_k_min(samples):
    values, counts = np.unique(np.array(samples, dtype=np.int64), return_counts=True)
    want = reference_fit(values, counts)
    assume(want is not None)
    alpha, k_min, _ = want
    tail = values >= k_min
    got = _mle_alpha(
        np.array([counts[tail].sum()]),
        np.array([(counts[tail] * np.log(values[tail])).sum()]),
        np.array([k_min]),
    )
    assert abs(got[0] - alpha) <= ALPHA_XATOL


@pytest.mark.parametrize("alpha", [1.01, 1.5])
def test_sampler_tail_fallback_stays_finite(alpha):
    # (1 - u)**(-1/(alpha - 1)) passes 2**63 at small alpha; such draws are
    # capped at TOP, as often as the uncapped formula passes 2**63
    sampler = _PowerLawSampler(alpha, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sampler.draw_table(np.random.default_rng(0), 200_000)
    assert_well_formed([got], 200_000, 1)  # values ascend as int64, from 1
    u = np.random.default_rng(1).random(200_000)
    tail = u[u > sampler.cdf[-1]]
    with np.errstate(over="ignore"):
        want = np.floor(0.5 * (1.0 - tail) ** (-1.0 / (alpha - 1.0)) + 0.5)
    capped = int((want >= 2.0**63).sum())
    share = capped / 200_000
    assert abs(got[1][got[0] == _PowerLawSampler.TOP].sum() - capped) <= 5 * math.sqrt(
        2 * 200_000 * share * (1 - share))
    if alpha == 1.01:
        assert capped > 100_000
