import numpy as np
import pytest

from streamdeg.robust_stats import ALPHA_BOUNDS, ALPHA_XATOL, InsufficientSupportError, power_law_test


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
def test_sampler_table_cut_draws_the_same(alpha, k_min):
    from scipy import special

    from streamdeg.robust_stats import _PowerLawSampler

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

    for seed in range(8):
        got = sampler.draw(np.random.default_rng(seed), 5000)
        want = full_table_draw(np.random.default_rng(seed), 5000)
        np.testing.assert_array_equal(got, want)
