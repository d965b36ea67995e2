import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special
from scipy import stats as sp_stats

from streamdeg import robust_stats
from streamdeg.robust_stats import (
    NormalFit,
    _ks_against_normal,
    _zeta,
    fit_homogeneous,
    grubbs_critical,
    grubbs_prune,
    ks_two_sample,
    three_sigma_outliers,
    two_sample_coefficient,
)


def grubbs_critical_oracle(n: int, alpha: float) -> float:
    # independent evaluation of the two-sided critical value via the
    # Student-t inverse survival function
    t = sp_stats.t.isf(alpha / (2.0 * n), n - 2)
    return (n - 1) / math.sqrt(n) * math.sqrt(t**2 / (n - 2 + t**2))


class TestKsTwoSample:
    def test_identical_distributions(self):
        d = {1.0: 2.0, 2.0: 1.0, 5.0: 1.0}
        dist, crit = ks_two_sample(d, d, 10, 10)
        assert dist == 0.0

    def test_point_masses_disjoint(self):
        dist, _ = ks_two_sample({1.0: 1.0}, {2.0: 1.0}, 5, 5)
        assert dist == 1.0

    def test_critical_value_formula(self):
        # c = 1.073 * sqrt((n+m)/(n*m)) at significance 0.1
        _, crit = ks_two_sample({1.0: 1.0}, {1.0: 1.0}, 100, 100, alpha=0.1)
        assert crit == pytest.approx(0.1517451152426331, abs=1e-12)

    def test_critical_value_many_sizes(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 10_000))
            m = int(rng.integers(1, 10_000))
            _, crit = ks_two_sample({1.0: 1.0}, {1.0: 1.0}, n, m, alpha=0.1)
            assert abs(crit - 1.073 * math.sqrt((n + m) / (n * m))) < 1e-12

    def test_known_distance(self):
        # CDF gap at value 1: 0.75 vs 0.25
        a = {1.0: 3.0, 2.0: 1.0}
        b = {1.0: 1.0, 2.0: 3.0}
        dist, _ = ks_two_sample(a, b, 4, 4)
        assert dist == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample({}, {1.0: 1.0}, 1, 1)

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_bad_weights_rejected(self, bad):
        with pytest.raises(ValueError):
            ks_two_sample({1.0: 2.0, 2.0: bad}, {1.0: 1.0}, 1, 1)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ks_two_sample({1.0: 1.0}, {1.0: 1.0}, 0, 5)

    @given(
        st.lists(st.tuples(st.integers(1, 30), st.integers(1, 9)), min_size=1, max_size=8),
        st.lists(st.tuples(st.integers(1, 30), st.integers(1, 9)), min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    # unnormalized CDFs give D = 2.0 here
    @example(raw_a=[(1, 1)], raw_b=[(1, 3)])
    # weights normalized before the cumsum give D = 1.0000000000000002 here
    @example(raw_a=[(6, 1)], raw_b=[(1, 2), (2, 9), (3, 6), (4, 1), (5, 2)])
    def test_symmetry_and_bounds(self, raw_a, raw_b):
        a = {float(v): float(w) for v, w in raw_a}
        b = {float(v): float(w) for v, w in raw_b}
        d_ab, _ = ks_two_sample(a, b, 10, 20)
        d_ba, _ = ks_two_sample(b, a, 10, 20)
        assert d_ab == d_ba
        assert 0.0 <= d_ab <= 1.0

    def test_accepts_value_weight_arrays(self):
        d1 = (np.array([2.0, 1.0]), np.array([1.0, 3.0]))
        d2 = {1.0: 3.0, 2.0: 1.0}
        dist, _ = ks_two_sample(d1, d2, 4, 4)
        assert dist == 0.0


class TestGrubbs:
    def test_critical_matches_published_table(self):
        # two-sided, alpha = 0.05
        assert grubbs_critical(8, 0.05) == pytest.approx(2.126, abs=1e-3)
        assert grubbs_critical(20, 0.05) == pytest.approx(2.708, abs=1e-3)

    def test_critical_matches_oracle_formula(self):
        for alpha in (0.01, 0.05):
            for n in range(3, 101):
                assert grubbs_critical(n, alpha) == pytest.approx(
                    grubbs_critical_oracle(n, alpha), abs=1e-3
                )

    def test_all_equal_removes_nothing(self):
        res = grubbs_prune([2.0] * 10, 0.05)
        assert res.removed == []
        assert len(res.kept) == 10

    def test_single_outlier_removed(self):
        values = [1.0] * 19 + [10.0]
        res = grubbs_prune(values, 0.05)
        # frozen oracle: G = 4.2485 vs critical 2.7082 at n=20
        assert len(res.removed) == 1
        value, g = res.removed[0]
        assert value == 10.0
        assert g == pytest.approx(4.248529157249601, rel=1e-12)

    def test_small_inputs_returned_unpruned(self):
        res = grubbs_prune([1.0, 100.0], 0.05)
        assert res.removed == []

    def test_tie_removes_larger_value(self):
        values = [0.0] * 18 + [-9.0, 9.0]
        res = grubbs_prune(values, 0.05)
        assert res.removed[0][0] == 9.0

    def test_normal_sample_rarely_pruned(self):
        rng = np.random.default_rng(77)
        values = rng.standard_normal(1000)
        res = grubbs_prune(values, 0.05)
        assert len(res.removed) <= 50  # expected removals well under 5%

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        values = np.concatenate([rng.standard_normal(40), rng.uniform(5, 30, 3)])
        first = grubbs_prune(values, 0.05)
        second = grubbs_prune(first.kept, 0.05)
        assert second.removed == []
        np.testing.assert_array_equal(first.kept, second.kept)


def scipy_grubbs_critical(n: int, alpha: float) -> float:
    """The Grubbs critical value on scipy's Student-t quantile."""
    if n < 3:
        return math.inf
    t = sp_stats.t.ppf(1.0 - alpha / (2.0 * n), n - 2)
    return (n - 1) / math.sqrt(n) * math.sqrt(t * t / (n - 2 + t * t))


class TestScipySpecialEquivalence:
    """grubbs_critical, _ks_against_normal and the power-law fit compute
    their special functions in-repo (so no command imports scipy); scipy
    stays the reference.  The normal CDF and the Hurwitz zeta function must
    give the same bits, the Student-t quantile a critical value within 1e-12
    relative and the same pruning and fits."""

    def test_grubbs_critical_matches_t_ppf(self):
        for alpha in (0.01, 0.05, 0.1):
            for n in [*range(3, 2001), 10**4, 10**5]:
                ref = scipy_grubbs_critical(n, alpha)
                assert grubbs_critical(n, alpha) == pytest.approx(ref, rel=1e-12, abs=0), (n, alpha)

    @given(st.integers(0, 2**32 - 1), st.integers(8, 400), st.integers(0, 6),
           st.floats(2.0, 8.0), st.sampled_from([0.01, 0.05, 0.1]), st.sampled_from([None, -1e-9, 1e-9]))
    @settings(max_examples=80, deadline=None)
    def test_pruning_and_fit_match_scipy_quantile(self, seed, size, planted, reach, alpha, edge):
        rng = np.random.default_rng(seed)
        mu, sigma = rng.uniform(-5, 5), rng.uniform(0.01, 10)
        values = rng.normal(mu, sigma, size)
        # outliers from well inside to far beyond the critical value, on both sides
        values[:planted] = mu + rng.choice([-1, 1], planted) * rng.uniform(reach / 2, reach, planted) * sigma
        if edge is not None:
            # one more value whose G statistic is within 1e-9 of the critical value
            n, m = size + 1, values.mean()
            g = scipy_grubbs_critical(n, alpha) * (1.0 + edge)
            d = g * n * math.sqrt(((values - m) ** 2).sum() / ((n - 1) ** 3 - g * g * n * (n - 1)))
            values = np.append(values, m + d)
        ours, ours_fit = grubbs_prune(values, alpha), fit_homogeneous(values, alpha)
        with mock.patch("streamdeg.robust_stats.grubbs_critical", scipy_grubbs_critical):
            ref, ref_fit = grubbs_prune(values, alpha), fit_homogeneous(values, alpha)
        np.testing.assert_array_equal(ours.kept, ref.kept)
        assert ours.removed == ref.removed
        assert ours_fit == ref_fit

    @pytest.mark.parametrize("seed", range(5))
    def test_ks_against_normal_matches_norm_cdf(self, seed):
        rng = np.random.default_rng(seed)
        for size in (8, 100, 5000):
            values = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 10), size)
            mu, sigma = float(values.mean()), float(values.std())
            x = np.sort(values)
            cdf = sp_stats.norm.cdf((x - mu) / sigma)
            hi = np.arange(1, size + 1) / size
            lo = np.arange(0, size) / size
            ref = float(max((hi - cdf).max(), (cdf - lo).max()))
            assert _ks_against_normal(values, mu, sigma) == ref


class TestFitHomogeneous:
    def test_planted_spikes(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0.002, 1e-4, 1800), np.full(5, 0.01)])
        fit = fit_homogeneous(values)
        assert fit.accepted
        high, _ = three_sigma_outliers(values, fit)
        plants = set(range(1800, 1805))
        assert plants <= set(high)
        # the plants dominate every natural excursion
        assert set(np.argsort(values)[-5:]) == plants

    def test_uniform_rejected(self):
        rng = np.random.default_rng(1)
        fit = fit_homogeneous(rng.uniform(0, 1, 1800))
        assert not fit.accepted

    def test_all_zeros_accepted_degenerate(self):
        fit = fit_homogeneous([0.0] * 100)
        assert fit.accepted
        assert fit.mu == 0.0
        assert fit.sigma == 0.0

    def test_insufficient_data(self):
        fit = fit_homogeneous([1.0] * 7)
        assert not fit.accepted
        assert fit.reason == "insufficient data"

    @pytest.mark.parametrize("a,b", [(2.0, 0.0), (0.5, -3.0), (10.0, 7.5)])
    def test_shift_scale_equivariance(self, a, b):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(5, 0.5, 400), [12.0, 13.5, -2.0]])
        base = fit_homogeneous(values)
        moved = fit_homogeneous(a * values + b)
        assert moved.mu == pytest.approx(a * base.mu + b, rel=1e-9)
        assert moved.sigma == pytest.approx(abs(a) * base.sigma, rel=1e-9)
        assert moved.accepted == base.accepted
        assert moved.n_used == base.n_used
        h0, l0 = three_sigma_outliers(values, base)
        h1, l1 = three_sigma_outliers(a * values + b, moved)
        assert (h1, l1) == (h0, l0)

    def test_negative_scale_swaps_sides(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.normal(5, 0.5, 400), [12.0, -2.0]])
        base = fit_homogeneous(values)
        flipped = fit_homogeneous(-values)
        assert flipped.sigma == pytest.approx(base.sigma, rel=1e-9)
        h0, l0 = three_sigma_outliers(values, base)
        h1, l1 = three_sigma_outliers(-values, flipped)
        assert (set(h1), set(l1)) == (set(l0), set(h0))


class TestThreeSigma:
    def test_threshold_arithmetic(self):
        fit = NormalFit(mu=0.0, sigma=1.0, n_used=4, ks_stat=0.0, accepted=True)
        values = [0.0, 2.9, 3.1, -3.1]
        high, low = three_sigma_outliers(values, fit)
        assert high == [2]
        assert low == [3]

    def test_degenerate_sigma(self):
        fit = NormalFit(mu=1.0, sigma=0.0, n_used=3, ks_stat=0.0, accepted=True)
        high, low = three_sigma_outliers([1.0, 1.5, 0.5, 1.0], fit)
        assert high == [1]
        assert low == [2]

    def test_sigma_mult(self):
        fit = NormalFit(mu=0.0, sigma=1.0, n_used=4, ks_stat=0.0, accepted=True)
        high, _ = three_sigma_outliers([2.5], fit, sigma_mult=2.0)
        assert high == [0]


def test_two_sample_coefficient_values():
    assert two_sample_coefficient(0.1) == 1.073
    # other significances fall back to the one-sided asymptotic form
    assert two_sample_coefficient(0.05) == pytest.approx(math.sqrt(-math.log(0.05) / 2))


def zeta_branch(x: float, q: float) -> str:
    """Where Cephes ``zeta(x, q)`` returns, for x > 1 and q >= 1: the
    asymptotic expansion, term i of the direct sum ("direct i"), or step i of
    the Euler-Maclaurin tail ("tail i").  A scalar transliteration of Cephes."""
    if q > 1e8:
        return "asymptotic"
    a, s = q, math.pow(q, -x)
    for i in range(1, 10):
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < robust_stats._MACHEP:
            return f"direct {i}"
    w, k, fact = a, 0.0, 1.0
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    for i, coef in enumerate(robust_stats._ZETA_A):
        fact *= x + k
        b /= w
        t = fact * b / coef
        s += t
        if abs(t / s) < robust_stats._MACHEP:
            return f"tail {i}"
        k += 1.0
        fact *= x + k
        b /= w
        k += 1.0
    return "tail 12"


def assert_same_bits(got, want) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


ZETA_XS = (1.0000001, 1.0001, 1.01, 1.05, 1.3, 1.8, 2.0, 2.2, 3.7, 7.0, 12.5, 19.999999999999996, 20.0)
ZETA_QS = (1.0, 1.5, 2.0, 3.0, 8.5, 9.0, 10.0, 11.0, 57.0, 1e3, 3.3e4, 1e6, 1e7, 1e8 - 1, 1e8,
           1e8 + 1, 1e9, 2.0**53, 2.0**63 - 1024)


class TestZeta:
    """``_zeta`` ports Cephes ``zeta``, which ``scipy.special.zeta`` runs."""

    def test_grid_matches_scipy_bit_for_bit(self):
        x, q = np.meshgrid(ZETA_XS, ZETA_QS)
        assert_same_bits(_zeta(x, q), special.zeta(x, q))
        # the grid reaches both branches and the early exits of both loops
        # (none of its points runs the tail past its ninth step)
        labels = [zeta_branch(a, b) for a, b in zip(x.ravel().tolist(), q.ravel().tolist())]
        branches = {"direct" if label.startswith("direct") else label for label in labels}
        assert branches == {"asymptotic", "direct", *(f"tail {i}" for i in range(9))}

    def test_direct_sum_exit_at_every_term_matches_scipy(self):
        # the port finds a sum that Cephes stops in the direct part by its last
        # term, where the falling ratio term / sum is below MACHEP too, and
        # redoes it; each of the nine terms is the exit of some point here,
        # in one batch with sums that go on to the tail
        x = np.concatenate([np.linspace(15.0, 70.0, 3000), np.full(3000, 1.7)])
        q = np.tile([1.0, 1.5, 2.0], 2000)
        exits = {zeta_branch(a, b) for a, b in zip(x.tolist(), q.tolist())}
        assert {f"direct {i}" for i in range(1, 10)} <= exits
        assert_same_bits(_zeta(x, q), special.zeta(x, q))

    @given(st.lists(st.tuples(st.floats(1.0, 30.0, exclude_min=True),
                              st.one_of(st.floats(1.0, 1e10),
                                        st.integers(1, 2**63 - 1024).map(float))),
                    min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    @example([(20.0, 1.0), (2.0, 1e7), (1.01, 9.0), (3.0, 1e8 + 1)])
    def test_matches_scipy_bit_for_bit(self, points):
        x, q = np.array(points).T
        assert_same_bits(_zeta(x, q), special.zeta(x, q))  # a batch with mixed branches
        for a, b in points:
            assert_same_bits(_zeta(a, b), special.zeta(a, b))

    def test_random_points_match_scipy_bit_for_bit(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(1.01, 20.0, 40_000), rng.uniform(1.0000001, 1.05, 10_000)])
        q = np.floor(2.0 ** rng.uniform(0.0, 63.0, len(x)))
        assert_same_bits(_zeta(x, q), special.zeta(x, q))

    def test_shapes(self):
        assert isinstance(_zeta(2.0, 1), np.float64)
        assert _zeta(2.0, 1) == special.zeta(2.0, 1)
        got = _zeta(np.array([[2.0], [3.0]]), np.arange(1, 4))
        assert_same_bits(got, special.zeta(np.array([[2.0], [3.0]]), np.arange(1, 4)))
        assert _zeta(np.zeros((0,)) + 2.0, 1.0).shape == (0,)

    @pytest.mark.parametrize("x,q", [
        (1.0, 1.0), (0.5, 2.0), (-3.0, 2.0), (math.nan, 2.0), (2.0, 0.999), (2.0, 0.0),
        (2.0, -1.5), (2.0, math.nan), ([2.0, 1.0], 3.0), (2.0, [3.0, 0.5]),
    ])
    def test_domain(self, x, q):
        with pytest.raises(ValueError, match="x > 1 and q >= 1"):
            _zeta(x, q)
