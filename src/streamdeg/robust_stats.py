"""Statistical primitives for the detection pipeline.

Two-sample and one-sample Kolmogorov-Smirnov tests, iterative Grubbs outlier
pruning, the homogeneous-with-outliers normal fit, three-sigma flagging and a
discrete power-law fit with bootstrap goodness-of-fit.

All procedures are pure functions; randomized ones take an explicit seed and
derive one child generator per bootstrap replicate, so results do not depend
on evaluation order.

The fits need three special functions, all computed here so that no command
imports scipy:

- ``_ndtr``, the standard normal CDF, is a port of Cephes ``ndtr``, ``erf``
  and ``erfc`` (S. L. Moshier, Cephes Math Library): the same rational
  approximations, Horner steps and libm ``exp``, so it returns the bits of
  ``scipy.special.ndtr``.
- ``_t_isf``, the Student-t upper quantile for integer degrees of freedom,
  inverts the tail ``I_x(df/2, 1/2) / 2`` with Newton steps on its logarithm,
  safeguarded by bisection; the incomplete beta function comes from its
  continued fraction, evaluated by the modified Lentz method.  Against
  ``scipy.special.stdtrit`` the relative error stays below 1e-13 for the
  Grubbs tails ``alpha / (2 n)``, n up to 1e5, alpha 0.01 to 0.1.
- ``_zeta``, the Hurwitz zeta function of the power-law fit, ports Cephes
  ``zeta`` step for step, so it returns the bits of ``scipy.special.zeta``.
  Its powers come from ``np.float_power``, which calls libm ``pow``; ``np.power``
  may run SIMD code (SVML on AVX-512) that differs from libm in the last bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Two-sample critical coefficient at the default significance, kept at the
# literal rounded value the rest of the pipeline is calibrated against.
TWO_SAMPLE_COEFF = {0.1: 1.073}

# Fewest bootstrap replicates power_law_test accepts.
MIN_BOOTSTRAP = 100


class InsufficientSupportError(ValueError):
    pass


def two_sample_coefficient(alpha: float) -> float:
    coeff = TWO_SAMPLE_COEFF.get(alpha)
    if coeff is None:
        coeff = math.sqrt(-math.log(alpha) / 2.0)
    return coeff


def _as_distribution(sample) -> tuple[np.ndarray, np.ndarray]:
    """Accept {value: weight} or (values, weights); return sorted arrays."""
    if isinstance(sample, dict):
        values = np.array(sorted(sample), dtype=float)
        weights = np.array([sample[v] for v in values], dtype=float)
    else:
        values = np.asarray(sample[0], dtype=float)
        weights = np.asarray(sample[1], dtype=float)
        order = np.argsort(values)
        values = values[order]
        weights = weights[order]
    if len(values) == 0:
        raise ValueError("empty distribution")
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise ValueError("weights must be finite and non-negative")
    if weights.sum() <= 0:
        raise ValueError("distribution has no mass")
    return values, weights


def _weighted_cdf(weights: np.ndarray) -> np.ndarray:
    # dividing the cumulative sum by its own last entry pins the CDF end at
    # exactly 1.0; normalizing the weights first can overshoot by an ulp
    cdf = np.concatenate([[0.0], np.cumsum(weights)])
    return cdf / cdf[-1]


def ks_two_sample(
    sample_a,
    sample_b,
    size_a: float,
    size_b: float,
    alpha: float = 0.1,
) -> tuple[float, float]:
    """KS distance between two weighted distributions and its critical value.

    Weights may have any positive scale: each side is normalized to its own
    total, so D, the sup over the merged support of the CDF gap, lies in
    [0, 1].  ``size_a`` and ``size_b`` enter only the critical value
    ``coeff(alpha) * sqrt((n + m) / (n * m))``.
    """
    if size_a < 1 or size_b < 1:
        raise ValueError("sample sizes must be at least 1")
    va, wa = _as_distribution(sample_a)
    vb, wb = _as_distribution(sample_b)
    support = np.union1d(va, vb)
    cdf_a = _weighted_cdf(wa)
    cdf_b = _weighted_cdf(wb)
    fa = cdf_a[np.searchsorted(va, support, side="right")]
    fb = cdf_b[np.searchsorted(vb, support, side="right")]
    d = float(np.abs(fa - fb).max())
    n, m = float(size_a), float(size_b)
    c = two_sample_coefficient(alpha) * math.sqrt((n + m) / (n * m))
    return d, c


# ---------------------------------------------------------------------------
# Grubbs pruning
# ---------------------------------------------------------------------------


def _t_isf(q: float, df: int) -> float:
    """The t with P(T > t) = q, 0 <= q < 1/2, for Student's t with df >= 1."""
    if q == 0.0:
        return math.inf
    a = 0.5 * df
    if a < 20.0:
        log_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    else:  # log(Gamma(a + 1/2) / Gamma(a)) by its series in 1/a, which loses no digits
        u = 1.0 / (a * a)
        series = (1 / 192 - (1 / 640 - (17 / 14336 - 31 / 18432 * u) * u) * u) * u
        log_ratio = 0.5 * math.log(a) - (1 / 8 - series) / a
    log_norm = log_ratio - 0.5 * math.log(df * math.pi)  # log density at 0
    log_q = math.log(q)
    # sqrt(-2 log q) is near the normal quantile; about 8 Newton steps from it
    t, lo, hi = math.sqrt(-2.0 * log_q), 0.0, math.inf  # P(T > lo) > q >= P(T > hi)
    for _ in range(200):
        # P(T > t) = I_x(a, 1/2) / 2 at x = df / (df + t^2); Lentz's method on the
        # continued fraction, which converges fast for x < (a + 1) / (a + 5/2), i.e. t > sqrt(3)
        x = df / (df + t * t)
        c, d = 1.0, 1.0 / (1.0 - (a + 0.5) * x / (a + 1.0))
        h = d
        for m in range(1, 10_000):
            for num in (m * (0.5 - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                        -(a + m) * (a + 0.5 + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
                d = 1.0 / (1.0 + num * d)
                c = 1.0 + num / c
                h *= d * c
            if abs(d * c - 1.0) < 1e-16:
                break
        log_p = (log_norm - a * math.log1p(t * t / df)
                 + 0.5 * math.log(t * t / (df * (df + t * t))) + math.log(h))
        lo, hi = (t, hi) if log_p > log_q else (lo, t)
        # Newton step on log P(T > t) against log t; bisection where it leaves the bracket
        slope = t * math.exp(log_norm - (a + 0.5) * math.log1p(t * t / df) - log_p)
        nxt = t * math.exp((log_p - log_q) / slope)
        if not lo < nxt < hi:
            nxt = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        if abs(nxt - t) <= 1e-15 * t:
            return nxt
        t = nxt
    return t


@dataclass
class GrubbsResult:
    kept: np.ndarray
    removed: list[tuple[float, float]]  # (value, G statistic), in removal order


@functools.lru_cache(maxsize=None)
def grubbs_critical(n: int, alpha: float) -> float:
    """Two-sided Grubbs critical value from the Student-t quantile."""
    if n < 3:
        return math.inf
    # the tail 1 - p that a quantile routine sees at p = 1 - alpha / (2n)
    t = _t_isf(1.0 - (1.0 - alpha / (2.0 * n)), n - 2)
    return (n - 1) / math.sqrt(n) * math.sqrt(t * t / (n - 2 + t * t))


def grubbs_prune(values: Sequence[float], alpha: float = 0.05) -> GrubbsResult:
    """Iteratively strip the most extreme value while its G statistic exceeds
    the critical value; stops below 3 samples or when the spread is zero.

    Ties between equally extreme values are broken toward the larger value,
    which keeps the procedure deterministic.
    """
    kept = list(np.asarray(values, dtype=float))
    removed: list[tuple[float, float]] = []
    while len(kept) >= 3:
        arr = np.array(kept)
        mean = arr.mean()
        sd = arr.std(ddof=1)
        if sd == 0:
            break
        dev = np.abs(arr - mean)
        worst = dev.max()
        g = worst / sd
        if g <= grubbs_critical(len(kept), alpha):
            break
        candidates = np.flatnonzero(dev == worst)
        idx = candidates[np.argmax(arr[candidates])]
        removed.append((float(arr[idx]), float(g)))
        kept.pop(int(idx))
    return GrubbsResult(np.array(kept), removed)


# ---------------------------------------------------------------------------
# Homogeneous-with-outliers fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalFit:
    mu: float
    sigma: float
    n_used: int
    ks_stat: float
    accepted: bool
    reason: str = ""


def one_sample_ks_coefficient(alpha: float) -> float:
    """Asymptotic two-sided Kolmogorov coefficient: 1.224 at 0.1, 1.358 at 0.05."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0)


# Cephes ndtr.c coefficients.  The denominators P/Q, R/S and T/U carry their
# implicit leading 1.0, so one Horner loop serves Cephes' polevl and p1evl.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF: Cephes ``ndtr`` on ``erf``/``erfc``, every branch
    evaluated on the whole array and the right one picked per element."""
    x = a * math.sqrt(0.5)
    z = np.abs(x)
    z2 = z * z
    erf = z * _polevl(z2, _ERF_T) / _polevl(z2, _ERF_U)  # erf(z), for z < 1
    far = z >= 8.0
    p = np.where(far, _polevl(z, _ERFC_R), _polevl(z, _ERFC_P))
    q = np.where(far, _polevl(z, _ERFC_S), _polevl(z, _ERFC_Q))
    # libm exp, as Cephes calls it; numpy's vectorized exp can differ in the last bit
    e = np.fromiter(map(math.exp, (-z2).tolist()), float, len(z2))
    erfc = np.where(z < 1.0, 1.0 - erf, np.where(z2 > _MAXLOG, 0.0, e * p / q))
    tail = 0.5 * erfc
    return np.where(z < math.sqrt(0.5), 0.5 + 0.5 * np.copysign(erf, x), np.where(x > 0, 1.0 - tail, tail))


def _ks_against_normal(values: np.ndarray, mu: float, sigma: float) -> float:
    x = np.sort(values)
    n = len(x)
    cdf = _ndtr((x - mu) / sigma)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max((hi - cdf).max(), (cdf - lo).max()))


def fit_homogeneous(
    values: Sequence[float],
    grubbs_alpha: float = 0.05,
    ks_alpha: float = 0.1,
) -> NormalFit:
    """Grubbs-pruned normal MLE fit with a KS goodness check.

    mu and sigma are the maximum-likelihood estimates on the kept values
    (sigma uses 1/n); the fit is accepted when the
    one-sample KS statistic stays below the asymptotic critical value at
    ``ks_alpha``.  Fewer than 8 values cannot establish a baseline and are
    rejected outright; an all-equal sample is accepted with sigma = 0.
    """
    arr = np.asarray(values, dtype=float)
    if len(arr) < 8:
        mu = float(arr.mean()) if len(arr) else 0.0
        sigma = float(arr.std()) if len(arr) else 0.0
        return NormalFit(mu, sigma, len(arr), 1.0, False, "insufficient data")
    pruned = grubbs_prune(arr, grubbs_alpha)
    kept = pruned.kept
    if np.ptp(kept) == 0:
        # exactly constant sample: np.std would return mean-subtraction noise
        # instead of 0, so short-circuit the degenerate-but-accepted case
        return NormalFit(float(kept[0]), 0.0, len(kept), 0.0, True)
    mu = float(kept.mean())
    sigma = float(kept.std())
    ks = _ks_against_normal(kept, mu, sigma)
    critical = one_sample_ks_coefficient(ks_alpha) / math.sqrt(len(kept))
    accepted = ks < critical
    return NormalFit(mu, sigma, len(kept), ks, accepted, "" if accepted else "ks rejected")


def three_sigma_outliers(
    values: Sequence[float],
    fit: NormalFit,
    sigma_mult: float = 3.0,
) -> tuple[list[int], list[int]]:
    """Indices above mu + sigma_mult*sigma and below mu - sigma_mult*sigma.

    With sigma = 0 every value different from mu is an outlier on its side.
    """
    arr = np.asarray(values, dtype=float)
    hi_edge = fit.mu + sigma_mult * fit.sigma
    lo_edge = fit.mu - sigma_mult * fit.sigma
    high = [int(i) for i in np.flatnonzero(arr > hi_edge)]
    low = [int(i) for i in np.flatnonzero(arr < lo_edge)]
    return high, low


# ---------------------------------------------------------------------------
# Discrete power-law fit (MLE + semi-parametric bootstrap)
# ---------------------------------------------------------------------------


# Search interval of the zeta MLE.  An estimate within ALPHA_XATOL of either
# bound is the bound, not a fit.  The golden-section search makes a fixed
# GOLDEN_STEPS steps, each shrinking the bracket by 0.618: 40 take the
# 18.99-wide interval below 1e-7, far inside the tolerance, and with no
# data-dependent stop an estimate's bits do not depend on its batch.
ALPHA_BOUNDS = (1.01, 20.0)
ALPHA_XATOL = 1e-5
GOLDEN_STEPS = 40
# Most (candidate, value) cells one KS pass of the batched fit holds.
KS_CELLS = 1 << 18

Table = tuple[np.ndarray, np.ndarray]  # sorted distinct values, their counts


# Cephes zeta.c: the Euler-Maclaurin coefficients (2k)! / B_2k, and MACHEP
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16
ZETA_BLOCK = 1 << 14


def _zeta(x, q):
    """Hurwitz zeta function for x > 1 and q >= 1: Cephes ``zeta`` on arrays,
    in blocks of ZETA_BLOCK elements so that the temporaries stay in cache."""
    x, q = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(q, dtype=float))
    if not ((x > 1.0).all() and (q >= 1.0).all()):  # nan fails too
        raise ValueError("zeta needs x > 1 and q >= 1")
    shape, x, q = x.shape, x.ravel(), q.ravel()
    out = np.empty(len(q))
    for i in range(0, len(q), ZETA_BLOCK):
        _zeta_block(x[i:i + ZETA_BLOCK], q[i:i + ZETA_BLOCK], out[i:i + ZETA_BLOCK])
    return out.reshape(shape)[()]


@np.errstate(divide="ignore", invalid="ignore")  # 0 / 0 where a term underflows
def _zeta_block(x: np.ndarray, q: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with zeta(x, q), each sum stopping at the term where Cephes stops."""
    big = q > 1e8
    xb, qb = x[big], q[big]  # asymptotic expansion, DLMF 25.11.43
    out[big] = (1.0 / (xb - 1.0) + 1.0 / (2.0 * qb)) * np.float_power(qb, 1.0 - xb)
    idx = np.flatnonzero(~big)
    x, w = x[idx], q[idx]
    nx = -x
    s, b = np.float_power(w, nx), np.empty(len(idx))
    for _ in range(9):  # for q >= 1 the direct sum ends at q + 9
        w += 1.0
        np.float_power(w, nx, out=b)
        s += b
    # the positive ratio b / s only falls along the sum: a sum that Cephes
    # stops early is below MACHEP at the last term too, and is redone in full
    early = b / s < _MACHEP
    if early.any():
        terms = np.float_power(np.cumsum(np.column_stack([q[idx[early]], np.ones((early.sum(), 9))]), axis=1),
                               nx[early, None])
        sums = np.cumsum(terms, axis=1)  # sequential, as the loop adds
        out[idx[early]] = sums[np.arange(len(sums)), np.argmax(terms / sums < _MACHEP, axis=1)]
        idx, x, w, b, s = (v[~early] for v in (idx, x, w, b, s))
    # Euler-Maclaurin tail from w = q + 9; a finished sum is stored in res and
    # computed on until most are finished, which is cheaper than dropping it
    s = s + b * w / (x - 1.0) - 0.5 * b
    fact, k, res, done = np.ones(len(idx)), 0.0, np.empty(len(idx)), np.zeros(len(idx), dtype=bool)
    for coef in _ZETA_A:
        fact *= x + k
        b /= w
        t = fact * b / coef
        s += t
        stop = np.abs(t / s) < _MACHEP
        np.copyto(res, s, where=stop & ~done)
        done |= stop
        if np.count_nonzero(done) * 8 > 7 * len(done):
            out[idx[done]] = res[done]
            idx, x, w, b, s, fact, res, done = (v[~done] for v in (idx, x, w, b, s, fact, res, done))
            if not len(idx):
                break
        fact *= x + (k + 1.0)
        b /= w
        k += 2.0
    np.copyto(res, s, where=~done)
    out[idx] = res


@dataclass
class PowerLawVerdict:
    alpha_hat: float
    k_min: int
    ks_stat: float
    p_value: float
    rejected: bool
    alpha_at_bound: bool


def _mle_alpha(n: np.ndarray, log_sum: np.ndarray, k_min: np.ndarray) -> np.ndarray:
    """Maximize the zeta likelihood of P(k) = k^-a / zeta(a, k_min) for every
    candidate at once: one golden-section search over ALPHA_BOUNDS for the
    minimizer of n*log(zeta(a, k_min)) + a*log_sum, which is convex in a."""

    def neg_ll(a: np.ndarray) -> np.ndarray:
        return n * np.log(_zeta(a, k_min)) + a * log_sum

    g = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.full(len(n), ALPHA_BOUNDS[0]), np.full(len(n), ALPHA_BOUNDS[1])
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = neg_ll(x1), neg_ll(x2)
    for _ in range(GOLDEN_STEPS):
        left = f1 < f2  # the minimum lies in [lo, x2], else in [x1, hi]
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        f = neg_ll(x)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, f, f2), np.where(left, f1, f)
    return (lo + hi) / 2.0


def _fit_powerlaw(tables: Sequence[Table]) -> list[tuple[float, int, float] | None]:
    """Fit each (values, counts) table: the k_min candidate with the
    smallest KS distance (the first on a tie), as (alpha, k_min, ks), or None
    when the table has no candidate.

    A candidate keeps at least 10% of its table's mass (and 2 samples) and
    has 2 distinct values at or above it.  The candidates of all tables
    are solved in one batch, and their KS distances are taken over flat
    (candidate, value >= k_min) cells, KS_CELLS at a time.
    """
    values = np.concatenate([v for v, _ in tables])
    cum = np.concatenate([np.cumsum(c) for _, c in tables])
    table_end = np.cumsum([len(v) for v, _ in tables])
    cands, bounds = [], [0]
    for (vals, counts), end in zip(tables, table_end):
        # suffix aggregates give every candidate's sums at once; tail_n falls
        # with the position, so the candidates are a prefix
        tail_n = np.cumsum(counts[::-1])[::-1]
        tail_logsum = np.cumsum((counts * np.log(vals))[::-1])[::-1]
        m = min(int(np.count_nonzero(tail_n >= max(0.1 * tail_n[0], 2))), len(vals) - 1)
        cands.append((end - len(vals) + np.arange(m), tail_n[:m], tail_logsum[:m]))
        bounds.append(bounds[-1] + m)
    start, n, log_sum = (np.concatenate(c) for c in zip(*cands))
    stop = np.repeat(table_end, np.diff(bounds))
    k_min = values[start]
    alpha = _mle_alpha(n, log_sum, k_min)
    z = _zeta(alpha, k_min)
    before = cum[stop - 1] - n  # samples of the candidate's table below k_min
    length = stop - start
    step = max(1, KS_CELLS // int(length.max(initial=1)))  # candidates per pass
    ks = np.empty(len(alpha))
    for a in range(0, len(alpha), step):
        lens = length[a:a + step]
        owner = np.repeat(np.arange(a, a + len(lens)), lens)
        head = np.cumsum(lens) - lens  # each candidate's first cell
        cell = np.arange(len(owner)) + np.repeat(start[a:a + step] - head, lens)
        emp_cdf = (cum[cell] - before[owner]) / n[owner]
        model_cdf = 1.0 - _zeta(alpha[owner], values[cell] + 1) / z[owner]
        ks[a:a + step] = np.maximum.reduceat(np.abs(emp_cdf - model_cdf), head)
    best = [lo + int(np.argmin(ks[lo:hi])) if lo < hi else None for lo, hi in zip(bounds, bounds[1:])]
    return [None if i is None else (float(alpha[i]), int(k_min[i]), float(ks[i])) for i in best]


class _PowerLawSampler:
    """Inverse-CDF sampler with a precomputed table; continuous tail fallback."""

    CAP = 100_000
    # largest float64 an int64 holds: the tail fallback's ceiling, reached only
    # where (1 - u)**(-1/(alpha - 1)) overflows, at alpha below about 1.84
    TOP = 2.0**63 - 1024

    def __init__(self, alpha: float, k_min: int):
        self.alpha = alpha
        self.k_min = k_min
        z = _zeta(alpha, k_min)
        # draws are below 1, so none lands past the first entry that reaches 1;
        # the table grows in doubling chunks until one does, or up to CAP
        chunks = [np.zeros(0)]
        size = 0
        while size < self.CAP and not (chunks[-1] == 1.0).any():
            step = min(max(size, 32), self.CAP - size)
            chunks.append(1.0 - _zeta(alpha, np.arange(k_min + size, k_min + size + step) + 1) / z)
            size += step
        cdf = np.concatenate(chunks)
        full = np.flatnonzero(cdf == 1.0)
        stop = int(full[0]) + 1 if full.size else self.CAP
        self.cdf = cdf[:stop]
        self.ks = np.arange(k_min, k_min + stop)

    def draw_table(self, rng: np.random.Generator, size: int) -> Table:
        """(values, counts) of ``size`` draws, ``size`` >= 1, by the inverse CDF
        of a uniform u: below ``cdf[0]``, k_min; up to ``cdf[-1]``, by table
        entry; past it, the continuous tail.  One multinomial counts the draws
        on each of the table's first ``head = min(size, len(cdf))`` entries and
        those past them; only the latter draw their u, on [cdf[head - 1], 1),
        so a table costs ``head`` plus the draws past it, never ``CAP``."""
        head = min(size, len(self.cdf))
        hits = rng.multinomial(size, np.diff(self.cdf[:head], prepend=0.0, append=1.0))
        u = self.cdf[head - 1] + (1.0 - self.cdf[head - 1]) * rng.random(hits[-1])
        over = u > self.cdf[-1]
        # an infinite draw, or a u rounded up to 1.0, is capped at TOP
        with np.errstate(over="ignore", divide="ignore"):
            tail = np.floor((self.k_min - 0.5) * (1.0 - u[over]) ** (-1.0 / (self.alpha - 1.0)) + 0.5)
        idx = np.minimum(np.searchsorted(self.cdf, u[~over], side="right"), len(self.ks) - 1)
        past, past_hits = np.unique(np.concatenate([self.ks[idx], np.minimum(tail, self.TOP).astype(np.int64)]),
                                    return_counts=True)
        inside = past < self.k_min + head  # the continuous tail may still land on the head
        hits = hits[:-1]
        hits[past[inside] - self.k_min] += past_hits[inside]
        at = np.flatnonzero(hits)
        return np.concatenate([self.ks[at], past[~inside]]), np.concatenate([hits[at], past_hits[~inside]])


def _bootstrap_tables(
    samples: np.ndarray, alpha: float, k_min: int, count: int, seed: int
) -> list[Table]:
    """(values, counts) of each bootstrap replicate of ``power_law_test``,
    drawn as counts.  Replicate ``rep`` draws from ``default_rng([seed, rep])``
    its tail size, binomial with the share of samples at or above k_min; the
    counts of the rest over the distinct values below k_min, multinomial with
    their shares; and the tail's table by ``_PowerLawSampler.draw_table``.
    That is the distribution of the tables of n independent draws, at a cost
    in distinct values rather than in n."""
    n = len(samples)
    body = samples[samples < k_min]
    body_values, body_counts = np.unique(body, return_counts=True)
    p_tail = 1.0 - len(body) / n
    p_body = body_counts / len(body)  # empty where the body is
    sampler = _PowerLawSampler(alpha, k_min)
    tables = []
    for rep in range(count):
        rng = np.random.default_rng([seed, rep])
        n_tail = int(rng.binomial(n, p_tail))
        parts = []
        if n - n_tail:  # the body lies below k_min, so its table comes first
            hits = rng.multinomial(n - n_tail, p_body)
            at = np.flatnonzero(hits)
            parts.append((body_values[at], hits[at]))
        if n_tail:
            parts.append(sampler.draw_table(rng, n_tail))
        tables.append(tuple(map(np.concatenate, zip(*parts))))
    return tables


def power_law_test(
    samples: Sequence[int],
    bootstrap_count: int = 250,
    significance: float = 0.1,
    seed: int = 0,
) -> PowerLawVerdict:
    """Discrete power-law fit with a semi-parametric bootstrap p-value.

    Each replicate redraws the body from the empirical sub-k_min data and the
    tail from the fitted model, then refits from scratch; the p-value is the
    share of replicates whose KS distance reaches the observed one.
    """
    if bootstrap_count < MIN_BOOTSTRAP:
        raise ValueError(f"bootstrap_count must be at least {MIN_BOOTSTRAP}")
    samples = np.asarray(samples, dtype=np.int64)
    if (samples < 1).any():
        raise ValueError("power-law support starts at 1")
    table = np.unique(samples, return_counts=True)
    if len(table[0]) < 3:
        raise InsufficientSupportError("need at least 3 distinct values")
    # with 3 distinct values, the smallest is always a candidate
    alpha_hat, k_min, ks_data = _fit_powerlaw([table])[0]
    fits = _fit_powerlaw(_bootstrap_tables(samples, alpha_hat, k_min, bootstrap_count, seed))
    p_value = sum(1 for fit in fits if fit is not None and fit[2] >= ks_data) / bootstrap_count
    at_bound = min(abs(alpha_hat - b) for b in ALPHA_BOUNDS) <= ALPHA_XATOL
    return PowerLawVerdict(alpha_hat, k_min, ks_data, p_value, p_value < significance, at_bound)
