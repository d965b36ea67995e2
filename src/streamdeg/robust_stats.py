"""Statistical primitives for the detection pipeline.

Two-sample and one-sample Kolmogorov-Smirnov tests, iterative Grubbs outlier
pruning, the homogeneous-with-outliers normal fit, three-sigma flagging and a
discrete power-law fit with bootstrap goodness-of-fit.

All procedures are pure functions; randomized ones take an explicit seed and
derive one child generator per bootstrap replicate, so results do not depend
on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

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


@dataclass
class GrubbsResult:
    kept: np.ndarray
    removed: list[tuple[float, float]]  # (value, G statistic), in removal order


def grubbs_critical(n: int, alpha: float) -> float:
    """Two-sided Grubbs critical value from the Student-t quantile."""
    if n < 3:
        return math.inf
    t = special.stdtrit(n - 2, 1.0 - alpha / (2.0 * n))
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


@dataclass
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


def _ks_against_normal(values: np.ndarray, mu: float, sigma: float) -> float:
    x = np.sort(values)
    n = len(x)
    cdf = special.ndtr((x - mu) / sigma)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max((hi - cdf).max(), (cdf - lo).max()))


def fit_homogeneous(
    values: Sequence[float],
    grubbs_alpha: float = 0.05,
    ks_alpha: float = 0.1,
    unbiased_sigma: bool = False,
) -> NormalFit:
    """Grubbs-pruned normal MLE fit with a KS goodness check.

    mu and sigma are the maximum-likelihood estimates on the kept values
    (sigma uses 1/n unless ``unbiased_sigma``); the fit is accepted when the
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
    sigma = float(kept.std(ddof=1 if unbiased_sigma else 0))
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


# Search interval of the zeta MLE, and the optimizer's tolerance on alpha
# (scipy's default for the bounded method).  An estimate within the tolerance
# of either bound is the bound, not a fit.
ALPHA_BOUNDS = (1.01, 20.0)
ALPHA_XATOL = 1e-5


@dataclass
class PowerLawVerdict:
    alpha_hat: float
    k_min: int
    ks_stat: float
    p_value: float
    rejected: bool
    alpha_at_bound: bool


def _discrete_mle_alpha(n: int, log_sum: float, k_min: int) -> float:
    """Maximize the zeta likelihood of P(k) = k^-a / zeta(a, k_min)."""
    from scipy import optimize  # costly to import; only the power-law fit needs it

    def neg_ll(a: float) -> float:
        return n * math.log(special.zeta(a, k_min)) + a * log_sum

    res = optimize.minimize_scalar(
        neg_ll, bounds=ALPHA_BOUNDS, method="bounded", options={"xatol": ALPHA_XATOL}
    )
    return float(res.x)


def _fit_powerlaw(samples: np.ndarray) -> tuple[float, int, float]:
    """Scan k_min candidates (keeping >= 10% of mass), pick the KS minimizer."""
    n = len(samples)
    values, counts = np.unique(samples, return_counts=True)
    # suffix aggregates make every candidate fit O(distinct values)
    tail_n = np.cumsum(counts[::-1])[::-1]
    tail_logsum = np.cumsum((counts * np.log(values))[::-1])[::-1]
    keep = tail_n >= max(0.1 * n, 2)
    best = None
    for pos in np.flatnonzero(keep):
        if len(values) - pos < 2:
            continue  # fewer than 2 distinct values above this k_min
        k_min = int(values[pos])
        alpha = _discrete_mle_alpha(int(tail_n[pos]), float(tail_logsum[pos]), k_min)
        vv = values[pos:]
        emp_cdf = np.cumsum(counts[pos:]) / tail_n[pos]
        z = special.zeta(alpha, k_min)
        model_cdf = 1.0 - special.zeta(alpha, vv + 1) / z
        ks = float(np.abs(emp_cdf - model_cdf).max())
        if best is None or ks < best[2]:
            best = (alpha, k_min, ks)
    if best is None:
        raise InsufficientSupportError(
            "need at least 2 distinct values above k_min to fit a power law"
        )
    return best


class _PowerLawSampler:
    """Inverse-CDF sampler with a precomputed table; continuous tail fallback."""

    CAP = 100_000

    def __init__(self, alpha: float, k_min: int):
        self.alpha = alpha
        self.k_min = k_min
        ks = np.arange(k_min, k_min + self.CAP)
        z = special.zeta(alpha, k_min)
        cdf = 1.0 - special.zeta(alpha, ks + 1) / z
        # draws are below 1, so none lands past the first entry that reaches 1
        full = np.flatnonzero(cdf == 1.0)
        stop = int(full[0]) + 1 if full.size else self.CAP
        self.cdf = cdf[:stop]
        self.ks = ks[:stop]

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        out = self.ks[np.minimum(np.searchsorted(self.cdf, u, side="right"), len(self.ks) - 1)]
        overflow = u > self.cdf[-1]
        if overflow.any():
            tail = np.floor(
                (self.k_min - 0.5) * (1.0 - u[overflow]) ** (-1.0 / (self.alpha - 1.0)) + 0.5
            )
            out = out.copy()
            out[overflow] = tail.astype(np.int64)
        return out


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
    if len(np.unique(samples)) < 3:
        raise InsufficientSupportError("need at least 3 distinct values")
    alpha_hat, k_min, ks_data = _fit_powerlaw(samples)
    n = len(samples)
    body = samples[samples < k_min]
    p_tail = 1.0 - len(body) / n
    sampler = _PowerLawSampler(alpha_hat, k_min)
    exceed = 0
    for rep in range(bootstrap_count):
        rng = np.random.default_rng([seed, rep])
        take_tail = rng.random(n) < p_tail
        n_tail = int(take_tail.sum())
        parts = []
        if n_tail:
            parts.append(sampler.draw(rng, n_tail))
        if n - n_tail:
            parts.append(rng.choice(body, size=n - n_tail, replace=True))
        synth = np.concatenate(parts)
        try:
            _, _, ks_rep = _fit_powerlaw(synth)
        except InsufficientSupportError:
            continue
        if ks_rep >= ks_data:
            exceed += 1
    p_value = exceed / bootstrap_count
    at_bound = min(abs(alpha_hat - b) for b in ALPHA_BOUNDS) <= ALPHA_XATOL
    return PowerLawVerdict(alpha_hat, k_min, ks_data, p_value, p_value < significance, at_bound)
