"""Correlation of collective similarity with distance, and the decay fit.

With only a handful of region pairs the default p-value comes from a
seeded permutation test; a Student-t approximation is available for
comparison. Its two-sided tail is the regularized incomplete beta function
evaluated by continued fraction: within 1e-10 relative for up to 10^6
degrees of freedom, wherever the tail is a normal float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linfit import LineFit, line_fit
from .regionvec import RegionMatrix

DEFAULT_PERMUTATIONS = 100_000
# Permutation blocks hold at most PERMUTATION_BLOCK rows and PERMUTATION_CELLS
# values, so memory is bounded in both the permutation count and the pair count.
PERMUTATION_BLOCK = 1024
PERMUTATION_CELLS = 1024 * 1225


@dataclass(frozen=True)
class PairObservation:
    """Collective similarity and geodesic distance for one region pair."""

    region_a: str
    region_b: str
    similarity: float
    distance_m: float

    def __post_init__(self) -> None:
        if self.distance_m <= 0.0:
            raise ValueError(
                f"pair ({self.region_a}, {self.region_b}) has non-positive "
                f"distance {self.distance_m}"
            )


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    p_value: float


def pair_observations(
    sim: RegionMatrix, dist: RegionMatrix
) -> list[PairObservation]:
    """One observation per unordered region pair, lexicographic order."""
    if set(sim.regions) != set(dist.regions):
        raise ValueError(
            f"mismatched region sets: {sorted(sim.regions)} vs {sorted(dist.regions)}"
        )
    sim_idx = {r: i for i, r in enumerate(sim.regions)}
    dist_idx = {r: i for i, r in enumerate(dist.regions)}
    regions = sorted(sim.regions)
    out = []
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            a, b = regions[i], regions[j]
            out.append(
                PairObservation(
                    region_a=a,
                    region_b=b,
                    similarity=float(sim.values[sim_idx[a], sim_idx[b]]),
                    distance_m=float(dist.values[dist_idx[a], dist_idx[b]]),
                )
            )
    return out


def _pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.sum(xc * xc))
    syy = float(np.sum(yc * yc))
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("degenerate correlation: zero variance")
    r = float(np.sum(xc * yc)) / math.sqrt(sxx * syy)
    return min(max(r, -1.0), 1.0)


def _permutation_p(
    x: np.ndarray, y: np.ndarray, r_obs: float, permutations: int, seed: int
) -> float:
    """Two-sided permutation p-value for the correlation coefficient.

    Permutes y; p = (1 + #{|r_perm| >= |r_obs|}) / (1 + permutations), so
    the result is always in (0, 1].
    """
    rng = np.random.default_rng(seed)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(np.sum(xc * xc)) * float(np.sum(yc * yc)))
    # tiny slack so the identity permutation is never lost to rounding
    threshold = abs(r_obs) - 1e-12
    hits = 0
    # Rows are shuffled in order from one generator, so blocks draw exactly
    # the permutations one whole matrix would. Every block reuses one buffer.
    block = max(1, min(PERMUTATION_BLOCK, PERMUTATION_CELLS // x.size, permutations))
    buf = np.empty((block, x.size))
    for start in range(0, permutations, block):
        perms = buf[: min(block, permutations - start)]
        perms[...] = yc
        rng.permuted(perms, axis=1, out=perms)
        r_perm = (perms @ xc) / denom
        hits += int(np.count_nonzero(np.abs(r_perm) >= threshold))
    return (1 + hits) / (1 + permutations)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) (modified Lentz), for x < (a+1)/(a+b+2)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 1e-15:
            return h
    raise RuntimeError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def _ln_gamma_ratio_half(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)).

    For large a the two lgamma values nearly cancel, losing digits in
    proportion to ln a, so the ratio comes from Stirling's series instead.
    """
    if a < 50.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)

    def stirling_tail(z: float) -> float:
        return 1 / (12 * z) - 1 / (360 * z**3) + 1 / (1260 * z**5) - 1 / (1680 * z**7)

    return (a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
            + stirling_tail(a + 0.5) - stirling_tail(a))


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom, t >= 0.

    Equals I_x(df/2, 1/2) with x = df / (df + t^2); the continued fraction
    runs on whichever of I_x(a, b) and 1 - I_{1-x}(b, a) converges fast.
    """
    a, b = df / 2.0, 0.5
    ratio = t * t / df
    if ratio == 0.0:
        return 1.0
    x = 1.0 / (1.0 + ratio)  # df / (df + t^2)
    ln_x = -math.log1p(ratio)
    ln_1mx = -math.log1p(1.0 / ratio)  # ln(t^2 / (df + t^2))
    # 1 / B(a, 1/2) = Gamma(a + 1/2) / (Gamma(a) sqrt(pi))
    front = math.exp(
        _ln_gamma_ratio_half(a) - 0.5 * math.log(math.pi) + a * ln_x + b * ln_1mx
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, ratio * x) / b


def _t_approx_p(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        return float(np.finfo(float).tiny)
    t_stat = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    p = _t_two_sided_p(t_stat, n - 2)
    return max(min(p, 1.0), float(np.finfo(float).tiny))


def _correlate(
    x: Sequence[float],
    y: Sequence[float],
    method: str,
    p_method: str,
    permutations: int,
    seed: int,
) -> CorrelationResult:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise ValueError("x and y must have equal length")
    n = xa.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if method == "spearman":
        xa = _average_ranks(xa)
        ya = _average_ranks(ya)
    r = _pearson_r(xa, ya)
    if p_method == "permutation":
        if permutations < 1:
            raise ValueError(f"permutations must be at least 1, got {permutations}")
        return CorrelationResult(r, _permutation_p(xa, ya, r, permutations, seed))
    if p_method == "t_approx":
        return CorrelationResult(r, _t_approx_p(r, n))
    raise ValueError(f"unknown p_method {p_method!r}")


def pearson(
    x: Sequence[float],
    y: Sequence[float],
    p_method: str = "permutation",
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> CorrelationResult:
    """Sample Pearson correlation with a two-sided p-value."""
    return _correlate(x, y, "pearson", p_method, permutations, seed)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n; tied values share the mean of their rank positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = mean_rank
        i = j + 1
    return ranks


def spearman(
    x: Sequence[float],
    y: Sequence[float],
    p_method: str = "permutation",
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> CorrelationResult:
    """Spearman rank correlation (average ranks for ties)."""
    return _correlate(x, y, "spearman", p_method, permutations, seed)


def fit_distance_decay(observations: Sequence[PairObservation]) -> LineFit:
    """OLS of ln(similarity) on ln(distance) over the region pairs."""
    offenders = [
        (o.region_a, o.region_b)
        for o in observations
        if o.similarity <= 0.0 or o.distance_m <= 0.0
    ]
    if offenders:
        raise ValueError(
            f"cannot take logs: non-positive similarity or distance for pairs {offenders}"
        )
    if len(observations) < 3:
        raise ValueError(f"need at least 3 observations, got {len(observations)}")
    ln_d = [math.log(o.distance_m) for o in observations]
    ln_s = [math.log(o.similarity) for o in observations]
    return line_fit(ln_d, ln_s)
