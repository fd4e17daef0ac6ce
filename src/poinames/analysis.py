"""Correlation of collective similarity with distance, and the decay fit.

With only a handful of region pairs, p-values come from a seeded
permutation test rather than from a distributional approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ._numpy import np
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


def _permutation_p(
    xc: np.ndarray, yc: np.ndarray, denom: float, r_obs: float, permutations: int, seed: int
) -> float:
    """Two-sided permutation p-value for the correlation of centred x and y.

    Permutes yc; p = (1 + #{|r_perm| >= |r_obs|}) / (1 + permutations), so
    the result is always in (0, 1].
    """
    rng = np.random.default_rng(seed)
    # tiny slack so the identity permutation is never lost to rounding
    threshold = abs(r_obs) - 1e-12
    hits = 0
    # Rows are shuffled in order from one generator, so blocks draw exactly
    # the permutations one whole matrix would. Every block reuses one buffer.
    block = max(1, min(PERMUTATION_BLOCK, PERMUTATION_CELLS // xc.size, permutations))
    buf = np.empty((block, xc.size))
    for start in range(0, permutations, block):
        perms = buf[: min(block, permutations - start)]
        perms[...] = yc
        rng.permuted(perms, axis=1, out=perms)
        r_perm = (perms @ xc) / denom
        hits += int(np.count_nonzero(np.abs(r_perm) >= threshold))
    return (1 + hits) / (1 + permutations)


def pearson(
    x: Sequence[float],
    y: Sequence[float],
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> CorrelationResult:
    """Sample Pearson correlation with a two-sided permutation p-value."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise ValueError("x and y must have equal length")
    n = xa.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if permutations < 1:
        raise ValueError(f"permutations must be at least 1, got {permutations}")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sxx = float(np.sum(xc * xc))
    syy = float(np.sum(yc * yc))
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("degenerate correlation: zero variance")
    denom = math.sqrt(sxx * syy)
    r = min(max(float(np.sum(xc * yc)) / denom, -1.0), 1.0)
    return CorrelationResult(r, _permutation_p(xc, yc, denom, r, permutations, seed))


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n; tied values share the mean of their rank positions."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # each tie group holds sorted positions starts[g]..ends[g] - 1 and gets
    # their mean rank; -0.0 == 0.0, so the two tie
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + (ends - 1)) / 2.0 + 1.0, ends - starts)
    return ranks


def spearman(
    x: Sequence[float],
    y: Sequence[float],
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> CorrelationResult:
    """Spearman rank correlation: pearson on average ranks, with the same draws."""
    return pearson(_average_ranks(x), _average_ranks(y), permutations, seed)


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
