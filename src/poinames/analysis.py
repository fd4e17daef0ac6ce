"""Correlation of collective similarity with distance, and the decay fit.

With only a handful of region pairs, p-values come from a seeded
permutation test rather than from a distributional approximation.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from dataclasses import dataclass
from typing import Iterator, Sequence

from ._numpy import np
from .linfit import LineFit, line_fit
from .regionvec import RegionMatrix

DEFAULT_PERMUTATIONS = 100_000
# Permutation blocks hold at most PERMUTATION_BLOCK rows and PERMUTATION_CELLS
# values, so memory is bounded in both the permutation count and the pair count.
PERMUTATION_BLOCK = 1024
PERMUTATION_CELLS = 1024 * 1225


@dataclass(frozen=True, eq=False)
class RegionPairs:
    """Collective similarity and geodesic distance for each region pair.

    Pair k joins ``regions[first[k]]`` and ``regions[second[k]]``. A
    distance of 0 or below raises ValueError.
    """

    regions: tuple[str, ...]
    first: np.ndarray
    second: np.ndarray
    similarity: np.ndarray
    distance_m: np.ndarray

    def __post_init__(self) -> None:
        _refuse(self, self.distance_m <= 0.0, "a non-positive distance")

    def __len__(self) -> int:
        return self.similarity.size

    def names(self) -> Iterator[tuple[str, str]]:
        """The two region labels of each pair, in pair order."""
        for i, j in zip(self.first.tolist(), self.second.tolist()):
            yield self.regions[i], self.regions[j]


def _refuse(pairs: RegionPairs, bad: np.ndarray, fault: str) -> None:
    """Raise ValueError if ``bad`` marks a pair, naming how many it marks and the first few."""
    count = int(np.count_nonzero(bad))
    if count:
        first = list(itertools.islice(itertools.compress(pairs.names(), bad.tolist()), 6))
        raise ValueError(f"{count} of {bad.size} region pairs have {fault}, "
                         f"among them {reprlib.repr(first)}")


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    p_value: float


def pair_observations(sim: RegionMatrix, dist: RegionMatrix) -> RegionPairs:
    """Every unordered region pair, in the lexicographic order of the sorted labels."""
    regions = sorted(sim.regions)
    if regions != sorted(dist.regions):
        raise ValueError(f"mismatched region sets: {regions} vs {sorted(dist.regions)}")
    first, second = np.triu_indices(len(regions), 1)

    def upper_triangle(matrix: RegionMatrix) -> np.ndarray:
        order = np.array(sorted(range(len(regions)), key=matrix.regions.__getitem__))
        return matrix.values[order[first], order[second]]

    return RegionPairs(tuple(regions), first, second, upper_triangle(sim), upper_triangle(dist))


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


def fit_distance_decay(pairs: RegionPairs) -> LineFit:
    """OLS of ln(similarity) on ln(distance) over the region pairs."""
    _refuse(pairs, pairs.similarity <= 0.0, "a non-positive similarity, which has no log")
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 observations, got {len(pairs)}")
    return line_fit([math.log(d) for d in pairs.distance_m.tolist()],
                    [math.log(s) for s in pairs.similarity.tolist()])
