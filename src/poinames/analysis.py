"""Correlation of collective similarity with distance, and the decay fit.

With only a handful of region pairs, p-values come from a permutation test
rather than from a distributional approximation. Region pairs that share a
region are not independent, so the test permutes region labels (a Mantel
test), and at few regions it tests every permutation.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .corpus import FrozenRecord
from .linfit import LineFit, line_fit
from .regionvec import RegionMatrix

if TYPE_CHECKING:
    import numpy as np

DEFAULT_PERMUTATIONS = 100_000
# Permutation blocks hold at most PERMUTATION_BLOCK cells per observation and
# PERMUTATION_CELLS cells in all, so memory is bounded in both the permutation
# count and the pair count.
PERMUTATION_BLOCK = 1024
PERMUTATION_CELLS = 1024 * 1225


class RegionPairs(FrozenRecord):
    """Collective similarity and geodesic distance for every pair of ``regions``.

    Pair k is the k-th of ``itertools.combinations(regions, 2)``. Arrays that
    do not hold R(R - 1)/2 values, or a distance of 0 or below, raise
    ValueError. Pairs compare by identity: an array comparison has no single
    truth value.
    """

    __slots__ = ("regions", "similarity", "distance_m")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, regions: tuple[str, ...], similarity: np.ndarray,
                 distance_m: np.ndarray) -> None:
        self._init(regions, similarity, distance_m)
        count = math.comb(len(regions), 2)
        if similarity.shape != (count,) or distance_m.shape != (count,):
            raise ValueError(f"{len(regions)} regions have {count} pairs, got "
                             f"{similarity.size} similarities and {distance_m.size} distances")
        _refuse(self, distance_m <= 0.0, "a non-positive distance")

    def __len__(self) -> int:
        return self.similarity.size

    def names(self) -> Iterator[tuple[str, str]]:
        """The two region labels of each pair, in pair order."""
        return itertools.combinations(self.regions, 2)


def _refuse(pairs: RegionPairs, bad: np.ndarray, fault: str) -> None:
    """Raise ValueError if ``bad`` marks a pair, naming how many it marks and the first few."""
    import numpy as np
    count = int(np.count_nonzero(bad))
    if count:
        first = list(itertools.islice(itertools.compress(pairs.names(), bad.tolist()), 6))
        raise ValueError(f"{count} of {bad.size} region pairs have {fault}, "
                         f"among them {reprlib.repr(first)}")


class CorrelationResult(NamedTuple):
    """A coefficient and its p-value over ``permutations`` permutations,
    which are every permutation of the labels when ``exact``."""

    coefficient: float
    p_value: float
    permutations: int
    exact: bool


def pair_observations(sim: RegionMatrix, dist: RegionMatrix) -> RegionPairs:
    """Every unordered region pair, in the lexicographic order of the sorted labels."""
    import numpy as np
    regions = sorted(sim.regions)
    if regions != sorted(dist.regions):
        raise ValueError(f"mismatched region sets: {regions} vs {sorted(dist.regions)}")
    first, second = np.triu_indices(len(regions), 1)

    def upper_triangle(matrix: RegionMatrix) -> np.ndarray:
        order = np.array(sorted(range(len(regions)), key=matrix.regions.__getitem__))
        return matrix.values[order[first], order[second]]

    return RegionPairs(tuple(regions), upper_triangle(sim), upper_triangle(dist))


def _observations(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray, int]:
    """x and y as float arrays, and the R regions whose pairs they hold.

    Raises ValueError unless x and y each hold one finite value per pair of
    R regions, at least 3 in all.
    """
    import numpy as np
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise ValueError("x and y must have equal length, in one dimension")
    n = xa.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    regions = (1 + math.isqrt(1 + 8 * n)) // 2  # R(R - 1)/2 <= n
    if math.comb(regions, 2) != n:
        raise ValueError(f"need one value per pair of R regions, R(R - 1)/2 in all, got {n}")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("x and y must be finite")
    return xa, ya, regions


def _permutation_p(
    xc: np.ndarray,
    yc: np.ndarray,
    regions: int,
    denom: float,
    r_obs: float,
    permutations: int,
    seed: int,
) -> CorrelationResult:
    """Two-sided Mantel test of the correlation of centred x and y.

    Pair k joins regions (first[k], second[k]), the k-th pair of
    ``combinations(range(m), 2)`` with m = ``regions``. A permutation p of
    the labels gives pair k the y value of the pair (p[first[k]], p[second[k]]).

    When m! is at most ``permutations``, every permutation is tested and
    p = hits / m!, exactly. Otherwise ``permutations`` are drawn and
    p = (1 + hits) / (1 + permutations). The identity permutation is a hit
    either way, so p is in (0, 1].
    """
    import numpy as np
    n, m = xc.size, regions
    first, second = np.triu_indices(m, 1)
    # y as the symmetric m x m matrix, flattened
    table = np.zeros((m, m))
    table[first, second] = table[second, first] = yc
    values = table.ravel()
    count = 1
    for k in range(2, m + 1):
        count *= k
        if count > permutations:
            break
    exact = count <= permutations
    if not exact:
        count = permutations
    rng = np.random.default_rng(seed)
    enumeration = itertools.permutations(range(m)) if exact else None
    # tiny slack so the identity permutation is never lost to rounding
    threshold = abs(r_obs) - 1e-12
    hits = 0
    # A block row holds one permutation's labels, the index of each
    # observation's value and the gathered values. Every block reuses these
    # buffers, and the gathered values first hold the second half of the
    # index. Random rows are shuffled in order from one generator, so blocks
    # draw exactly the permutations one whole matrix would.
    cells = m + 2 * n
    budget = min(PERMUTATION_BLOCK * n, PERMUTATION_CELLS)
    rows = max(1, min(budget // cells, count))
    label_buf = np.empty((rows, m), dtype=np.intp)
    index_buf = np.empty((rows, n), dtype=np.intp)
    value_buf = np.empty((rows, n))
    identity = np.arange(m)
    for start in range(0, count, rows):
        size = min(rows, count - start)
        perms, index, gathered = label_buf[:size], index_buf[:size], value_buf[:size]
        if exact:
            perms[...] = list(itertools.islice(enumeration, size))
        else:
            perms[...] = identity
            rng.permuted(perms, axis=1, out=perms)
        # mode="clip" spares the copy of ``out`` that the default mode makes;
        # every index is in range
        permuted_second = gathered.view(np.intp)
        np.take(perms, second, axis=1, out=permuted_second, mode="clip")
        perms *= m
        np.take(perms, first, axis=1, out=index, mode="clip")
        index += permuted_second
        np.take(values, index, out=gathered, mode="clip")
        r_perm = (gathered @ xc) / denom
        hits += int(np.count_nonzero(np.abs(r_perm) >= threshold))
    p_value = hits / count if exact else (1 + hits) / (1 + count)
    return CorrelationResult(r_obs, p_value, count, exact)


def pearson(
    x: Sequence[float],
    y: Sequence[float],
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> CorrelationResult:
    """Sample Pearson correlation with a two-sided Mantel p-value.

    x and y hold one value per pair of R regions, in the order of
    ``itertools.combinations(regions, 2)``, as ``RegionPairs`` holds them.
    A length that is not R(R - 1)/2, or a value that is not finite, raises
    ValueError. The test permutes the R region labels of y, since pairs that
    share a region are not independent (Mantel 1967). When the labels have
    at most ``permutations`` permutations, the test takes each one once and
    its p-value is exact.
    """
    import numpy as np
    xa, ya, regions = _observations(x, y)
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
    return _permutation_p(xc, yc, regions, denom, r, permutations, seed)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n; tied values share the mean of their rank positions."""
    import numpy as np
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
    """Spearman rank correlation: pearson on average ranks, with the same draws.

    x and y are checked as pearson checks them, before ranking, which would
    hide a value that is not finite. The ranks of permuted values are the
    permuted ranks, so the permutations reorder the ranks of y.
    """
    xa, ya, _ = _observations(x, y)
    return pearson(_average_ranks(xa), _average_ranks(ya), permutations, seed)


def fit_distance_decay(pairs: RegionPairs) -> LineFit:
    """OLS of ln(similarity) on ln(distance) over the region pairs."""
    _refuse(pairs, pairs.similarity <= 0.0, "a non-positive similarity, which has no log")
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 observations, got {len(pairs)}")
    return line_fit([math.log(d) for d in pairs.distance_m.tolist()],
                    [math.log(s) for s in pairs.similarity.tolist()])
