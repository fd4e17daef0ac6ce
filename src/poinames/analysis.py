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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

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
    import numpy as np
    count = int(np.count_nonzero(bad))
    if count:
        first = list(itertools.islice(itertools.compress(pairs.names(), bad.tolist()), 6))
        raise ValueError(f"{count} of {bad.size} region pairs have {fault}, "
                         f"among them {reprlib.repr(first)}")


@dataclass(frozen=True)
class CorrelationResult:
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

    return RegionPairs(tuple(regions), first, second, upper_triangle(sim), upper_triangle(dist))


def _pair_table(values: np.ndarray, pair_index: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The symmetric R x R matrix, flattened, with values[k] at (first[k], second[k]).

    Raises ValueError unless the pairs are every pair of R regions, once each.
    """
    import numpy as np
    first, second = (np.asarray(index) for index in pair_index)
    regions = (1 + math.isqrt(1 + 8 * values.size)) // 2  # R(R - 1)/2 <= n
    valid = (first.shape == second.shape == values.shape
             and first.dtype.kind in "iu" and second.dtype.kind in "iu"
             and min(first.min(), second.min()) >= 0
             and max(first.max(), second.max()) < regions)
    if valid:
        # n distinct pairs of two regions mark 2n cells; a repeated pair, or a
        # region paired with itself, marks fewer
        marks = np.zeros((regions, regions), dtype=bool)
        marks[first, second] = marks[second, first] = True
        valid = int(np.count_nonzero(marks)) == 2 * values.size
    if not valid:
        raise ValueError("pair_index must hold every pair of R regions once")
    table = np.zeros((regions, regions))
    table[first, second] = table[second, first] = values
    return table.ravel()


def _permutation_p(
    xc: np.ndarray,
    values: np.ndarray,
    denom: float,
    r_obs: float,
    permutations: int,
    seed: int,
    pair_index: tuple[np.ndarray, np.ndarray],
) -> CorrelationResult:
    """Two-sided Mantel test of the correlation of centred x and y.

    ``values`` is ``_pair_table`` of centred y, and a permutation p of the
    m = R region labels gives observation k the value at
    (p[first[k]], p[second[k]]).

    When m! is at most ``permutations``, every permutation is tested and
    p = hits / m!, exactly. Otherwise ``permutations`` are drawn and
    p = (1 + hits) / (1 + permutations). The identity permutation is a hit
    either way, so p is in (0, 1].
    """
    import numpy as np
    n = xc.size
    m = math.isqrt(values.size)
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
        second = gathered.view(np.intp)
        np.take(perms, pair_index[1], axis=1, out=second, mode="clip")
        perms *= m
        np.take(perms, pair_index[0], axis=1, out=index, mode="clip")
        index += second
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
    *,
    pair_index: tuple[np.ndarray, np.ndarray],
) -> CorrelationResult:
    """Sample Pearson correlation with a two-sided Mantel p-value.

    ``pair_index = (first, second)`` says that observation k belongs to the
    region pair (first[k], second[k]), as ``RegionPairs`` holds them; the
    pairs must be every pair of R regions once. The test permutes the R
    region labels of y, since pairs that share a region are not independent
    (Mantel 1967). When the labels have at most ``permutations``
    permutations, the test takes each one once and its p-value is exact.
    """
    import numpy as np
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
    return _permutation_p(xc, _pair_table(yc, pair_index), denom, r, permutations, seed,
                          pair_index)


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n; tied values share the mean of their rank positions."""
    import numpy as np
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
    *,
    pair_index: tuple[np.ndarray, np.ndarray],
) -> CorrelationResult:
    """Spearman rank correlation: pearson on average ranks, with the same draws.

    The ranks of permuted values are the permuted ranks, so the permutations
    reorder the ranks of y.
    """
    return pearson(_average_ranks(x), _average_ranks(y), permutations, seed,
                   pair_index=pair_index)


def fit_distance_decay(pairs: RegionPairs) -> LineFit:
    """OLS of ln(similarity) on ln(distance) over the region pairs."""
    _refuse(pairs, pairs.similarity <= 0.0, "a non-positive similarity, which has no log")
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 observations, got {len(pairs)}")
    return line_fit([math.log(d) for d in pairs.distance_m.tolist()],
                    [math.log(s) for s in pairs.similarity.tolist()])
