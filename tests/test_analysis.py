import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from poinames import analysis
from poinames.analysis import (
    RegionPairs,
    fit_distance_decay,
    pair_observations,
    pearson,
    spearman,
)
from poinames.regionvec import RegionMatrix


def matrices(n, seed=0):
    rng = np.random.default_rng(seed)
    regions = tuple(f"r{i}" for i in range(n))
    sim = np.eye(n)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            sim[i, j] = sim[j, i] = rng.uniform(0.1, 0.9)
            dist[i, j] = dist[j, i] = rng.uniform(1e4, 5e6)
    return (
        RegionMatrix(regions=regions, values=sim),
        RegionMatrix(regions=regions, values=dist),
    )


def correlated(n, r, seed=0):
    """Normal x and a y whose sample correlation with x is r."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    xc = x - x.mean()
    z = rng.normal(size=n)
    z -= z.mean()
    z -= (z @ xc) / (xc @ xc) * xc
    return x, r * xc / np.linalg.norm(xc) + math.sqrt(1.0 - r * r) * z / np.linalg.norm(z)


def every_pair(n):
    """``pair_index`` for n observations: every pair of the R regions with R(R - 1)/2 = n."""
    regions = (1 + math.isqrt(1 + 8 * n)) // 2
    assert regions * (regions - 1) // 2 == n, n
    return np.triu_indices(regions, 1)


class TestPairObservations:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 3), (7, 21)])
    def test_pair_counts(self, n, expected):
        obs = pair_observations(*matrices(n))
        assert len(obs) == expected

    def test_lexicographic_order(self):
        obs = pair_observations(*matrices(4))
        pairs = list(obs.names())
        assert pairs == sorted(pairs)
        assert all(a < b for a, b in pairs)

    def test_values_match_matrices(self):
        sim, dist = matrices(3)
        obs = pair_observations(sim, dist)
        for (a, b), s, d in zip(obs.names(), obs.similarity, obs.distance_m):
            i = sim.regions.index(a)
            j = sim.regions.index(b)
            assert s == sim.values[i, j]
            assert d == dist.values[i, j]

    def test_each_matrix_is_read_in_its_own_region_order(self):
        regions = ("c", "a", "b")
        sim = RegionMatrix(regions, np.array([[1.0, 0.2, 0.3], [0.2, 1.0, 0.4], [0.3, 0.4, 1.0]]))
        dist_regions = ("b", "c", "a")
        dist = RegionMatrix(dist_regions, np.array([[0.0, 7e5, 6e5], [7e5, 0.0, 5e5],
                                                    [6e5, 5e5, 0.0]]))
        obs = pair_observations(sim, dist)
        assert obs.regions == ("a", "b", "c")
        assert list(obs.names()) == [("a", "b"), ("a", "c"), ("b", "c")]
        # (a, b) is sim[1, 2] and dist[2, 0]; (a, c) sim[1, 0], dist[2, 1]; (b, c) sim[2, 0], dist[0, 1]
        assert obs.similarity.tolist() == [0.4, 0.2, 0.3]
        assert obs.distance_m.tolist() == [6e5, 5e5, 7e5]

    def test_mismatched_regions(self):
        sim, _ = matrices(3)
        _, dist = matrices(4)
        with pytest.raises(ValueError, match="mismatched region sets"):
            pair_observations(sim, dist)

    def test_zero_distance_rejected(self):
        sim, dist = matrices(3)
        dist.values[0, 2] = dist.values[2, 0] = 0.0
        with pytest.raises(ValueError, match="non-positive"):
            pair_observations(sim, dist)


class TestPearson:
    def test_perfect_linear(self):
        x = [1.0, 2.0, 3.0]
        result = pearson(x, [2 * v + 1 for v in x], pair_index=every_pair(3))
        assert result.coefficient == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0]
        result = pearson(x, [-v for v in x], pair_index=every_pair(3))
        assert result.coefficient == pytest.approx(-1.0, abs=1e-12)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            got = pearson(x, y, permutations=1, pair_index=every_pair(10))
            ref_r, _ = stats.pearsonr(x, y)
            assert got.coefficient == pytest.approx(float(ref_r), rel=1e-12, abs=1e-12)

    def test_scale_shift_invariance(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        base = pearson(x, y, permutations=1, pair_index=every_pair(15)).coefficient
        for a, b in [(2.5, 1.0), (-3.0, 4.0), (0.001, -7.0)]:
            r = pearson(a * x + b, y, permutations=1, pair_index=every_pair(15)).coefficient
            assert r == pytest.approx(math.copysign(1.0, a) * base, rel=1e-12, abs=1e-12)

    def test_permutation_p_is_deterministic(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=21)
        y = -0.4 * x + rng.normal(size=21)
        first = pearson(x, y, permutations=2000, seed=5, pair_index=every_pair(21))
        second = pearson(x, y, permutations=2000, seed=5, pair_index=every_pair(21))
        assert first.p_value == second.p_value
        assert 0.0 < first.p_value <= 1.0

    def test_permutation_p_detects_strong_correlation(self):
        x = np.arange(21.0)
        y = -x + 0.01 * np.sin(x)
        result = pearson(x, y, permutations=20000, seed=1, pair_index=every_pair(21))
        assert result.p_value < 0.001

    def test_degenerate_variance(self):
        with pytest.raises(ValueError, match="degenerate"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], permutations=1, pair_index=every_pair(3))

    @pytest.mark.parametrize("correlate", [pearson, spearman])
    @pytest.mark.parametrize("permutations", [-5, -1, 0])
    def test_permutations_below_one_rejected(self, correlate, permutations):
        x, y = [1.0, 2.0, 3.0], [2.0, 1.0, 3.0]
        with pytest.raises(ValueError, match="permutations must be at least 1"):
            correlate(x, y, permutations=permutations, pair_index=every_pair(3))

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="need at least 3 observations, got 2"):
            pearson([1.0, 2.0], [1.0, 2.0], pair_index=(np.array([0, 0]), np.array([1, 2])))

    @pytest.mark.parametrize("correlate", [pearson, spearman])
    def test_pair_index_is_required(self, correlate):
        with pytest.raises(TypeError, match="pair_index"):
            correlate([1.0, 2.0, 3.0], [2.0, 1.0, 3.0], 10, 0)

    @pytest.mark.parametrize("correlate", [pearson, spearman])
    def test_unequal_lengths_rejected(self, correlate):
        with pytest.raises(ValueError, match="x and y must have equal length"):
            correlate([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0], pair_index=every_pair(3))


def region_effect_null(regions, trial):
    """Distance and similarity per region pair, unrelated but for shared regions.

    Regions sit at Cauchy-distributed points, so a few are remote from all
    others, and each region adds its own effect to the similarity of every
    pair it is in. Pairs that share a region are thus correlated in both.
    """
    rng = np.random.default_rng(trial)
    first, second = np.triu_indices(regions, 1)
    points = rng.standard_cauchy(size=(regions, 2))
    distance = np.hypot(*(points[first] - points[second]).T)
    effect = rng.normal(size=regions)
    similarity = effect[first] + effect[second] + 0.5 * rng.normal(size=first.size)
    return distance, similarity, (first, second)


def brute_force_p(x, y, pair_index, correlate):
    """The exact two-sided p-value over every permutation of the region labels."""
    first, second = pair_index
    regions = int(second.max()) + 1
    table = np.zeros((regions, regions))
    table[first, second] = table[second, first] = y
    observed = abs(correlate(x, y)) - 1e-12
    perms = list(itertools.permutations(range(regions)))
    hits = sum(abs(correlate(x, table[np.array(p)[first], np.array(p)[second]])) >= observed
               for p in perms)
    return hits / len(perms)


class TestMantel:
    """pearson and spearman permute region labels."""

    def test_calibrated_on_the_region_effect_null(self):
        # Measured on this null at 10 regions, 499 permutations and alpha
        # 0.05: the label test rejected 95 of 2,000 trials (0.048). A test
        # that permutes the pair values instead rejected 714 (0.36), which
        # is why the labels are permuted. The bound, 20 of 200, is the 0.999
        # quantile of Binomial(200, 0.05).
        trials, bound = 200, 20
        rejected = {"pearson": 0, "spearman": 0}
        for trial in range(trials):
            x, y, pair_index = region_effect_null(10, trial)
            for name, correlate in (("pearson", pearson), ("spearman", spearman)):
                p = correlate(x, y, 499, trial, pair_index=pair_index).p_value
                rejected[name] += p <= 0.05
        assert rejected["pearson"] <= bound and rejected["spearman"] <= bound, rejected

    @pytest.mark.parametrize("regions", [4, 5])
    @pytest.mark.parametrize("correlate,statistic", [
        (pearson, lambda x, y: np.corrcoef(x, y)[0, 1]),
        (spearman, lambda x, y: stats.spearmanr(x, y).statistic),
    ], ids=["pearson", "spearman"])
    def test_exact_p_equals_brute_force_enumeration(self, regions, correlate, statistic):
        x, y, pair_index = region_effect_null(regions, regions)
        count = math.factorial(regions)
        result = correlate(x, y, count, 0, pair_index=pair_index)
        assert (result.exact, result.permutations) == (True, count)
        assert result.p_value == brute_force_p(x, y, pair_index, statistic)
        # one permutation fewer than there are, and they are drawn at random
        drawn = correlate(x, y, count - 1, 0, pair_index=pair_index)
        assert (drawn.exact, drawn.permutations) == (False, count - 1)

    @pytest.mark.parametrize("regions,permutations", [(10, 2 * 1024 + 357), (6, 720)],
                             ids=["drawn", "exact"])
    def test_blocks_of_1024_7_and_1_rows_give_one_p_value(self, monkeypatch, regions,
                                                          permutations):
        x, y, pair_index = region_effect_null(regions, 3)
        first, second = pair_index
        if permutations < math.factorial(regions):
            # reference: every label permutation drawn at once as one matrix
            whole = np.random.default_rng(9).permuted(
                np.tile(np.arange(regions), (permutations, 1)), axis=1)
            table = np.zeros((regions, regions))
            table[first, second] = table[second, first] = y
            r_perm = [np.corrcoef(x, table[p[first], p[second]])[0, 1] for p in whole]
            hits = int(np.count_nonzero(np.abs(r_perm) >= abs(np.corrcoef(x, y)[0, 1]) - 1e-12))
            expected = (1 + hits) / (1 + permutations)
        else:
            expected = brute_force_p(x, y, pair_index, lambda a, b: np.corrcoef(a, b)[0, 1])
        assert 0.01 < expected < 0.99
        # a block row holds the labels, the pair index and the gathered values
        cells = regions + 2 * len(x)
        # so that PERMUTATION_CELLS alone sets the rows of a block
        monkeypatch.setattr(analysis, "PERMUTATION_BLOCK", 1024 * cells)
        for budget in (1024 * cells, 7 * cells + cells - 1, cells - 1):
            monkeypatch.setattr(analysis, "PERMUTATION_CELLS", budget)
            assert pearson(x, y, permutations, 9, pair_index=pair_index).p_value == expected

    def test_memory_is_one_block(self):
        # 1,225 pairs (50 regions) fill one block of PERMUTATION_BLOCK rows
        x, y, pair_index = region_effect_null(50, 1)
        block_bytes = analysis.PERMUTATION_BLOCK * x.size * x.itemsize
        tracemalloc.start()
        try:
            pearson(x, y, permutations=3 * analysis.PERMUTATION_BLOCK, seed=1,
                    pair_index=pair_index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * block_bytes, (peak, block_bytes)

    @pytest.mark.parametrize("pair_index", [
        (np.array([0, 0, 1, 0]), np.array([1, 2, 2, 3])),   # 4 pairs are all pairs of no R
        (np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 1])),  # (1, 2) twice, no (2, 3)
        (np.array([0, 0, 1]), np.array([0, 2, 2])),         # region 0 paired with itself
        (np.array([0, 0, 1]), np.array([1, 3, 2])),         # region 3 of 3
        (np.array([0, 0, 1]), np.array([1, -1, 2])),        # a negative label
        (np.array([0, 0, 1]), np.array([1, 2, 2])[None]),   # another shape
        (np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 2.0])),
    ], ids=["not-triangular", "repeated", "self-pair", "out-of-range", "negative", "shape",
            "float"])
    def test_pair_index_must_hold_every_pair_once(self, pair_index):
        x = np.arange(1.0, 1.0 + pair_index[0].size)
        with pytest.raises(ValueError, match="every pair of R regions once"):
            pearson(x, x[::-1], 10, pair_index=pair_index)


class TestStudentTTail:
    """The p-value at edge correlations, over the pairs of 3 to 448 regions."""

    @pytest.mark.parametrize("r", [0.0, 1e-12, 0.3, -0.7, 0.999999, 1.0 - 1e-15, 1.0, -1.0])
    @pytest.mark.parametrize("n", [3, 4, 25, 1225, 100_000])
    def test_p_in_unit_interval(self, r, n):
        # the pairs of the fewest regions that have at least n pairs:
        # 3, 6, 28, 1,225 and 100,128
        regions = next(k for k in itertools.count(3) if k * (k - 1) // 2 >= n)
        x, y = correlated(regions * (regions - 1) // 2, r)
        result = pearson(x, y, permutations=99, seed=n, pair_index=np.triu_indices(regions, 1))
        assert result.coefficient == pytest.approx(r, abs=1e-9)
        assert 1.0 / 100 <= result.p_value <= 1.0


class TestSpearman:
    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="need at least 3 observations, got 2"):
            spearman([1.0, 2.0], [1.0, 2.0], pair_index=(np.array([0, 0]), np.array([1, 2])))

    def test_monotone_increasing(self):
        x = [1.0, 2.0, 5.0]
        result = spearman(x, [math.exp(v) for v in x], permutations=1, pair_index=every_pair(3))
        assert result.coefficient == 1.0

    def test_monotone_decreasing(self):
        x = [1.0, 2.0, 5.0]
        result = spearman(x, [1.0 / v for v in x], permutations=1, pair_index=every_pair(3))
        assert result.coefficient == -1.0

    def test_ties_match_reference(self):
        cases = [
            ([1.0, 1.0, 2.0], [4.0, 5.0, 5.0]),
            ([1.0, 2.0, 2.0, 2.0, 3.0, 3.0], [1.0, 3.0, 2.0, 3.0, 5.0, 4.0]),
        ]
        for x, y in cases:
            got = spearman(x, y, permutations=1, pair_index=every_pair(len(x))).coefficient
            ref = stats.spearmanr(x, y).statistic
            assert got == pytest.approx(float(ref), rel=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(45)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        base = spearman(x, y, permutations=1, pair_index=every_pair(10)).coefficient
        transformed = spearman(np.exp(x), y, permutations=1, pair_index=every_pair(10)).coefficient
        assert transformed == base

    def test_random_against_reference(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            got = spearman(x, y, permutations=1, pair_index=every_pair(10)).coefficient
            ref = stats.spearmanr(x, y).statistic
            assert got == pytest.approx(float(ref), rel=1e-12)

    # 3 pairs, then the region pairs of 10 and of 50 regions
    @pytest.mark.parametrize("n", [3, 45, 1225])
    def test_is_pearson_on_average_ranks(self, n):
        rng = np.random.default_rng(n)
        # few distinct values, so most hold ties, with -0.0 beside 0.0
        values = np.array([-1.5, -0.0, 0.0, 0.0, 2.0, 7.25])
        x, y = rng.choice(values, n), rng.choice(values, n)
        x[:3], y[:3] = [-0.0, 0.0, 2.0], [7.25, -0.0, -0.0]  # x and y vary even at n = 3
        got = spearman(x, y, permutations=999, seed=n, pair_index=every_pair(n))
        ref = pearson(analysis._average_ranks(x), analysis._average_ranks(y), 999, n,
                      pair_index=every_pair(n))
        assert got.coefficient.hex() == ref.coefficient.hex()
        assert got.p_value.hex() == ref.p_value.hex()

    # few distinct values, so most draws hold ties, and -0.0 next to 0.0
    @given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0, 1e300]), max_size=40)
           | st.lists(st.floats(allow_nan=False), max_size=40))
    def test_average_ranks_equal_rankdata(self, values):
        ranks = analysis._average_ranks(np.array(values, dtype=np.float64))
        assert ranks.dtype == np.float64
        assert ranks.tobytes() == stats.rankdata(values).astype(np.float64).tobytes()


def obs(pairs):
    """Pair i joins regions a<i> and b<i>, with the given similarity and distance."""
    regions = tuple(label for i in range(len(pairs)) for label in (f"a{i}", f"b{i}"))
    first = np.arange(0, len(regions), 2)
    similarity, distance_m = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    return RegionPairs(regions, first, first + 1, similarity, distance_m)


class TestFitDistanceDecay:
    def test_exact_power_law(self):
        distances = [1e4, 5e4, 1e5, 7e5, 3e6]
        data = obs([(3.0 * d ** (-0.09), d) for d in distances])
        fit = fit_distance_decay(data)
        assert fit.slope == pytest.approx(-0.09, abs=1e-9)
        assert math.exp(fit.intercept) == pytest.approx(3.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_constant_similarity(self):
        data = obs([(0.5, d) for d in (1e4, 2e4, 3e4)])
        fit = fit_distance_decay(data)
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0

    def test_non_positive_similarity_lists_offenders(self):
        data = obs([(0.5, 1e4), (0.0, 2e4), (0.3, 3e4)])
        with pytest.raises(ValueError, match="a1"):
            fit_distance_decay(data)

    def test_many_offenders_give_a_short_message_with_their_count(self):
        # 400 regions, and every pair with an odd-numbered region has a negative cosine
        n = 400
        sim = np.ones((n, n))
        sim[1::2, :] = sim[:, 1::2] = -0.5
        dist = np.full((n, n), 1e5)
        regions = tuple(f"region {i:03d}" for i in range(n))
        pairs = pair_observations(RegionMatrix(regions, sim), RegionMatrix(regions, dist))
        offenders = n * (n - 1) // 2 - (n // 2) * (n // 2 - 1) // 2
        with pytest.raises(ValueError) as exc:
            fit_distance_decay(pairs)
        message = str(exc.value)
        assert f"{offenders} of {len(pairs)} region pairs" in message
        assert "('region 000', 'region 001')" in message
        assert len(message) < 1024

    def test_needs_three(self):
        with pytest.raises(ValueError):
            fit_distance_decay(obs([(0.5, 1e4), (0.4, 2e4)]))

    def test_matches_reference_ols(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(3, 26))
            d = rng.uniform(1e4, 5e6, size=n)
            s = np.exp(rng.uniform(-3.0, -0.1, size=n))
            fit = fit_distance_decay(obs(list(zip(s, d))))
            ref = stats.linregress(np.log(d), np.log(s))
            assert fit.slope == pytest.approx(ref.slope, rel=1e-12, abs=1e-12)
            assert fit.intercept == pytest.approx(ref.intercept, rel=1e-12, abs=1e-12)
            assert fit.r_squared == pytest.approx(ref.rvalue**2, rel=1e-10, abs=1e-12)
