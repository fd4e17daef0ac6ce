import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from poinames import analysis
from poinames.analysis import (
    PairObservation,
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


class TestPairObservations:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 3), (7, 21)])
    def test_pair_counts(self, n, expected):
        obs = pair_observations(*matrices(n))
        assert len(obs) == expected

    def test_lexicographic_order(self):
        obs = pair_observations(*matrices(4))
        pairs = [(o.region_a, o.region_b) for o in obs]
        assert pairs == sorted(pairs)
        assert all(o.region_a < o.region_b for o in obs)

    def test_values_match_matrices(self):
        sim, dist = matrices(3)
        for o in pair_observations(sim, dist):
            i = sim.regions.index(o.region_a)
            j = sim.regions.index(o.region_b)
            assert o.similarity == sim.values[i, j]
            assert o.distance_m == dist.values[i, j]

    def test_mismatched_regions(self):
        sim, _ = matrices(3)
        _, dist = matrices(4)
        with pytest.raises(ValueError, match="mismatched region sets"):
            pair_observations(sim, dist)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            PairObservation("a", "b", similarity=0.5, distance_m=0.0)


class TestPearson:
    def test_perfect_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]).coefficient == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [-v for v in x]).coefficient == pytest.approx(-1.0, abs=1e-12)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            got = pearson(x, y, p_method="t_approx")
            ref_r, _ = stats.pearsonr(x, y)
            assert got.coefficient == pytest.approx(float(ref_r), rel=1e-12, abs=1e-12)

    def test_t_approx_p_matches_reference(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=21)
        y = 0.5 * x + rng.normal(size=21)
        got = pearson(x, y, p_method="t_approx")
        _, ref_p = stats.pearsonr(x, y)
        assert got.p_value == pytest.approx(float(ref_p), rel=1e-9)

    def test_scale_shift_invariance(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        base = pearson(x, y, p_method="t_approx").coefficient
        for a, b in [(2.5, 1.0), (-3.0, 4.0), (0.001, -7.0)]:
            r = pearson(a * x + b, y, p_method="t_approx").coefficient
            assert r == pytest.approx(math.copysign(1.0, a) * base, rel=1e-12, abs=1e-12)

    def test_permutation_p_is_deterministic(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=21)
        y = -0.4 * x + rng.normal(size=21)
        first = pearson(x, y, permutations=2000, seed=5)
        second = pearson(x, y, permutations=2000, seed=5)
        assert first.p_value == second.p_value
        assert 0.0 < first.p_value <= 1.0

    def test_permutation_p_detects_strong_correlation(self):
        x = np.arange(21.0)
        y = -x + 0.01 * np.sin(x)
        result = pearson(x, y, permutations=20000, seed=1)
        assert result.p_value < 0.001

    def test_permutation_blocks_match_whole_matrix(self, monkeypatch):
        rng = np.random.default_rng(45)
        x = rng.normal(size=30)
        y = 0.1 * x + rng.normal(size=30)
        permutations = 2 * analysis.PERMUTATION_BLOCK + 357
        # reference: every permutation drawn at once as one matrix
        xc, yc = x - x.mean(), y - y.mean()
        whole = np.random.default_rng(9).permuted(np.tile(yc, (permutations, 1)), axis=1)
        r_perm = (whole @ xc) / math.sqrt(float(np.sum(xc * xc)) * float(np.sum(yc * yc)))
        # cell budgets giving 1024-row blocks, 7-row blocks and (below one
        # row of 30 pairs) 1-row blocks
        for cells in (analysis.PERMUTATION_CELLS, 7 * 30 + 29, 29):
            monkeypatch.setattr(analysis, "PERMUTATION_CELLS", cells)
            result = pearson(x, y, permutations=permutations, seed=9)
            hits = int(np.count_nonzero(np.abs(r_perm) >= abs(result.coefficient) - 1e-12))
            assert 0 < hits < permutations
            assert result.p_value == (1 + hits) / (1 + permutations)

    def test_permutation_memory_is_one_block(self):
        # 1,225 pairs (50 regions) fill one block of PERMUTATION_BLOCK rows
        rng = np.random.default_rng(46)
        x, y = rng.normal(size=1225), rng.normal(size=1225)
        block_bytes = analysis.PERMUTATION_BLOCK * x.size * x.itemsize
        tracemalloc.start()
        try:
            pearson(x, y, permutations=3 * analysis.PERMUTATION_BLOCK, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * block_bytes, (peak, block_bytes)

    def test_degenerate_variance(self):
        with pytest.raises(ValueError, match="degenerate"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], p_method="t_approx")

    @pytest.mark.parametrize("correlate", [pearson, spearman])
    @pytest.mark.parametrize("permutations", [-5, -1, 0])
    def test_permutations_below_one_rejected(self, correlate, permutations):
        x, y = [1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0]
        with pytest.raises(ValueError, match="permutations must be at least 1"):
            correlate(x, y, permutations=permutations)
        # the t approximation draws no permutations
        assert 0.0 < correlate(x, y, p_method="t_approx", permutations=permutations).p_value <= 1.0

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0])


class TestStudentTTail:
    def test_matches_reference_tail(self):
        tiny = np.finfo(float).tiny
        for df in [*range(1, 60), 100, 500, 1223, 5000, 10**5, 10**6]:
            for t in np.linspace(0.0, 60.0, 241):
                got = analysis._t_two_sided_p(float(t), df)
                ref = 2.0 * float(stats.t.sf(t, df))
                assert 0.0 <= got <= 1.0
                if ref >= tiny:
                    assert abs(got - ref) <= 1e-10 * ref, (df, t, got, ref)
                else:
                    assert got < 1e-290, (df, t, got)

    @pytest.mark.parametrize("r", [0.0, 1e-12, 0.3, -0.7, 0.999999, 1.0 - 1e-15, 1.0, -1.0])
    @pytest.mark.parametrize("n", [3, 4, 25, 1225, 100_000])
    def test_p_in_unit_interval(self, r, n):
        p = analysis._t_approx_p(r, n)
        assert 0.0 < p <= 1.0


class TestSpearman:
    def test_monotone_increasing(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert spearman(x, [math.exp(v) for v in x], p_method="t_approx").coefficient == 1.0

    def test_monotone_decreasing(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert spearman(x, [1.0 / v for v in x], p_method="t_approx").coefficient == -1.0

    def test_ties_match_reference(self):
        cases = [
            ([1.0, 1.0, 2.0, 3.0], [4.0, 5.0, 5.0, 6.0]),
            ([1.0, 2.0, 2.0, 2.0, 3.0], [1.0, 3.0, 2.0, 3.0, 5.0]),
        ]
        for x, y in cases:
            got = spearman(x, y, p_method="t_approx").coefficient
            ref = stats.spearmanr(x, y).statistic
            assert got == pytest.approx(float(ref), rel=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(45)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        base = spearman(x, y, p_method="t_approx").coefficient
        transformed = spearman(np.exp(x), y, p_method="t_approx").coefficient
        assert transformed == base

    def test_random_against_reference(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            x = rng.normal(size=8)
            y = rng.normal(size=8)
            got = spearman(x, y, p_method="t_approx").coefficient
            ref = stats.spearmanr(x, y).statistic
            assert got == pytest.approx(float(ref), rel=1e-12)


def obs(pairs):
    return [
        PairObservation(f"a{i}", f"b{i}", similarity=s, distance_m=d)
        for i, (s, d) in enumerate(pairs)
    ]


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
