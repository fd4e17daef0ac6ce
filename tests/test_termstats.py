import math

import numpy as np
import pytest
from scipy import stats

from poinames.errors import EmptyCorpusError
from poinames.termstats import (
    RankedTerm,
    fit_zipf,
    rank_terms,
    term_frequencies,
)

from conftest import corpora_from


def ranked(pairs):
    return tuple(
        RankedTerm(term=t, frequency=f, rank=i) for i, (t, f) in enumerate(pairs, start=1)
    )


class TestTermFrequencies:
    def test_counts_every_occurrence(self):
        corpora = corpora_from({"a": ["pizza pizza"], "b": ["pizza bar"]})
        assert term_frequencies(corpora.values()) == {"pizza": 3, "bar": 1}

    def test_single_doc(self):
        corpora = corpora_from({"a": ["the"]})
        assert term_frequencies(corpora.values()) == {"the": 1}

    def test_empty(self):
        with pytest.raises(EmptyCorpusError):
            term_frequencies([])


class TestRankTerms:
    def test_tie_break_lexicographic(self):
        assert rank_terms({"b": 3, "a": 3, "c": 1}) == (
            RankedTerm("a", 3, 1), RankedTerm("b", 3, 2), RankedTerm("c", 1, 3),
        )

    def test_single(self):
        assert rank_terms({"x": 5}) == (RankedTerm("x", 5, 1),)

    def test_descending(self):
        assert rank_terms({"p": 1, "q": 2}) == (RankedTerm("q", 2, 1), RankedTerm("p", 1, 2))

    def test_monotone_and_consecutive(self, records):
        from poinames.corpus import partition_by_region
        table = term_frequencies(partition_by_region(records, dedup=False).values())
        entries = rank_terms(table)
        assert [e.rank for e in entries] == list(range(1, len(entries) + 1))
        assert all(entries[i].frequency >= entries[i + 1].frequency for i in range(len(entries) - 1))


class TestFitZipf:
    def test_exact_power_law(self):
        fit = fit_zipf(ranked((f"t{r}", 1000.0 / r) for r in range(1, 101)))
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(1000.0), abs=1e-9)

    def test_constant_frequencies(self):
        fit = fit_zipf(ranked((f"t{r}", 5) for r in range(1, 11)))
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_zipf(ranked([("x", 5)]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        freqs = sorted(rng.integers(1, 5000, size=40), reverse=True)
        base = fit_zipf(ranked((f"t{i}", int(f)) for i, f in enumerate(freqs)))
        scaled = fit_zipf(ranked((f"t{i}", 13 * int(f)) for i, f in enumerate(freqs)))
        assert scaled.slope == pytest.approx(base.slope, rel=1e-12, abs=1e-12)
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-12, abs=1e-12)
        assert scaled.intercept == pytest.approx(base.intercept + math.log(13), rel=1e-12)

    def test_against_independent_least_squares(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(3, 11))
            freqs = np.sort(rng.uniform(1.0, 1e4, size=n))[::-1]
            fit = fit_zipf(ranked((f"t{i}", float(f)) for i, f in enumerate(freqs)))
            x = np.log(np.arange(1, n + 1))
            y = np.log(freqs)
            ref = stats.linregress(x, y)
            assert fit.slope == pytest.approx(ref.slope, rel=1e-12, abs=1e-12)
            assert fit.intercept == pytest.approx(ref.intercept, rel=1e-12, abs=1e-12)
            assert fit.r_squared == pytest.approx(ref.rvalue**2, rel=1e-10, abs=1e-12)
