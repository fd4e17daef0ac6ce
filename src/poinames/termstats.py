"""Term-frequency distributions, frequency ranking, and the Zipf log-log fit."""

from __future__ import annotations

from collections import Counter
from math import log
from typing import Iterable, Mapping, Sequence

from .corpus import RegionCorpus
from .errors import EmptyCorpusError
from .linfit import LineFit, line_fit


def term_frequencies(corpora: Iterable[RegionCorpus]) -> dict[str, int]:
    """Count every token occurrence across all documents of all corpora."""
    counts: Counter[str] = Counter()
    n_docs = 0
    for corpus in corpora:
        n_docs += len(corpus.documents)
        counts.update(corpus.counts)
    if n_docs == 0 or not counts:
        raise EmptyCorpusError("empty corpus")
    return dict(counts)


def rank_terms(counts: Mapping[str, int]) -> list[tuple[str, int]]:
    """(term, count) pairs by descending count, ties in term order; rank i is at index i - 1."""
    if not counts:
        raise EmptyCorpusError("empty frequency table")
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def fit_zipf(ranked: Sequence[tuple[str, float]]) -> LineFit:
    """OLS of ln(frequency) on ln(rank) over ranked (term, frequency) pairs, rank 1 first."""
    if len(ranked) < 2:
        raise ValueError("degenerate regression: need at least 2 ranked terms")
    ln_r = [log(rank) for rank in range(1, len(ranked) + 1)]
    ln_f = [log(frequency) for _, frequency in ranked]
    return line_fit(ln_r, ln_f)
