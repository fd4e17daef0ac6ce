"""Term-frequency distributions, frequency ranking, and the Zipf log-log fit."""

from __future__ import annotations

from collections import Counter
from math import log
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import RegionCorpus
from .errors import EmptyCorpusError
from .linfit import LineFit, line_fit


class RankedTerm(NamedTuple):
    term: str
    frequency: float
    rank: int


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


def rank_terms(counts: Mapping[str, int]) -> tuple[RankedTerm, ...]:
    """Terms by descending count, ranks 1..n; ties break lexicographically."""
    if not counts:
        raise EmptyCorpusError("empty frequency table")
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return tuple(
        RankedTerm(term=t, frequency=f, rank=i) for i, (t, f) in enumerate(ordered, start=1)
    )


def fit_zipf(ranked: Sequence[RankedTerm]) -> LineFit:
    """OLS of ln(frequency) on ln(rank) over the ranked terms."""
    if len(ranked) < 2:
        raise ValueError("degenerate regression: need at least 2 ranked terms")
    ln_r = [log(entry.rank) for entry in ranked]
    ln_f = [log(entry.frequency) for entry in ranked]
    return line_fit(ln_r, ln_f)
