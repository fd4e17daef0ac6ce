"""Region-adapted TF-IDF, local-term extraction, and usage divergence.

The TF-IDF here treats each geographic region as one document: tf is the
term count inside the region and the IDF counts how many regions contain
the term. Two published IDF variants are supported, named as on the
command line:

  pure:      w = tf * ln(G / G_j)        terms in every region weigh zero
  plus-one:  w = tf * (ln(G / G_j) + 1)  ubiquitous terms keep their tf
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .corpus import RegionCorpus

IDF_VARIANTS = ("pure", "plus-one")


@dataclass
class UsageMatrix:
    """Names per (region, category) and how many contain a local term.

    Rows are the sorted regions and columns the sorted categories. Every
    cell holds at least one name, so each share hits / totals is defined.
    """

    regions: tuple[str, ...]
    categories: tuple[str, ...]
    hits: list[list[int]]
    totals: list[list[int]]

    def shares(self) -> list[list[float]]:
        return [[h / t for h, t in zip(hs, ts)] for hs, ts in zip(self.hits, self.totals)]


def geo_tfidf(
    corpora: Mapping[str, RegionCorpus], variant: str = "pure"
) -> dict[str, dict[str, float]]:
    """Weight each (region, term) pair by tf times the region-level IDF.

    Returns region -> term -> weight, regions in sorted order, with an entry
    for every term that occurs in the region (0.0 under the pure variant for
    a term in every region). tf is the raw token count within the region's
    documents; for local-term extraction the corpora should have been built
    with dedup=True so chain businesses do not inflate tf.
    """
    if variant not in IDF_VARIANTS:
        raise ValueError(f"unknown IDF variant {variant!r}; expected one of {IDF_VARIANTS}")
    if len(corpora) < 2:
        raise ValueError("geo-tfidf needs at least 2 regions")

    regions = sorted(corpora)
    doc_freq: Counter[str] = Counter()
    for region in regions:
        doc_freq.update(corpora[region].counts.keys())

    n_regions = len(regions)
    weights: dict[str, dict[str, float]] = {}
    for region in regions:
        row: dict[str, float] = {}
        for term, count in corpora[region].counts.items():
            idf = math.log(n_regions / doc_freq[term])
            if variant == "plus-one":
                idf += 1.0
            row[term] = count * idf
        weights[region] = row
    return weights


def top_local_terms(
    table: Mapping[str, Mapping[str, float]], k: int
) -> dict[str, list[tuple[str, float]]]:
    """Per region in sorted order, its k heaviest (term, weight) pairs, heaviest first.

    Equal weights go in term order; zero-weight terms never qualify.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return {
        region: sorted(((t, w) for t, w in table[region].items() if w > 0.0),
                       key=lambda pair: (-pair[1], pair[0]))[:k]
        for region in sorted(table)
    }


def usage_percentages(
    subsets: Mapping[tuple[str, str], Sequence[tuple[str, ...]]],
    local_terms: Mapping[str, Sequence[tuple[str, float]]],
) -> UsageMatrix:
    """Count the names per (region, category) containing any local term.

    ``subsets`` maps (region, category) to its documents, as typed_subsets
    returns them, and ``local_terms`` maps a region to its (term, weight)
    pairs. Containment is exact token membership, not substring match.
    Every (region, category) cell must have at least one name.
    """
    term_sets = {region: frozenset(t for t, _ in pairs) for region, pairs in local_terms.items()}
    cells: dict[tuple[str, str], tuple[int, int]] = {}
    for (region, category), documents in subsets.items():
        if region not in term_sets:
            raise ValueError(f"no local terms supplied for region {region!r}")
        terms = term_sets[region]
        hits = sum(1 for doc in documents if any(t in terms for t in doc))
        cells[(region, category)] = (hits, len(documents))
    regions = sorted({region for region, _ in cells})
    categories = sorted({category for _, category in cells})
    for r in regions:
        for c in categories:
            if cells.get((r, c), (0, 0))[1] == 0:
                raise ValueError(f"no names in region {r!r}, category {c!r}")
    return UsageMatrix(
        regions=tuple(regions),
        categories=tuple(categories),
        hits=[[cells[(r, c)][0] for c in categories] for r in regions],
        totals=[[cells[(r, c)][1] for c in categories] for r in regions],
    )


def _check_distributions(rows: Sequence[Sequence[float]]) -> None:
    for i, p in enumerate(rows):
        if len(p) != len(rows[0]):
            raise ValueError("distributions must have the same support size")
        if any(v < 0 for v in p):
            raise ValueError(f"distribution {i} has negative entries")
        total = math.fsum(p)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"distribution {i} sums to {total!r}, expected 1")


def _jsd_nats(p: Sequence[float], q: Sequence[float]) -> float:
    """(KL(p || M) + KL(q || M)) / 2 with M = (p + q) / 2, each KL term as p * ln(2p / (p + q)).

    M is never formed, so a subnormal p cannot round it to zero; for normal
    floats 2p and (p + q) / 2 are exact and the terms equal p * ln(p / M).
    """
    kl = [math.fsum(a * math.log(2.0 * a / (a + b)) for a, b in zip(x, y) if a != 0.0)
          for x, y in ((p, q), (q, p))]
    # for rows a rounding apart the halves can sum to -2.8e-17; a divergence is never below 0
    return max(0.0, 0.5 * kl[0] + 0.5 * kl[1])


def mean_pairwise_jsd(distributions: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Average Jensen-Shannon divergence over all unordered pairs of probability rows.

    Returns the mean in nats and in bits. Each divergence is taken against
    the mixture M = (p + q) / 2, so it is finite, symmetric and at most
    ln 2 nats (1 bit).
    """
    if len(distributions) < 2:
        raise ValueError("need at least 2 distributions")
    _check_distributions(distributions)
    nats = bits = 0.0  # added with +=, as sum() is compensated from Python 3.12
    for p, q in combinations(distributions, 2):
        value = _jsd_nats(p, q)
        nats += value
        bits += value / math.log(2.0)
    pairs = math.comb(len(distributions), 2)
    return nats / pairs, bits / pairs


def usage_distributions(regions: Sequence[str], shares: list[list[float]]) -> list[list[float]]:
    """Each region's row of usage shares scaled to sum to one, in the given order."""
    rows = []
    for region, row in zip(regions, shares):
        total = math.fsum(row)
        if total == 0.0:
            raise ValueError(
                f"cannot normalize zero vector: region {region!r} uses no local term"
            )
        rows.append([v / total for v in row])
    return rows
