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

from .corpus import RegionCorpus, TypedSubset

IDF_VARIANTS = ("pure", "plus-one")


@dataclass
class GeoTfidfTable:
    """Per-region, per-term weights over the regions of a corpus.

    weights holds an entry for every term that occurs in a region (weight
    may be 0.0 under the pure variant); absent terms weigh zero.
    """

    weights: dict[str, dict[str, float]]
    regions: tuple[str, ...]

    def weight(self, region_id: str, term: str) -> float:
        if region_id not in self.weights:
            raise KeyError(f"region {region_id!r} not in table")
        return self.weights[region_id].get(term, 0.0)


@dataclass(frozen=True)
class LocalTermSet:
    """Top local terms of one region, heaviest first."""

    region_id: str
    terms: tuple[str, ...]
    weights: tuple[float, ...]


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
) -> GeoTfidfTable:
    """Weight each (region, term) pair by tf times the region-level IDF.

    tf is the raw token count within the region's documents; for local-term
    extraction the corpora should have been built with dedup=True so chain
    businesses do not inflate tf.
    """
    if variant not in IDF_VARIANTS:
        raise ValueError(f"unknown IDF variant {variant!r}; expected one of {IDF_VARIANTS}")
    if len(corpora) < 2:
        raise ValueError("geo-tfidf needs at least 2 regions")

    regions = tuple(sorted(corpora))
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

    return GeoTfidfTable(weights=weights, regions=regions)


def top_local_terms(table: GeoTfidfTable, k: int) -> dict[str, LocalTermSet]:
    """Per region, the k heaviest terms; zero-weight terms never qualify."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out: dict[str, LocalTermSet] = {}
    for region in table.regions:
        scored = sorted(
            ((w, t) for t, w in table.weights[region].items() if w > 0.0),
            key=lambda pair: (-pair[0], pair[1]),
        )[:k]
        out[region] = LocalTermSet(
            region_id=region,
            terms=tuple(t for _, t in scored),
            weights=tuple(w for w, _ in scored),
        )
    return out


def usage_percentages(
    subsets: Sequence[TypedSubset], local_terms: Mapping[str, LocalTermSet]
) -> UsageMatrix:
    """Count the names per (region, category) containing any local term.

    Containment is exact token membership, not substring match. Every
    (region, category) cell must have a subset with at least one name.
    """
    term_sets = {region: frozenset(ts.terms) for region, ts in local_terms.items()}
    cells: dict[tuple[str, str], tuple[int, int]] = {}
    for subset in subsets:
        if subset.region_id not in term_sets:
            raise ValueError(f"no local terms supplied for region {subset.region_id!r}")
        terms = term_sets[subset.region_id]
        hits = sum(1 for doc in subset.documents if any(t in terms for t in doc))
        cells[(subset.region_id, subset.category)] = (hits, len(subset.documents))
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


def _check_distribution(p: Sequence[float], label: str) -> None:
    if any(v < 0 for v in p):
        raise ValueError(f"{label} has negative entries")
    total = math.fsum(p)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{label} sums to {total!r}, expected 1")


def _kld_to_mixture(p: Sequence[float], q: Sequence[float]) -> float:
    """KL(p || M) with M = (p + q) / 2, each term as p * ln(2p / (p + q)).

    M is never formed, so a subnormal p cannot round it to zero; for normal
    floats 2p and (p + q) / 2 are exact and the terms equal p * ln(p / M).
    """
    return math.fsum(pi * math.log(2.0 * pi / (pi + qi)) for pi, qi in zip(p, q) if pi != 0.0)


def jsd(p: Sequence[float], q: Sequence[float], base: float = math.e) -> float:
    """Jensen-Shannon divergence of two probability vectors.

    Uses the mixture M = (p + q) / 2, so the value is finite, symmetric,
    and bounded by ln 2 in nats (1.0 with base=2).
    """
    if len(p) != len(q):
        raise ValueError("distributions must have the same support size")
    _check_distribution(p, "p")
    _check_distribution(q, "q")
    value = 0.5 * _kld_to_mixture(p, q) + 0.5 * _kld_to_mixture(q, p)
    if base != math.e:
        value /= math.log(base)
    return value


def mean_pairwise_jsd(
    distributions: Sequence[Sequence[float]], base: float = math.e
) -> float:
    """Average JSD over all unordered pairs of probability rows."""
    if len(distributions) < 2:
        raise ValueError("need at least 2 distributions")
    pairs = list(combinations(distributions, 2))
    total = 0.0
    for p, q in pairs:
        total += jsd(p, q, base=base)
    return total / len(pairs)


def usage_distributions(matrix: UsageMatrix) -> list[list[float]]:
    """Each region's usage shares scaled to sum to one, in matrix order."""
    rows = []
    for region, shares in zip(matrix.regions, matrix.shares()):
        total = math.fsum(shares)
        if total == 0.0:
            raise ValueError(
                f"cannot normalize zero vector: region {region!r} uses no local term"
            )
        rows.append([v / total for v in shares])
    return rows
