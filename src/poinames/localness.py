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
    """Fraction of POI names per (region, category) containing a local term."""

    regions: tuple[str, ...]
    categories: tuple[str, ...]
    values: dict[tuple[str, str], float]
    counts: dict[tuple[str, str], tuple[int, int]]


@dataclass(frozen=True)
class UsageDistribution:
    """Usage percentages of one region normalized to a probability vector."""

    region_id: str
    probabilities: Mapping[str, float]


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
    """Fraction of names per (region, category) containing any local term.

    Containment is exact token membership, not substring match. Subsets
    with no documents count (0, 0) and carry no value.
    """
    term_sets = {region: frozenset(ts.terms) for region, ts in local_terms.items()}
    values: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], tuple[int, int]] = {}
    regions: list[str] = []
    categories: list[str] = []
    for subset in subsets:
        if subset.region_id not in term_sets:
            raise ValueError(f"no local terms supplied for region {subset.region_id!r}")
        key = (subset.region_id, subset.category)
        if subset.region_id not in regions:
            regions.append(subset.region_id)
        if subset.category not in categories:
            categories.append(subset.category)
        total = len(subset.documents)
        if total == 0:
            counts[key] = (0, 0)
            continue
        terms = term_sets[subset.region_id]
        hits = sum(1 for doc in subset.documents if any(t in terms for t in doc))
        counts[key] = (hits, total)
        values[key] = hits / total
    return UsageMatrix(
        regions=tuple(sorted(regions)),
        categories=tuple(sorted(categories)),
        values=values,
        counts=counts,
    )


def normalize_distribution(
    row: Mapping[str, float], region_id: str = ""
) -> UsageDistribution:
    """Scale a category -> percentage row so it sums to one."""
    if not row:
        raise ValueError("cannot normalize an empty row")
    if any(v < 0 for v in row.values()):
        raise ValueError("usage percentages must be nonnegative")
    total = math.fsum(row.values())
    if total <= 0.0:
        raise ValueError("cannot normalize zero vector")
    return UsageDistribution(
        region_id=region_id,
        probabilities={cat: v / total for cat, v in row.items()},
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
    distributions: Sequence[UsageDistribution], base: float = math.e
) -> float:
    """Average JSD over all unordered pairs of usage distributions."""
    if len(distributions) < 2:
        raise ValueError("need at least 2 distributions")
    supports = {tuple(sorted(d.probabilities)) for d in distributions}
    if len(supports) != 1:
        raise ValueError("distributions cover different category sets")
    categories = supports.pop()
    vectors = [[d.probabilities[c] for c in categories] for d in distributions]
    total = 0.0
    n_pairs = 0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            total += jsd(vectors[i], vectors[j], base=base)
            n_pairs += 1
    return total / n_pairs


def usage_distributions(matrix: UsageMatrix) -> list[UsageDistribution]:
    """Normalize each region's usage row over the commonly defined categories.

    Categories undefined (zero POIs) in any region are dropped so all
    distributions share the same support.
    """
    shared = [
        cat
        for cat in matrix.categories
        if all((region, cat) in matrix.values for region in matrix.regions)
    ]
    if not shared:
        raise ValueError("no category is defined in every region")
    return [
        normalize_distribution(
            {cat: matrix.values[(region, cat)] for cat in shared}, region_id=region
        )
        for region in matrix.regions
    ]
