"""Regions as vectors over a shared vocabulary, and cosine collective similarity."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .corpus import RegionCorpus, Vocabulary

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)


@dataclass
class RegionVector:
    """Dense vector for one region (vocabulary counts, TF-IDF, or embedding)."""

    region_id: str
    values: np.ndarray


@dataclass
class RegionMatrix:
    """Symmetric region-by-region matrix: cosine similarities or distances in meters."""

    regions: tuple[str, ...]
    values: np.ndarray


def _fill(region_id: str, vocab: Vocabulary, by_term: Mapping[str, float]) -> RegionVector:
    """Place each term's value in its vocabulary slot; absent terms stay zero."""
    import numpy as np
    values = np.zeros(len(vocab), dtype=np.float64)
    for term, value in by_term.items():
        slot = vocab.index.get(term)
        if slot is None:
            raise ValueError(
                f"vocabulary mismatch: term {term!r} from region "
                f"{region_id!r} is not in the vocabulary"
            )
        values[slot] = value
    return RegionVector(region_id=region_id, values=values)


def count_vector(corpus: RegionCorpus, vocab: Vocabulary) -> RegionVector:
    """Count every vocabulary term's occurrences in the region's documents.

    Collective-similarity counts should come from corpora built with
    dedup=False so term frequencies stay as they are in the real world.
    """
    vector = _fill(corpus.region_id, vocab, corpus.counts)
    if not vector.values.any():
        log.warning("region %r produced an all-zero count vector", corpus.region_id)
    return vector


def tfidf_vector(
    corpus: RegionCorpus, vocab: Vocabulary, table: Mapping[str, Mapping[str, float]]
) -> RegionVector:
    """Fill vocabulary slots with the region's weights from a geo_tfidf table."""
    if corpus.region_id not in table:
        raise ValueError(f"region {corpus.region_id!r} not covered by the TF-IDF table")
    return _fill(corpus.region_id, vocab, table[corpus.region_id])


def similarity_matrix(vectors: Sequence[RegionVector]) -> RegionMatrix:
    """Pairwise cosine in [-1, 1] over all vectors; symmetric with exact unit diagonal.

    Each norm is computed once. Sums run in ascending index order so results
    are stable across runs.
    """
    import numpy as np
    if len(vectors) < 2:
        raise ValueError("similarity matrix needs at least 2 regions")
    regions = tuple(v.region_id for v in vectors)
    if len(set(regions)) != len(regions):
        raise ValueError("duplicate region ids")
    x = np.stack([v.values for v in vectors])
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(x * x, axis=1))
    zero = [r for r, norm in zip(regions, norms) if norm == 0.0]
    if zero:
        raise ValueError(f"undefined similarity: zero-norm vector for {zero}")
    # finite norms bound every dot product below (Cauchy-Schwarz)
    huge = [r for r, norm in zip(regions, norms) if not np.isfinite(norm)]
    if huge:
        raise ValueError(f"undefined similarity: non-finite norm for {huge}")
    n = len(vectors)
    values = np.eye(n, dtype=np.float64)
    for i in range(n - 1):
        row = np.sum(x[i] * x[i + 1 :], axis=1) / (norms[i] * norms[i + 1 :])
        values[i, i + 1 :] = values[i + 1 :, i] = np.clip(row, -1.0, 1.0)
    return RegionMatrix(regions=regions, values=values)
