"""Regions as vectors over a shared vocabulary, and cosine collective similarity."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import RegionCorpus, Vocabulary
from .localness import GeoTfidfTable

log = logging.getLogger(__name__)


@dataclass
class RegionVector:
    """Dense vector for one region (vocabulary counts, TF-IDF, or embedding)."""

    region_id: str
    values: np.ndarray


@dataclass
class SimilarityMatrix:
    """Symmetric cosine similarities between region vectors, unit diagonal."""

    regions: tuple[str, ...]
    values: np.ndarray


def count_vector(corpus: RegionCorpus, vocab: Vocabulary) -> RegionVector:
    """Count every vocabulary term's occurrences in the region's documents.

    Collective-similarity counts should come from corpora built with
    dedup=False so term frequencies stay as they are in the real world.
    """
    values = np.zeros(len(vocab), dtype=np.float64)
    index = vocab.index
    for doc in corpus.documents:
        for token in doc:
            slot = index.get(token)
            if slot is None:
                raise ValueError(
                    f"vocabulary mismatch: term {token!r} from region "
                    f"{corpus.region_id!r} is not in the vocabulary"
                )
            values[slot] += 1.0
    if not values.any():
        log.warning("region %r produced an all-zero count vector", corpus.region_id)
    return RegionVector(region_id=corpus.region_id, values=values)


def tfidf_vector(
    corpus: RegionCorpus, vocab: Vocabulary, table: GeoTfidfTable
) -> RegionVector:
    """Fill vocabulary slots with the region's TF-IDF weights."""
    if corpus.region_id not in table.weights:
        raise ValueError(f"region {corpus.region_id!r} not covered by the TF-IDF table")
    values = np.zeros(len(vocab), dtype=np.float64)
    row = table.weights[corpus.region_id]
    index = vocab.index
    for term, weight in row.items():
        slot = index.get(term)
        if slot is None:
            raise ValueError(f"vocabulary mismatch: term {term!r} not in the vocabulary")
        values[slot] = weight
    return RegionVector(region_id=corpus.region_id, values=values)


def cosine(v1: RegionVector, v2: RegionVector) -> float:
    """Cosine of the angle between two region vectors, clamped to [-1, 1].

    Sums run in ascending index order so results are stable across runs.
    """
    a, b = v1.values, v2.values
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = math.sqrt(float(np.sum(a * a)))
    norm_b = math.sqrt(float(np.sum(b * b)))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError(
            f"undefined similarity: zero-norm vector "
            f"({v1.region_id!r} or {v2.region_id!r})"
        )
    value = float(np.sum(a * b)) / (norm_a * norm_b)
    return min(max(value, -1.0), 1.0)


def similarity_matrix(vectors: Sequence[RegionVector]) -> SimilarityMatrix:
    """Pairwise cosine over all vectors; symmetric with exact unit diagonal."""
    if len(vectors) < 2:
        raise ValueError("similarity matrix needs at least 2 regions")
    regions = tuple(v.region_id for v in vectors)
    if len(set(regions)) != len(regions):
        raise ValueError("duplicate region ids")
    n = len(vectors)
    values = np.eye(n, dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            s = cosine(vectors[i], vectors[j])
            values[i, j] = s
            values[j, i] = s
    return SimilarityMatrix(regions=regions, values=values)
