"""Regions as vectors over a shared vocabulary, and cosine collective similarity."""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .corpus import RegionCorpus, Vocabulary

if TYPE_CHECKING:
    import numpy as np

# Bytes of the products that similarity_matrix forms at a time.
SIMILARITY_BLOCK_BYTES = 1 << 20


class RegionVector(NamedTuple):
    """Dense vector for one region (vocabulary counts, TF-IDF, or embedding)."""

    region_id: str
    values: np.ndarray


class RegionMatrix(NamedTuple):
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
        import logging
        logging.getLogger(__name__).warning("region %r produced an all-zero count vector",
                                            corpus.region_id)
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
    are stable across runs. Products are formed a block of rows at a time,
    at most SIMILARITY_BLOCK_BYTES, and each row still sums its own values,
    so the result does not depend on the block size.
    """
    import numpy as np
    if len(vectors) < 2:
        raise ValueError("similarity matrix needs at least 2 regions")
    regions = tuple(v.region_id for v in vectors)
    if len(set(regions)) != len(regions):
        raise ValueError("duplicate region ids")
    x = np.stack([v.values for v in vectors])
    n = len(vectors)
    step = max(1, SIMILARITY_BLOCK_BYTES // max(x[0].nbytes, 1))
    block = np.empty((min(step, n), x.shape[1]), dtype=x.dtype)

    def dots(start: int, row: np.ndarray | None = None) -> np.ndarray:
        """x[j] . row for every j >= start; x[j] . x[j] when row is None."""
        out = np.empty(n - start)
        for i in range(start, n, step):
            rows = x[i : i + step]
            products = np.multiply(rows if row is None else row, rows, out=block[: len(rows)])
            out[i - start : i - start + len(rows)] = np.sum(products, axis=1)
        return out

    with np.errstate(over="ignore"):
        norms = np.sqrt(dots(0))
    zero = [r for r, norm in zip(regions, norms) if norm == 0.0]
    if zero:
        raise ValueError(f"undefined similarity: zero-norm vector for {zero}")
    # finite norms bound every dot product below (Cauchy-Schwarz)
    huge = [r for r, norm in zip(regions, norms) if not np.isfinite(norm)]
    if huge:
        raise ValueError(f"undefined similarity: non-finite norm for {huge}")
    values = np.eye(n, dtype=np.float64)
    for i in range(n - 1):
        row = dots(i + 1, x[i]) / (norms[i] * norms[i + 1 :])
        values[i, i + 1 :] = values[i + 1 :, i] = np.clip(row, -1.0, 1.0)
    return RegionMatrix(regions=regions, values=values)
