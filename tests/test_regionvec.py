import math
import tracemalloc

import numpy as np
import pytest

from poinames import regionvec
from poinames.corpus import build_vocabulary
from poinames.localness import geo_tfidf
from poinames.regionvec import (
    RegionVector,
    count_vector,
    similarity_matrix,
    tfidf_vector,
)

from conftest import corpora_from


def vec(values, region="a"):
    return RegionVector(region_id=region, values=np.asarray(values, dtype=np.float64))


class TestCountVector:
    def test_direct_counts(self):
        corpora = corpora_from({"a": ["desert pizza", "desert spa"]})
        vocab = build_vocabulary(corpora.values())
        assert count_vector(corpora["a"], vocab).values.tolist() == [2.0, 1.0, 1.0]

    def test_unused_vocab_slot_is_zero(self):
        corpora = corpora_from({"a": ["desert pizza", "desert spa"], "b": ["extra"]})
        vocab = build_vocabulary(corpora.values())
        values = count_vector(corpora["a"], vocab).values
        assert values[vocab.index["extra"]] == 0.0

    def test_empty_region_gives_zero_vector(self, caplog):
        corpora = corpora_from({"a": ["desert"], "b": []})
        vocab = build_vocabulary(corpora.values())
        with caplog.at_level("WARNING"):
            values = count_vector(corpora["b"], vocab).values
        assert not values.any()
        assert "all-zero" in caplog.text

    def test_vocabulary_mismatch(self):
        corpora = corpora_from({"a": ["desert pizza"]})
        vocab = build_vocabulary(corpora_from({"a": ["desert"]}).values())
        with pytest.raises(ValueError, match="vocabulary mismatch"):
            count_vector(corpora["a"], vocab)


class TestTfidfVector:
    def _setup(self):
        names = {f"r{i}": ["common shop"] for i in range(7)}
        names["r0"] = ["common shop", "dune dune dune dune dune"]
        corpora = corpora_from(names, dedup=True)
        vocab = build_vocabulary(corpora.values())
        return corpora, vocab

    def test_ubiquitous_term_slot_zero_pure(self):
        corpora, vocab = self._setup()
        table = geo_tfidf(corpora, variant="pure")
        values = tfidf_vector(corpora["r0"], vocab, table).values
        assert values[vocab.index["common"]] == 0.0

    def test_single_region_slot(self):
        corpora, vocab = self._setup()
        table = geo_tfidf(corpora, variant="pure")
        values = tfidf_vector(corpora["r0"], vocab, table).values
        assert values[vocab.index["dune"]] == pytest.approx(5 * math.log(7), rel=1e-12)

    def test_plus_one_ubiquitous_term(self):
        corpora = corpora_from({"a": ["common common"], "b": ["common"]})
        vocab = build_vocabulary(corpora.values())
        table = geo_tfidf(corpora, variant="plus-one")
        values = tfidf_vector(corpora["a"], vocab, table).values
        assert values[vocab.index["common"]] == pytest.approx(2.0, rel=1e-12)

    def test_region_not_in_table(self):
        corpora, vocab = self._setup()
        table = geo_tfidf(corpora)
        other = corpora_from({"zz": ["common shop"]})["zz"]
        with pytest.raises(ValueError, match="^region 'zz' not covered by the TF-IDF table$"):
            tfidf_vector(other, vocab, table)


def cosine(a, b):
    """The off-diagonal entry of the two-region similarity matrix of a and b."""
    return similarity_matrix([vec(a.values, "a"), vec(b.values, "b")]).values[0, 1]


class TestCosine:
    def test_self_similarity(self):
        v = vec([1.0, 2.0, 3.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(vec([1.0, 0.0]), vec([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        assert cosine(vec([1.0, 1.0, 0.0]), vec([1.0, 0.0, 0.0])) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-12
        )

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="undefined similarity"):
            cosine(vec([0.0, 0.0]), vec([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(vec([1.0]), vec([1.0, 2.0]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = vec(rng.uniform(0.0, 5.0, size=30))
            b = vec(rng.uniform(0.0, 5.0, size=30))
            c = float(rng.uniform(1e-6, 1e6))
            scaled = vec(c * a.values)
            assert cosine(scaled, b) == pytest.approx(cosine(a, b), rel=1e-12, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = vec(rng.normal(size=50))
            b = vec(rng.normal(size=50))
            assert cosine(a, b) == cosine(b, a)

    def test_against_high_precision_recomputation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 1001))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            got = cosine(vec(a), vec(b))
            # independent route: compensated summation term by term
            dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
            na = math.sqrt(math.fsum(float(x) * float(x) for x in a))
            nb = math.sqrt(math.fsum(float(y) * float(y) for y in b))
            assert got == pytest.approx(dot / (na * nb), rel=1e-12, abs=1e-12)


class TestSimilarityMatrix:
    def test_structure_seven_regions(self):
        rng = np.random.default_rng(6)
        vectors = [vec(rng.uniform(0.1, 1.0, size=12), region=f"r{i}") for i in range(7)]
        sim = similarity_matrix(vectors)
        assert sim.values.shape == (7, 7)
        assert np.array_equal(sim.values, sim.values.T)
        assert np.all(np.diag(sim.values) == 1.0)
        assert np.all((sim.values >= 0.0) & (sim.values <= 1.0))

    def test_rows_match_per_pair_reference_bit_for_bit(self):
        rng = np.random.default_rng(7)
        vectors = [vec(rng.normal(size=1000), region=f"r{i}") for i in range(9)]
        sim = similarity_matrix(vectors)
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors[i + 1 :], start=i + 1):
                norms = math.sqrt(float(np.sum(a.values**2))) * math.sqrt(float(np.sum(b.values**2)))
                expected = min(max(float(np.sum(a.values * b.values)) / norms, -1.0), 1.0)
                assert sim.values[i, j] == sim.values[j, i] == expected

    def test_duplicate_region_ids_rejected(self):
        with pytest.raises(ValueError, match="^duplicate region ids$"):
            similarity_matrix([vec([1.0], "a"), vec([2.0], "a")])

    def test_norm_beyond_the_float_range_rejected(self):
        # 1e200 squared overflows: the cosines would be nan
        vectors = [vec([1.0, 2.0], "a"), vec([1e200, 1.0], "b"), vec([3.0, 1.0], "c")]
        with pytest.raises(ValueError, match=r"^undefined similarity: non-finite norm for \['b'\]$"):
            similarity_matrix(vectors)


def unblocked_similarity(x):
    """similarity_matrix's arithmetic with whole-matrix products, no blocks."""
    norms = np.sqrt(np.sum(x * x, axis=1))
    n = len(x)
    values = np.eye(n)
    for i in range(n - 1):
        row = np.sum(x[i] * x[i + 1 :], axis=1) / (norms[i] * norms[i + 1 :])
        values[i, i + 1 :] = values[i + 1 :, i] = np.clip(row, -1.0, 1.0)
    return values


class TestSimilarityBlocks:
    @pytest.mark.parametrize("regions", [2, 9, 40])
    @pytest.mark.parametrize("kind", ["float", "integer"])
    def test_blocks_give_the_bits_of_one_pass(self, monkeypatch, kind, regions):
        rng = np.random.default_rng(regions)
        if kind == "float":
            x = rng.normal(size=(regions, 301)) * rng.uniform(1e-3, 1e3, size=(regions, 1))
        else:  # counts, as count_vector gives them: integers in float64
            x = rng.poisson(rng.uniform(0.1, 50.0, size=301), size=(regions, 301)).astype(float)
            x[:, 0] = 0.0
            x[:, 1] = 1.0  # no zero-norm row
        expected = unblocked_similarity(x)
        vectors = [vec(row, region=f"r{i}") for i, row in enumerate(x)]
        # one row, three rows, a block bigger than the matrix and the default
        for rows in (1, 3, regions + 1, None):
            if rows is not None:
                monkeypatch.setattr(regionvec, "SIMILARITY_BLOCK_BYTES", rows * x[0].nbytes)
            assert np.array_equal(similarity_matrix(vectors).values, expected)

    def test_memory_at_1000_regions_is_the_matrix_plus_one_block(self):
        rng = np.random.default_rng(1000)
        vectors = [vec(rng.uniform(0.0, 1.0, size=400), region=f"r{i:04d}") for i in range(1000)]
        stacked = 1000 * 400 * 8
        result = 1000 * 1000 * 8
        tracemalloc.start()
        try:
            similarity_matrix(vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a product of the first row with the 999 others would add 3.2 MB
        bound = stacked + result + regionvec.SIMILARITY_BLOCK_BYTES + 256 * 1024
        assert peak < bound, (peak, bound)
