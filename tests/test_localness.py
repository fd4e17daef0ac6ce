import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from poinames.corpus import tokenize
from poinames.localness import (
    UsageMatrix,
    geo_tfidf,
    mean_pairwise_jsd,
    top_local_terms,
    usage_distributions,
    usage_percentages,
)

from conftest import corpora_from

LN2 = math.log(2.0)


def seven_region_corpora():
    names = {f"r{i}": ["common spot", "common shop"] for i in range(7)}
    names["r0"] = names["r0"] + ["dune dune dune dune dune"]  # tf=5 in one region
    return corpora_from(names, dedup=True)


class TestGeoTfidf:
    def test_term_in_all_regions_has_zero_weight_pure(self):
        table = geo_tfidf(seven_region_corpora(), variant="pure")
        for region in table:
            assert table[region]["common"] == 0.0

    def test_single_region_term(self):
        table = geo_tfidf(seven_region_corpora(), variant="pure")
        assert table["r0"]["dune"] == pytest.approx(5 * math.log(7), rel=1e-12)

    def test_plus_one_keeps_ubiquitous_terms(self):
        corpora = corpora_from({f"r{i}": ["common common common"] for i in range(7)}, dedup=False)
        table = geo_tfidf(corpora, variant="plus-one")
        assert table["r0"]["common"] == pytest.approx(3.0, rel=1e-12)

    def test_regions_come_in_sorted_order(self):
        corpora = corpora_from({"c": ["lake"], "a": ["dune"], "b": ["steel"]})
        shuffled = {r: corpora[r] for r in ("c", "a", "b")}
        assert list(geo_tfidf(shuffled)) == ["a", "b", "c"]

    def test_single_region_rejected(self):
        with pytest.raises(ValueError, match="^geo-tfidf needs at least 2 regions$"):
            geo_tfidf(corpora_from({"a": ["x"]}))

    def test_unknown_variant(self):
        # the CLI spelling is the only one: "plus_one" is not a variant
        for variant in ("bm25", "plus_one"):
            with pytest.raises(ValueError, match=f"^unknown IDF variant '{variant}'; expected one "
                                                 r"of \('pure', 'plus-one'\)$"):
                geo_tfidf(seven_region_corpora(), variant=variant)

    def test_matches_brute_force(self):
        names = {
            "a": ["desert pizza", "cactus spa", "desert auto"],
            "b": ["lake pizza", "erie spa bar"],
            "c": ["steel pizza", "rivers auto", "steel steel grill"],
        }
        corpora = corpora_from(names, dedup=True)
        for variant in ("pure", "plus-one"):
            table = geo_tfidf(corpora, variant=variant)
            # independent nested-loop recomputation
            regions = sorted(names)
            for region in regions:
                tokens = [t for name in names[region] for t in name.split()]
                for term in set(tokens):
                    tf = sum(1 for t in tokens if t == term)
                    containing = sum(
                        1
                        for other in regions
                        if any(term in n.split() for n in names[other])
                    )
                    idf = math.log(len(regions) / containing)
                    if variant == "plus-one":
                        idf += 1.0
                    expected = tf * idf
                    got = table[region][term]
                    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestTopLocalTerms:
    def test_zero_weights_excluded_even_below_k(self):
        corpora = corpora_from({"a": ["common dune cactus"], "b": ["common lake"]})
        tops = top_local_terms(geo_tfidf(corpora), k=30)
        assert {t for t, _ in tops["a"]} == {"dune", "cactus"}
        assert len(tops["a"]) == 2

    def test_tie_break_lexicographic(self):
        corpora = corpora_from({"a": ["bb aa aa bb cc"], "b": ["zz"]})
        # aa and bb tie at weight 2*ln2, cc at ln2
        tops = top_local_terms(geo_tfidf(corpora), k=2)
        assert [t for t, _ in tops["a"]] == ["aa", "bb"]

    def test_weights_non_increasing(self, records):
        from poinames.corpus import partition_by_region
        table = geo_tfidf(partition_by_region(records, dedup=True))
        for pairs in top_local_terms(table, k=10).values():
            weights = [w for _, w in pairs]
            assert weights == sorted(weights, reverse=True)

    def test_top_k_stability(self, records):
        from poinames.corpus import partition_by_region
        table = geo_tfidf(partition_by_region(records, dedup=True))
        for k in range(1, 8):
            small = top_local_terms(table, k=k)
            bigger = top_local_terms(table, k=k + 1)
            for region in small:
                assert bigger[region][: len(small[region])] == small[region]

    def test_k_validation(self):
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            top_local_terms(geo_tfidf(corpora_from({"a": ["x"], "b": ["y"]})), k=0)

    @given(
        st.dictionaries(
            st.sampled_from(["c", "a", "b"]),
            # few terms and few weights, so that ties and zero weights are common
            st.dictionaries(st.sampled_from(["x", "y", "z", "w", "v"]),
                            st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0)),
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_brute_force(self, table, k):
        expected = {
            region: sorted([(t, w) for t, w in row.items() if w > 0.0],
                           key=lambda pair: (-pair[1], pair[0]))[:k]
            for region, row in table.items()
        }
        assert list(top_local_terms(table, k=k).items()) == sorted(expected.items())

    def test_regions_come_in_sorted_order(self):
        table = {"c": {"x": 1.0}, "a": {"y": 2.0}, "b": {}}
        assert list(top_local_terms(table, k=3)) == ["a", "b", "c"]


def docs(names):
    return [tokenize(n) for n in names]


def terms(*ts):
    """Local (term, weight) pairs, heaviest first."""
    return [(t, float(len(ts) - i)) for i, t in enumerate(ts)]


class TestUsagePercentages:
    def test_direct_ratio(self):
        names = [f"dune hotel {i}" for i in range(30)] + [f"plain hotel {i}" for i in range(70)]
        matrix = usage_percentages({("a", "Hotels"): docs(names)}, {"a": terms("dune")})
        assert (matrix.hits, matrix.totals) == ([[30]], [[100]])
        assert matrix.shares() == [[pytest.approx(0.30)]]

    def test_zero_usage(self):
        matrix = usage_percentages({("a", "Food"): docs(["plain pizza"])}, {"a": terms("dune")})
        assert matrix.shares() == [[0.0]]

    def test_containment_is_exact_token_match(self):
        # "spa" must not match inside "spaghetti"
        matrix = usage_percentages(
            {("a", "Food"): docs(["spaghetti house", "spa retreat"])},
            {"a": terms("spa")},
        )
        assert (matrix.hits, matrix.totals) == ([[1]], [[2]])

    def test_grid_rows_and_columns_sorted(self):
        subsets = {
            ("b", "Spa"): docs(["lake spa", "plain spa"]),
            ("a", "Spa"): docs(["dune spa"]),
            ("b", "Food"): docs(["lake pizza"]),
            ("a", "Food"): docs(["plain pizza", "dune pizza", "dune grill"]),
        }
        matrix = usage_percentages(subsets, {"a": terms("dune"), "b": terms("lake")})
        assert (matrix.regions, matrix.categories) == (("a", "b"), ("Food", "Spa"))
        assert matrix.hits == [[2, 1], [1, 1]]
        assert matrix.totals == [[3, 1], [1, 2]]

    def test_empty_subset_raises(self):
        with pytest.raises(ValueError, match="no names in region 'a', category 'Food'"):
            usage_percentages({("a", "Food"): []}, {"a": terms("dune")})

    def test_missing_cell_raises(self):
        subsets = {
            ("a", "Food"): docs(["dune pizza", "plain pizza"]),
            ("a", "Spa"): docs(["dune spa"]),
            ("b", "Food"): docs(["lake pizza"]),
            # region b has no Spa subset at all
        }
        with pytest.raises(ValueError, match="no names in region 'b', category 'Spa'"):
            usage_percentages(subsets, {"a": terms("dune"), "b": terms("lake")})

    def test_missing_region_terms(self):
        with pytest.raises(ValueError, match="^no local terms supplied for region 'a'$"):
            usage_percentages({("a", "Food"): docs(["x"])}, {"b": terms("y")})


def one_row(hits, totals):
    """usage_distributions of a one-region grid."""
    categories = tuple(f"c{i}" for i in range(len(hits)))
    matrix = UsageMatrix(regions=("r",), categories=categories, hits=[hits], totals=[totals])
    return usage_distributions(matrix.regions, matrix.shares())[0]


class TestNormalize:
    def test_already_normalized(self):
        assert one_row([2, 3, 5], [10, 10, 10]) == pytest.approx([0.2, 0.3, 0.5])

    def test_scaling(self):
        row = one_row([1, 1, 2], [5, 5, 5])
        assert row == pytest.approx([0.25, 0.25, 0.5])
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)

    def test_with_zero_entry(self):
        assert one_row([1, 0, 1], [2, 3, 2]) == pytest.approx([0.5, 0.0, 0.5])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="^cannot normalize zero vector: region 'r' uses no "
                                             "local term$"):
            one_row([0, 0], [4, 7])


@st.composite
def distribution(draw, size):
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    total = math.fsum(raw)
    if total <= 0:
        raw = [1.0] * size
        total = float(size)
    return [v / total for v in raw]


class TestJsd:
    def test_identity_is_exactly_zero(self):
        assert mean_pairwise_jsd([[0.3, 0.7], [0.3, 0.7]]) == (0.0, 0.0)

    def test_disjoint_supports(self):
        assert mean_pairwise_jsd([[1.0, 0.0], [0.0, 1.0]])[0] == pytest.approx(LN2, rel=1e-12)

    def test_base2_rescaling(self):
        assert mean_pairwise_jsd([[1.0, 0.0], [0.0, 1.0]])[1] == pytest.approx(1.0, rel=1e-12)

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(distribution(n), distribution(n))))
    def test_bounds_and_symmetry(self, pq):
        p, q = pq
        nats, bits = mean_pairwise_jsd([p, q])
        assert 0.0 <= nats <= LN2 + 1e-12
        assert 0.0 <= bits <= 1.0 + 1e-12
        assert mean_pairwise_jsd([q, p]) == (nats, bits)

    def test_sum_validation(self):
        with pytest.raises(ValueError, match="distribution 0 sums to 0.9, expected 1"):
            mean_pairwise_jsd([[0.9, 0.0], [0.5, 0.5]])

    def test_rows_a_rounding_apart_are_not_below_zero(self):
        # the two halves of the divergence sum to -2.8e-17 before the clamp
        assert mean_pairwise_jsd([[0.5, 0.5], [0.5, 0.49999999999999994]]) == (0.0, 0.0)

    def test_subnormal_mass_does_not_underflow_mixture(self):
        # (p + q) / 2 rounds 5e-324 to zero; the divergence must stay finite
        p, q = [0.0, 1.0, 5e-324], [0.0, 1.0, 0.0]
        nats, bits = mean_pairwise_jsd([p, q])
        assert 0.0 <= nats <= 1e-300 and 0.0 <= bits <= 1e-300
        assert mean_pairwise_jsd([q, p]) == (nats, bits)


def normalized(row):
    total = math.fsum(row)
    return [v / total for v in row]


@st.composite
def rows_with_zeros_and_subnormals(draw):
    """2 to 6 probability rows of one length, with zero entries and subnormal rows."""
    size = draw(st.integers(2, 5))
    tiny = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308])
    rows = draw(st.lists(st.one_of(distribution(size), st.lists(tiny, min_size=size - 1,
                                                                max_size=size - 1)),
                         min_size=2, max_size=6))
    # a row of subnormal and zero entries carries the rest of its mass in its last entry
    return [row if len(row) == size else row + [1.0 - math.fsum(row)] for row in rows]


class TestMeanPairwiseJsd:
    def test_pair_count_seven_regions(self):
        rows = [normalized([1.0 + i, 2.0, 3.0 - 0.1 * i]) for i in range(7)]
        # 21 unordered pairs; verify through an explicit mean
        values = [mean_pairwise_jsd([p, q])[0] for p, q in combinations(rows, 2)]
        assert len(values) == 21
        nats, bits = mean_pairwise_jsd(rows)
        assert nats == pytest.approx(sum(values) / 21, rel=1e-12)
        assert bits == pytest.approx(sum(values) / 21 / LN2, rel=1e-12)

    def test_identical_distributions(self):
        assert mean_pairwise_jsd([[0.5, 0.5]] * 7) == (0.0, 0.0)

    @given(rows_with_zeros_and_subnormals())
    def test_equals_the_mean_of_jsd_over_pairs_bit_for_bit(self, rows):
        # the definition: the divergence of each pair in nats and in bits,
        # each added with +=, divided by the pair count
        nats = bits = 0.0
        pairs = list(combinations(rows, 2))
        for p, q in pairs:
            pair_nats, pair_bits = mean_pairwise_jsd([p, q])
            nats += pair_nats
            bits += pair_bits
        assert mean_pairwise_jsd(rows) == (nats / len(pairs), bits / len(pairs))

    def test_mismatched_support(self):
        with pytest.raises(ValueError, match="distributions must have the same support size"):
            mean_pairwise_jsd([[0.5, 0.5], [0.25, 0.25, 0.5]])

    @pytest.mark.parametrize("bad", [[0.5, 0.6], [1.5, -0.5], [0.25, 0.25]],
                             ids=["sum-above-one", "negative", "sum-below-one"])
    def test_a_bad_row_anywhere_raises(self, bad):
        good = [0.5, 0.5]
        for rows in ([bad, good, good], [good, good, bad]):
            with pytest.raises(ValueError):
                mean_pairwise_jsd(rows)

    def test_needs_two(self):
        with pytest.raises(ValueError, match="need at least 2 distributions"):
            mean_pairwise_jsd([[1.0]])


class TestUsageDistributions:
    def test_rows_in_matrix_order_sum_to_one(self):
        subsets = {
            ("b", "Food"): docs(["lake pizza", "plain pizza"]),
            ("b", "Spa"): docs(["lake spa"]),
            ("a", "Food"): docs(["dune pizza"]),
            ("a", "Spa"): docs(["dune spa", "plain spa", "plain sauna", "plain bath"]),
        }
        matrix = usage_percentages(subsets, {"a": terms("dune"), "b": terms("lake")})
        rows = usage_distributions(matrix.regions, matrix.shares())
        # a: shares (1, 1/4) -> (4/5, 1/5); b: shares (1/2, 1) -> (1/3, 2/3)
        assert rows == [pytest.approx([0.8, 0.2]), pytest.approx([1 / 3, 2 / 3])]
        for row in rows:
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)

    def test_region_without_local_term_use_is_a_zero_vector(self):
        subsets = {("a", "Food"): docs(["dune pizza"]), ("b", "Food"): docs(["plain pizza"])}
        matrix = usage_percentages(subsets, {"a": terms("dune"), "b": terms("lake")})
        with pytest.raises(ValueError, match="zero vector: region 'b'"):
            usage_distributions(matrix.regions, matrix.shares())
