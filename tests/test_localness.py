import math

import pytest
from hypothesis import given, strategies as st

from poinames.corpus import TypedSubset, tokenize
from poinames.localness import (
    LocalTermSet,
    UsageMatrix,
    geo_tfidf,
    jsd,
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
        for region in table.regions:
            assert table.weight(region, "common") == 0.0

    def test_single_region_term(self):
        table = geo_tfidf(seven_region_corpora(), variant="pure")
        assert table.weight("r0", "dune") == pytest.approx(5 * math.log(7), rel=1e-12)

    def test_plus_one_keeps_ubiquitous_terms(self):
        corpora = corpora_from({f"r{i}": ["common common common"] for i in range(7)}, dedup=False)
        table = geo_tfidf(corpora, variant="plus-one")
        assert table.weight("r0", "common") == pytest.approx(3.0, rel=1e-12)

    def test_single_region_rejected(self):
        with pytest.raises(ValueError):
            geo_tfidf(corpora_from({"a": ["x"]}))

    def test_unknown_variant(self):
        # the CLI spelling is the only one: "plus_one" is not a variant
        for variant in ("bm25", "plus_one"):
            with pytest.raises(ValueError):
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
                    got = table.weight(region, term)
                    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestTopLocalTerms:
    def test_zero_weights_excluded_even_below_k(self):
        corpora = corpora_from({"a": ["common dune cactus"], "b": ["common lake"]})
        tops = top_local_terms(geo_tfidf(corpora), k=30)
        assert set(tops["a"].terms) == {"dune", "cactus"}
        assert len(tops["a"].terms) == 2

    def test_tie_break_lexicographic(self):
        corpora = corpora_from({"a": ["bb aa aa bb cc"], "b": ["zz"]})
        # aa and bb tie at weight 2*ln2, cc at ln2
        tops = top_local_terms(geo_tfidf(corpora), k=2)
        assert tops["a"].terms == ("aa", "bb")

    def test_weights_non_increasing(self, records):
        from poinames.corpus import partition_by_region
        table = geo_tfidf(partition_by_region(records, dedup=True))
        for ts in top_local_terms(table, k=10).values():
            assert list(ts.weights) == sorted(ts.weights, reverse=True)

    def test_top_k_stability(self, records):
        from poinames.corpus import partition_by_region
        table = geo_tfidf(partition_by_region(records, dedup=True))
        for k in range(1, 8):
            small = top_local_terms(table, k=k)
            bigger = top_local_terms(table, k=k + 1)
            for region in small:
                assert bigger[region].terms[: len(small[region].terms)] == small[region].terms

    def test_k_validation(self):
        with pytest.raises(ValueError):
            top_local_terms(geo_tfidf(corpora_from({"a": ["x"], "b": ["y"]})), k=0)


def subset(region, category, names):
    return TypedSubset(region_id=region, category=category,
                       documents=[tokenize(n) for n in names])


def terms(region, *ts):
    return LocalTermSet(region_id=region, terms=tuple(ts), weights=tuple(float(len(ts) - i) for i in range(len(ts))))


class TestUsagePercentages:
    def test_direct_ratio(self):
        names = [f"dune hotel {i}" for i in range(30)] + [f"plain hotel {i}" for i in range(70)]
        matrix = usage_percentages([subset("a", "Hotels", names)], {"a": terms("a", "dune")})
        assert (matrix.hits, matrix.totals) == ([[30]], [[100]])
        assert matrix.shares() == [[pytest.approx(0.30)]]

    def test_zero_usage(self):
        matrix = usage_percentages([subset("a", "Food", ["plain pizza"])], {"a": terms("a", "dune")})
        assert matrix.shares() == [[0.0]]

    def test_containment_is_exact_token_match(self):
        # "spa" must not match inside "spaghetti"
        matrix = usage_percentages(
            [subset("a", "Food", ["spaghetti house", "spa retreat"])],
            {"a": terms("a", "spa")},
        )
        assert (matrix.hits, matrix.totals) == ([[1]], [[2]])

    def test_grid_rows_and_columns_sorted(self):
        subsets = [
            subset("b", "Spa", ["lake spa", "plain spa"]),
            subset("a", "Spa", ["dune spa"]),
            subset("b", "Food", ["lake pizza"]),
            subset("a", "Food", ["plain pizza", "dune pizza", "dune grill"]),
        ]
        matrix = usage_percentages(subsets, {"a": terms("a", "dune"), "b": terms("b", "lake")})
        assert (matrix.regions, matrix.categories) == (("a", "b"), ("Food", "Spa"))
        assert matrix.hits == [[2, 1], [1, 1]]
        assert matrix.totals == [[3, 1], [1, 2]]

    def test_empty_subset_raises(self):
        with pytest.raises(ValueError, match="no names in region 'a', category 'Food'"):
            usage_percentages([subset("a", "Food", [])], {"a": terms("a", "dune")})

    def test_missing_cell_raises(self):
        subsets = [
            subset("a", "Food", ["dune pizza", "plain pizza"]),
            subset("a", "Spa", ["dune spa"]),
            subset("b", "Food", ["lake pizza"]),
            # region b has no Spa subset at all
        ]
        with pytest.raises(ValueError, match="no names in region 'b', category 'Spa'"):
            usage_percentages(subsets, {"a": terms("a", "dune"), "b": terms("b", "lake")})

    def test_missing_region_terms(self):
        with pytest.raises(ValueError):
            usage_percentages([subset("a", "Food", ["x"])], {"b": terms("b", "y")})


def one_row(hits, totals):
    """usage_distributions of a one-region grid."""
    categories = tuple(f"c{i}" for i in range(len(hits)))
    matrix = UsageMatrix(regions=("r",), categories=categories, hits=[hits], totals=[totals])
    return usage_distributions(matrix)[0]


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
        with pytest.raises(ValueError, match="zero vector"):
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
        assert jsd([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_supports(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(LN2, rel=1e-12)

    def test_base2_rescaling(self):
        assert jsd([1.0, 0.0], [0.0, 1.0], base=2) == pytest.approx(1.0, rel=1e-12)

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(distribution(n), distribution(n))))
    def test_bounds_and_symmetry(self, pq):
        p, q = pq
        value = jsd(p, q)
        assert 0.0 <= value <= LN2 + 1e-12
        assert jsd(q, p) == value

    def test_sum_validation(self):
        with pytest.raises(ValueError):
            jsd([0.9, 0.0], [0.5, 0.5])

    def test_subnormal_mass_does_not_underflow_mixture(self):
        # (p + q) / 2 rounds 5e-324 to zero; the divergence must stay finite
        p, q = [0.0, 1.0, 5e-324], [0.0, 1.0, 0.0]
        assert 0.0 <= jsd(p, q) <= 1e-300
        assert jsd(q, p) == jsd(p, q)


def normalized(row):
    total = math.fsum(row)
    return [v / total for v in row]


class TestMeanPairwiseJsd:
    def test_pair_count_seven_regions(self):
        rows = [normalized([1.0 + i, 2.0, 3.0 - 0.1 * i]) for i in range(7)]
        # 21 unordered pairs; verify through an explicit mean
        values = [jsd(rows[i], rows[j]) for i in range(7) for j in range(i + 1, 7)]
        assert len(values) == 21
        assert mean_pairwise_jsd(rows) == pytest.approx(sum(values) / 21, rel=1e-12)

    def test_identical_distributions(self):
        assert mean_pairwise_jsd([[0.5, 0.5]] * 7) == 0.0

    def test_mismatched_support(self):
        with pytest.raises(ValueError):
            mean_pairwise_jsd([[0.5, 0.5], [0.25, 0.25, 0.5]])

    def test_needs_two(self):
        with pytest.raises(ValueError):
            mean_pairwise_jsd([[1.0]])


class TestUsageDistributions:
    def test_rows_in_matrix_order_sum_to_one(self):
        subsets = [
            subset("b", "Food", ["lake pizza", "plain pizza"]),
            subset("b", "Spa", ["lake spa"]),
            subset("a", "Food", ["dune pizza"]),
            subset("a", "Spa", ["dune spa", "plain spa", "plain sauna", "plain bath"]),
        ]
        matrix = usage_percentages(subsets, {"a": terms("a", "dune"), "b": terms("b", "lake")})
        rows = usage_distributions(matrix)
        # a: shares (1, 1/4) -> (4/5, 1/5); b: shares (1/2, 1) -> (1/3, 2/3)
        assert rows == [pytest.approx([0.8, 0.2]), pytest.approx([1 / 3, 2 / 3])]
        for row in rows:
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)

    def test_region_without_local_term_use_is_a_zero_vector(self):
        subsets = [subset("a", "Food", ["dune pizza"]), subset("b", "Food", ["plain pizza"])]
        matrix = usage_percentages(subsets, {"a": terms("a", "dune"), "b": terms("b", "lake")})
        with pytest.raises(ValueError, match="zero vector: region 'b'"):
            usage_distributions(matrix)
