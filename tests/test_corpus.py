import json
import unicodedata

import pytest
from hypothesis import given, strategies as st

from poinames.corpus import (
    PoiRecord,
    build_vocabulary,
    load_pois,
    partition_by_region,
    read_region_mapping,
    tokenize,
    typed_subsets,
)
from poinames.errors import EmptyCorpusError, IngestError


def rec(name, region="a", lat=35.0, lon=-80.0, categories=()):
    return PoiRecord(
        name=name, region_id=region, latitude=lat, longitude=lon,
        categories=frozenset(categories),
    )


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("CMS Auto Care").tokens == ("cms", "auto", "care")

    def test_punctuation_becomes_space(self):
        assert tokenize("Bob's Pizza & Grill").tokens == ("bob", "s", "pizza", "grill")

    def test_all_punctuation_is_flagged_empty(self):
        result = tokenize("!!!")
        assert result.tokens == ()
        assert result.empty

    def test_digits_kept(self):
        assert tokenize("7-Eleven Store #23").tokens == ("7", "eleven", "store", "23")

    def test_unicode_punctuation_and_symbols(self):
        assert tokenize("Café—Bar ©2020").tokens == ("café", "bar", "2020")

    def test_whitespace_runs_collapse(self):
        assert tokenize("  The   Corner\tShop ").tokens == ("the", "corner", "shop")

    @given(st.text(min_size=1, max_size=60))
    def test_idempotent_over_its_own_output(self, text):
        tokens = tokenize(text).tokens
        assert tokenize(" ".join(tokens)).tokens == tokens

    @given(st.text(max_size=60))
    def test_matches_per_character_rule(self, text):
        def reference(s):
            kept = (" " if unicodedata.category(c)[0] in "PS" else c for c in s.lower())
            return tuple("".join(kept).split())

        # the second call runs on the warm per-code-point cache
        assert tokenize(text).tokens == reference(text)
        assert tokenize(text).tokens == reference(text)

    @given(st.text(min_size=1, max_size=60))
    def test_tokens_are_clean(self, text):
        for token in tokenize(text).tokens:
            assert token
            assert token == token.lower()
            assert not any(ch.isspace() for ch in token)


class TestLoadPois:
    def test_direct_field_mapping(self):
        line = json.dumps({"name": "CMS Auto Care", "latitude": 35.9, "longitude": -83.9,
                           "region": "knoxville", "categories": ["Automotive"]})
        result = load_pois([line])
        assert result.rejections == []
        (record,) = result.records
        assert record.name == "CMS Auto Care"
        assert record.region_id == "knoxville"
        assert record.categories == frozenset({"Automotive"})

    def test_latitude_out_of_range_rejected(self):
        line = json.dumps({"name": "x", "latitude": 95.0, "longitude": 0.0, "region": "a"})
        result = load_pois([line])
        assert result.records == []
        assert result.rejections[0].reason == "latitude out of range"

    def test_empty_source(self):
        result = load_pois([])
        assert result.records == [] and result.rejections == []

    @pytest.mark.parametrize(
        "payload,reason",
        [
            ({"latitude": 1.0, "longitude": 2.0, "region": "a"}, "missing or empty name"),
            ({"name": "  ", "latitude": 1.0, "longitude": 2.0, "region": "a"}, "missing or empty name"),
            ({"name": "x", "longitude": 2.0, "region": "a"}, "missing or invalid latitude"),
            ({"name": "x", "latitude": "abc", "longitude": 2.0, "region": "a"}, "missing or invalid latitude"),
            ({"name": "x", "latitude": 1.0, "longitude": 200.0, "region": "a"}, "longitude out of range"),
            ({"name": "x", "latitude": 1.0, "longitude": 2.0}, "missing region and city/state"),
        ],
    )
    def test_rejection_reasons(self, payload, reason):
        result = load_pois([json.dumps(payload)])
        assert result.records == []
        assert result.rejections[0].reason == reason

    def test_malformed_json_rejected_not_fatal(self):
        good = json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a"})
        result = load_pois(["{not json", good])
        assert len(result.records) == 1
        assert result.rejections[0].reason == "malformed record"

    def test_categories_from_comma_string(self):
        line = json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a",
                           "categories": "Food, Nightlife"})
        (record,) = load_pois([line]).records
        assert record.categories == frozenset({"Food", "Nightlife"})

    def test_region_mapping_with_wildcard(self):
        mapping = {("dunecity", "dz"): "desertville", ("*", "lk"): "lakecity"}
        lines = [
            json.dumps({"name": "a", "latitude": 1.0, "longitude": 2.0, "city": "Dunecity", "state": "DZ"}),
            json.dumps({"name": "b", "latitude": 1.0, "longitude": 2.0, "city": "anywhere", "state": "LK"}),
            json.dumps({"name": "c", "latitude": 1.0, "longitude": 2.0, "city": "ghost", "state": "XX"}),
        ]
        result = load_pois(lines, region_mapping=mapping)
        assert [r.region_id for r in result.records] == ["desertville", "lakecity"]
        assert "no region mapping for ghost,XX" in result.rejections[0].reason

    @pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\rb", "a\x00b", "a\x1fb", "a\x7fb",
                                       "a\x85b", "a\u2028b"])
    def test_control_character_in_region_label_is_fatal(self, label):
        good = json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a"})
        bad = json.dumps({"name": "y", "latitude": 1.0, "longitude": 2.0, "region": label})
        with pytest.raises(IngestError, match="input line 2: region label"):
            load_pois([good, bad])

    def test_control_character_in_mapped_label_is_fatal(self):
        mapping = {("dunecity", "dz"): "desert\x01ville"}
        line = json.dumps({"name": "a", "latitude": 1.0, "longitude": 2.0,
                           "city": "Dunecity", "state": "DZ"})
        with pytest.raises(IngestError, match="input line 1: region label"):
            load_pois([line], region_mapping=mapping)

    def test_unreadable_source_is_fatal(self, tmp_path):
        with pytest.raises(IngestError):
            load_pois(tmp_path / "does_not_exist.ndjson")


class TestRegionMappingFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("# comment\ndunecity,DZ\tdesertville\n*,LK\tlakecity\n")
        mapping = read_region_mapping(path)
        assert mapping == {("dunecity", "dz"): "desertville", ("*", "lk"): "lakecity"}

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_bytes(b"# comment\r\ndunecity,DZ\tdesertville\r\n*,LK\tlakecity\r\n")
        mapping = read_region_mapping(path)
        assert mapping == {("dunecity", "dz"): "desertville", ("*", "lk"): "lakecity"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("no-comma-or-tab\n")
        with pytest.raises(IngestError):
            read_region_mapping(path)

    def test_empty_mapping(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("# nothing\n")
        with pytest.raises(IngestError):
            read_region_mapping(path)


class TestPartition:
    def test_dedup_collapses_repeated_names(self):
        records = [rec("walmart"), rec("walmart"), rec("Desert Pizza")]
        corpora = partition_by_region(records, dedup=True)
        assert len(corpora["a"].documents) == 2
        assert corpora["a"].dedup_applied

    def test_no_dedup_keeps_everything(self):
        records = [rec("walmart"), rec("walmart"), rec("Desert Pizza")]
        corpora = partition_by_region(records, dedup=False)
        assert len(corpora["a"].documents) == 3

    def test_dedup_is_case_insensitive(self):
        corpora = partition_by_region([rec("Walmart"), rec("walmart")], dedup=True)
        assert len(corpora["a"].documents) == 1

    def test_partition_property(self, records):
        corpora = partition_by_region(records, dedup=False)
        assert sum(len(c.documents) for c in corpora.values()) == len(records)
        assert all(c.region_id == region for region, c in corpora.items())

    def test_dedup_monotonicity(self, records):
        raw = partition_by_region(records, dedup=False)
        deduped = partition_by_region(records, dedup=True)
        for region in raw:
            assert len(deduped[region].documents) <= len(raw[region].documents)

    def test_empty_records(self):
        with pytest.raises(EmptyCorpusError):
            partition_by_region([], dedup=False)


class TestTypedSubsets:
    def _records(self, counts):
        # counts: {(region, category): n}
        out = []
        for (region, category), n in counts.items():
            for i in range(n):
                out.append(rec(f"{category} place {i}", region=region, categories={category}))
        return out

    def test_category_in_all_regions_included(self):
        records = self._records({("a", "Food"): 3, ("b", "Food"): 3})
        subsets = typed_subsets(records, min_count=3, required_regions={"a", "b"})
        assert {(s.region_id, s.category) for s in subsets} == {("a", "Food"), ("b", "Food")}

    def test_category_missing_in_one_region_excluded(self):
        records = self._records({("a", "Food"): 3, ("b", "Food"): 3, ("a", "Spa"): 5})
        subsets = typed_subsets(records, min_count=3, required_regions={"a", "b"})
        assert all(s.category == "Food" for s in subsets)

    def test_threshold_edge(self):
        records = self._records({("a", "Food"): 99, ("b", "Food"): 120})
        assert typed_subsets(records, min_count=100, required_regions={"a", "b"}) == []

    def test_multi_category_poi_lands_in_both_subsets(self):
        records = [rec(f"Joe {i}", categories={"Food", "Nightlife"}) for i in range(2)]
        subsets = typed_subsets(records, min_count=2, required_regions={"a"})
        assert {(s.region_id, s.category) for s in subsets} == {("a", "Food"), ("a", "Nightlife")}
        assert all(len(s.documents) == 2 for s in subsets)

    def test_min_count_validation(self):
        with pytest.raises(ValueError):
            typed_subsets([rec("x")], min_count=0)

    def test_counts_use_raw_pois_by_default(self):
        records = [rec("Same Name", categories={"Food"}) for _ in range(4)]
        subsets = typed_subsets(records, min_count=4, required_regions={"a"})
        assert len(subsets[0].documents) == 4
        deduped = typed_subsets(records, min_count=4, required_regions={"a"}, dedup=True)
        assert len(deduped[0].documents) == 1


class TestVocabulary:
    def test_sorted_union(self):
        corpora = partition_by_region([rec("desert pizza"), rec("desert spa", region="b")], dedup=False)
        vocab = build_vocabulary(corpora.values())
        assert vocab.terms == ("desert", "pizza", "spa")
        assert len(vocab) == 3
        assert vocab.index == {"desert": 0, "pizza": 1, "spa": 2}

    def test_deterministic(self, records):
        corpora = partition_by_region(records, dedup=False)
        first = build_vocabulary(corpora.values())
        second = build_vocabulary(partition_by_region(records, dedup=False).values())
        assert first.terms == second.terms

    def test_single_token_doc(self):
        corpora = partition_by_region([rec("walmart")], dedup=False)
        assert build_vocabulary(corpora.values()).terms == ("walmart",)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            build_vocabulary([])
