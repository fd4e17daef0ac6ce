import json
import re
import tempfile
import tracemalloc
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from poinames.corpus import (
    PoiRecord,
    RejectedRecord,
    build_vocabulary,
    corpus_lines,
    load_pois,
    partition_by_region,
    read_corpus,
    read_region_mapping,
    tokenize,
    typed_subsets,
)
from poinames.errors import EmptyCorpusError, IngestError


def rec(name, region="a", lat=35.0, lon=-80.0, categories=()):
    return PoiRecord(
        name=name, region_id=region, latitude=lat, longitude=lon,
        categories=frozenset(categories), tokens=tokenize(name),
    )


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("CMS Auto Care") == ("cms", "auto", "care")

    def test_punctuation_becomes_space(self):
        assert tokenize("Bob's Pizza & Grill") == ("bob", "s", "pizza", "grill")

    def test_all_punctuation_is_flagged_empty(self):
        assert tokenize("!!!") == ()

    def test_digits_kept(self):
        assert tokenize("7-Eleven Store #23") == ("7", "eleven", "store", "23")

    def test_unicode_punctuation_and_symbols(self):
        assert tokenize("Café—Bar ©2020") == ("café", "bar", "2020")

    def test_whitespace_runs_collapse(self):
        assert tokenize("  The   Corner\tShop ") == ("the", "corner", "shop")

    def test_tokens_derive_from_the_name(self):
        assert tokenize("Bob's Pizza & Grill") == ("bob", "s", "pizza", "grill")
        assert tokenize("!!!") == ()

    @given(st.text(min_size=1, max_size=60))
    def test_idempotent_over_its_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=60))
    def test_matches_per_character_rule(self, text):
        def reference(s):
            kept = (" " if unicodedata.category(c)[0] in "PS" else c for c in s.lower())
            return tuple("".join(kept).split())

        # the second call runs on the warm per-code-point cache
        assert tokenize(text) == reference(text)
        assert tokenize(text) == reference(text)

    @given(st.text(min_size=1, max_size=60))
    def test_tokens_are_clean(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert not any(ch.isspace() for ch in token)


class TestLoadPois:
    def test_each_accepted_name_is_tokenized(self):
        line = json.dumps({"name": "  CMS Auto-Care ", "latitude": 35.9, "longitude": -83.9,
                           "region": "knoxville"})
        (record,) = load_pois([line]).records
        assert record.name == "CMS Auto-Care"
        assert record.tokens == ("cms", "auto", "care")

    @pytest.mark.parametrize(
        "field,value,message",
        [("region", "a\tb", "region label 'a\\tb' contains a control character"),
         ("name", "caf\ud800", "field 'name' holds a lone surrogate U+D800")],
        ids=["label", "surrogate"],
    )
    def test_errors_in_a_file_name_the_file_and_line(self, tmp_path, field, value, message):
        good = {"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a"}
        path = tmp_path / "pois.ndjson"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n",
                        encoding="ascii")
        with pytest.raises(IngestError) as exc:
            load_pois(path)
        assert str(exc.value).startswith(f"{path}:2: {message}")

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

    # the other values json.loads cannot turn into a record are ingest tests;
    # JSON null decodes, so it is not a malformed record
    @pytest.mark.parametrize("line,reason", [
        ('{"name": "x", "latitude": 1.0, "longitude": -1%s, "region": "a"}' % ("0" * 400),
         "missing or invalid longitude"),
        ("null", "record is not an object"),
    ], ids=["longitude-beyond-float", "null"])
    def test_longitude_beyond_float_and_json_null_are_rejected(self, line, reason):
        good = json.dumps({"name": "y", "latitude": 1.0, "longitude": 2.0, "region": "a"})
        result = load_pois([good, line, good])
        assert [r.name for r in result.records] == ["y", "y"]
        assert result.rejections == [RejectedRecord(line=2, reason=reason)]

    def test_categories_from_comma_string(self):
        line = json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a",
                           "categories": "Food, Nightlife"})
        (record,) = load_pois([line]).records
        assert record.categories == frozenset({"Food", "Nightlife"})

    def test_non_string_category_entries_dropped(self):
        line = json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a",
                           "categories": ["Food", None, {"k": 1}, ["Bars"], 3, True]})
        (record,) = load_pois([line]).records
        assert record.categories == frozenset({"Food"})

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

    @pytest.mark.parametrize("categories", ["Food\tBad,Bars", ["Food", "Bars\nEvil"],
                                            "Food,Bars\u2028Evil", ["Caf\x00e"]],
                             ids=["string-tab", "list-newline", "string-u2028", "list-nul"])
    def test_control_character_in_category_is_fatal(self, categories):
        good = json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a"})
        bad = json.dumps({"name": "y", "latitude": 1.0, "longitude": 2.0, "region": "a",
                          "categories": categories})
        with pytest.raises(IngestError, match="^input line 2: category '.*' contains a control "
                                              "character$"):
            load_pois([good, bad])

    def test_control_characters_at_the_ends_of_a_category_are_stripped(self):
        line = json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a",
                           "categories": "\tFood\n, Bars\r"})
        (record,) = load_pois([line]).records
        assert record.categories == frozenset({"Food", "Bars"})

    def test_unmapped_city_with_control_character_is_quoted_in_the_reason(self):
        mapping = {("dunecity", "dz"): "desertville"}
        line = json.dumps({"name": "a", "latitude": 1.0, "longitude": 2.0,
                           "city": "Phoe\nnix", "state": "A\tZ"})
        (rejection,) = load_pois([line], region_mapping=mapping).rejections
        assert rejection.reason == "no region mapping for 'Phoe\\nnix,A\\tZ'"

    def test_control_character_in_mapped_label_is_fatal(self):
        mapping = {("dunecity", "dz"): "desert\x01ville"}
        line = json.dumps({"name": "a", "latitude": 1.0, "longitude": 2.0,
                           "city": "Dunecity", "state": "DZ"})
        with pytest.raises(IngestError, match="input line 1: region label"):
            load_pois([line], region_mapping=mapping)

    @pytest.mark.parametrize(
        "field,value,code",
        [
            ("name", "caf\ud800", "D800"),
            ("region", "\udfffville", "DFFF"),
            ("categories", "Food,Caf\udc00", "DC00"),
            ("categories", ["Food", "Caf\udc00"], "DC00"),
            ("city", "dune\ud800", "D800"),
            ("state", "D\ud800", "D800"),
        ],
        ids=["name", "region", "categories-string", "categories-list", "city", "state"],
    )
    def test_lone_surrogate_escape_is_fatal(self, field, value, code):
        good = json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a"})
        record = {"name": "y", "latitude": 1.0, "longitude": 2.0, "city": "c", "state": "s"}
        record[field] = value
        with pytest.raises(IngestError, match=f"^input line 2: field '{field}' holds a lone "
                                              f"surrogate U\\+{code}"):
            load_pois([good, json.dumps(record), good])

    def test_surrogate_pair_escape_is_one_character(self):
        line = json.dumps({"name": "\U0001f600 cafe", "latitude": 1.0, "longitude": 2.0,
                           "region": "a"})
        assert "\\ud83d\\ude00" in line
        (record,) = load_pois([line]).records
        assert record.name == "\U0001f600 cafe"

    def test_bad_label_seen_twice_is_named_at_its_first_line(self):
        good = json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a"})
        bad = json.dumps({"name": "y", "latitude": 1.0, "longitude": 2.0, "region": "a\tb"})
        with pytest.raises(IngestError, match="input line 2: region label"):
            load_pois([good, bad, good, bad])

    def test_equal_labels_and_categories_share_one_object(self):
        mapping = {("dunecity", "dz"): "desertville"}
        lines = [
            json.dumps({"name": f"n{i}", "latitude": 1.0, "longitude": 2.0, **where,
                        "categories": categories})
            for i, (where, categories) in enumerate(
                [({"region": "lakecity"}, ["Food", "Bars"]),
                 ({"region": " lakecity "}, ["Food", "Bars"]),
                 ({"city": "Dunecity", "state": "DZ"}, "Food, Nightlife"),
                 ({"city": "dunecity", "state": "dz"}, "Food, Nightlife")]
            )
        ]
        a, b, c, d = load_pois(lines, region_mapping=mapping).records
        assert a.region_id == "lakecity" and a.region_id is b.region_id
        assert c.region_id == "desertville" and c.region_id is d.region_id
        assert a.categories == frozenset({"Food", "Bars"}) and a.categories is b.categories
        assert c.categories == frozenset({"Food", "Nightlife"}) and c.categories is d.categories

    def test_label_equal_to_a_categories_string_keeps_its_own_value(self):
        lines = [
            json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "Food",
                        "categories": "Food"}),
            json.dumps({"name": "y", "latitude": 1.0, "longitude": 2.0, "region": "Bars",
                        "categories": "Bars"}),
            json.dumps({"name": "z", "latitude": 1.0, "longitude": 2.0, "region": "Food",
                        "categories": "Bars"}),
        ]
        records = load_pois(lines).records
        assert [r.region_id for r in records] == ["Food", "Bars", "Food"]
        assert all(type(r.region_id) is str for r in records)
        assert [r.categories for r in records] == [
            frozenset({"Food"}), frozenset({"Bars"}), frozenset({"Bars"})
        ]

    def test_held_bytes_per_record(self):
        # about 360 B per record, its tokens included, when labels and
        # category sets are shared, and about 400 B more when every record
        # holds its own copies
        labels = [f"region{r}" for r in range(10)]
        categories = [["Food", f"Kind {c}"] for c in range(20)]
        lines = [
            json.dumps({"name": f"Poi {i}", "latitude": 1.0 + i * 1e-4, "longitude": 2.0,
                        "region": labels[i % 10], "categories": categories[i % 20]})
            for i in range(2000)
        ]
        tracemalloc.start()
        try:
            result = load_pois(lines)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.accepted == 2000
        assert held / result.accepted < 400

    def test_byte_order_mark_is_dropped(self, tmp_path):
        line = json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a"})
        path = tmp_path / "pois.ndjson"
        path.write_text("\ufeff" + line + "\n" + line + "\n", encoding="utf-8")
        result = load_pois(path)
        assert result.rejections == []
        assert [r.name for r in result.records] == ["x", "x"]

    def test_bare_carriage_return_is_not_a_line_end(self, tmp_path):
        # JSON reads "\r" between tokens as whitespace, so the first line is
        # one record, and the rejection on the next line is named line 2
        good = json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a"})
        bad = json.dumps({"name": "", "latitude": 1.0, "longitude": 2.0, "region": "a"})
        path = tmp_path / "pois.ndjson"
        path.write_bytes((good.replace(", ", ",\r", 1) + "\n" + bad + "\n").encode("utf-8"))
        result = load_pois(path)
        assert [r.name for r in result.records] == ["x"]
        assert result.rejections == [RejectedRecord(line=2, reason="missing or empty name")]

    def test_crlf_line_ends_load_as_lf_line_ends(self, tmp_path):
        lines = [json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a"}),
                 json.dumps({"name": "", "latitude": 1.0, "longitude": 2.0, "region": "a"}),
                 json.dumps({"name": "y", "latitude": 3.0, "longitude": 4.0, "region": "b"})]
        crlf, lf = tmp_path / "crlf.ndjson", tmp_path / "lf.ndjson"
        crlf.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
        lf.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
        result = load_pois(crlf)
        assert result == load_pois(lf)
        assert result.rejections == [RejectedRecord(line=2, reason="missing or empty name")]

    def test_unreadable_source_is_fatal(self, tmp_path):
        # the message names the path once, then the reason
        path = tmp_path / "does_not_exist.ndjson"
        with pytest.raises(IngestError,
                           match=f"^{re.escape(f'cannot read {path}: No such file or directory')}$"):
            load_pois(path)

    def test_non_utf8_byte_named_by_line_and_offset(self, tmp_path):
        # far past the decoder's first 8 KiB read, whose position is chunk-relative
        line = json.dumps({"name": "café", "latitude": 1.0, "longitude": 2.0, "region": "r"})
        path = tmp_path / "pois.ndjson"
        # the offset counts bytes: "é" before the bad byte takes two
        path.write_bytes(((line + "\n") * 400 + '{"name": "éb').encode("utf-8") + b'\xff"}\n')
        assert path.stat().st_size > 2 * 8192
        with pytest.raises(IngestError) as exc:
            load_pois(path)
        message = str(exc.value)
        assert str(path) in message
        assert "line 401, byte offset 13: 0xff is not valid UTF-8" in message


# text drawn with the characters the corpus file format must carry: tabs,
# line ends and separators, quotes, backslashes and non-ASCII text
_AWKWARD = st.one_of(
    st.sampled_from(["\t", "\n", "\r", "\u2028", "\x85", "\x0b", '"', "\\", ",", " ", "é", "東"]),
    st.characters(blacklist_categories=("Cs",)),
)
_NAMES = st.text(_AWKWARD, min_size=1, max_size=16).filter(str.strip)
# labels and categories hold no control character or line separator
_LABEL_CHARACTERS = st.characters(blacklist_categories=("Cs", "Cc"),
                                  blacklist_characters="\u2028\u2029")
_LABELS = st.text(_LABEL_CHARACTERS, min_size=1, max_size=8).filter(str.strip)
_CATEGORIES = st.text(st.one_of(st.sampled_from(['"', "\\", ",", " ", "é", "東"]),
                                _LABEL_CHARACTERS), max_size=8)


@st.composite
def poi_records(draw):
    name = draw(st.one_of(_NAMES, _NAMES.map(lambda name: '"' + name)))
    return PoiRecord(
        name=name,
        region_id=draw(_LABELS),
        latitude=draw(st.floats(min_value=-90.0, max_value=90.0)),
        longitude=draw(st.floats(min_value=-180.0, max_value=180.0)),
        categories=draw(st.frozensets(_CATEGORIES, max_size=3)),
        tokens=tokenize(name),
    )


def _fields(record: PoiRecord) -> tuple:
    # float.hex tells -0.0 from 0.0 and shows every bit
    return (record.name, record.region_id, record.latitude.hex(), record.longitude.hex(),
            record.categories, record.tokens)


class TestCorpusFile:
    @given(st.lists(poi_records(), max_size=8))
    def test_round_trip(self, records):
        lines = list(corpus_lines(records))
        # no "\n" inside a line, and no raw "\r", which read_corpus rejects
        assert not [line for line in lines if "\n" in line or "\r" in line]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.tsv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(line + "\n" for line in lines)
            back = read_corpus(path)
        assert [_fields(r) for r in back] == [_fields(r) for r in records]

    def test_equal_labels_and_categories_share_one_object(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        records = [rec(f"n{i}", region="lakecity", categories={"Food", "Bars"}) for i in range(2)]
        path.write_text("".join(line + "\n" for line in corpus_lines(records)), encoding="utf-8")
        a, b = read_corpus(path)
        assert a.region_id is b.region_id and a.categories is b.categories


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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("\ufeffdunecity,DZ\tdesertville\n", encoding="utf-8")
        assert read_region_mapping(path) == {("dunecity", "dz"): "desertville"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("no-comma-or-tab\n")
        with pytest.raises(IngestError):
            read_region_mapping(path)

    def test_key_given_again_with_another_label_names_both_lines(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("mesa,az\tphoenix\n# comment\n Mesa , AZ\ttucson\n")
        with pytest.raises(IngestError) as exc:
            read_region_mapping(path)
        assert str(exc.value) == (
            f"{path}:3: 'mesa,az' maps to 'tucson', but line 1 maps it to 'phoenix'")

    def test_exact_repeat_is_accepted(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("mesa,az\tphoenix\nMESA,az\t phoenix\n")
        assert read_region_mapping(path) == {("mesa", "az"): "phoenix"}

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
        with pytest.raises(EmptyCorpusError, match="^no records to partition$"):
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
        assert set(subsets) == {("a", "Food"), ("b", "Food")}

    def test_category_missing_in_one_region_excluded(self):
        records = self._records({("a", "Food"): 3, ("b", "Food"): 3, ("a", "Spa"): 5})
        subsets = typed_subsets(records, min_count=3, required_regions={"a", "b"})
        assert all(category == "Food" for _, category in subsets)

    def test_threshold_edge(self, caplog):
        records = self._records({("a", "Food"): 99, ("b", "Food"): 120})
        assert typed_subsets(records, min_count=100, required_regions={"a", "b"}) == {}
        # the caller reports the failure, so nothing is logged here
        assert caplog.records == []

    def test_multi_category_poi_lands_in_both_subsets(self):
        records = [rec(f"Joe {i}", categories={"Food", "Nightlife"}) for i in range(2)]
        subsets = typed_subsets(records, min_count=2, required_regions={"a"})
        assert set(subsets) == {("a", "Food"), ("a", "Nightlife")}
        assert all(len(documents) == 2 for documents in subsets.values())

    def test_min_count_validation(self):
        with pytest.raises(ValueError, match="^min_count must be >= 1, got 0$"):
            typed_subsets([rec("x")], required_regions={"a"}, min_count=0)

    def test_no_required_regions(self):
        with pytest.raises(EmptyCorpusError, match="^no regions to build typed subsets from$"):
            typed_subsets([rec("x")], required_regions=set(), min_count=1)

    def test_counts_use_raw_pois_by_default(self):
        records = [rec("Same Name", categories={"Food"}) for _ in range(4)]
        subsets = typed_subsets(records, min_count=4, required_regions={"a"})
        assert len(subsets[("a", "Food")]) == 4

    @given(
        st.lists(st.tuples(st.sampled_from("abc"), st.frozensets(st.sampled_from("FSN"))),
                 max_size=30),
        st.sets(st.sampled_from("abc"), min_size=1),
        st.integers(min_value=1, max_value=4),
    )
    def test_matches_brute_force(self, rows, required, min_count):
        # each name is distinct, so the documents show the record order
        records = [rec(f"n{i}", region=region, categories=categories)
                   for i, (region, categories) in enumerate(rows)]

        def documents(region, category):
            return [r.tokens for r in records
                    if r.region_id == region and category in r.categories]

        regions = sorted(required)
        expected = [
            (region, category, documents(region, category))
            for category in sorted({c for r in records for c in r.categories})
            if all(len(documents(region, category)) >= min_count for region in regions)
            for region in regions
        ]
        subsets = typed_subsets(records, required_regions=required, min_count=min_count)
        assert [(region, category, documents)
                for (region, category), documents in subsets.items()] == expected


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
