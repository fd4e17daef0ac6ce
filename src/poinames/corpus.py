"""Ingest of POI records, name tokenization, and corpus construction.

Records arrive as newline-delimited JSON. Each record needs a name,
coordinates, and a resolvable region: either an explicit region field or a
(city, state) pair looked up in an external region mapping.

Accepted records, with the tokens of each name, are written once as a
tab-separated corpus file (corpus_lines) that later stages read back with
read_corpus, so no stage parses JSON or tokenizes a name again.
"""

from __future__ import annotations

import json
import logging
import re
import sys
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import EmptyCorpusError, IngestError

log = logging.getLogger(__name__)

LAT_MIN, LAT_MAX = -90.0, 90.0
LON_MIN, LON_MAX = -180.0, 180.0

# Characters a region label may not hold: Unicode Cc (tab, newline and the
# other C0/C1 controls) plus the line and paragraph separators. Labels are
# written into tab-separated, line-oriented artifacts.
_LABEL_FORBIDDEN = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")

# A JSON escape of one half of a surrogate pair (\ud800 alone) decodes to a
# lone surrogate, which UTF-8 cannot encode, so no artifact could hold it.
_SURROGATE = re.compile("[\ud800-\udfff]")

_NO_CATEGORIES: frozenset[str] = frozenset()


def _check_no_surrogate(text: str, what: str) -> None:
    """Raise ValueError naming ``what`` if ``text`` holds a lone surrogate."""
    bad = _SURROGATE.search(text)
    if bad:
        raise ValueError(f"{what} holds a lone surrogate U+{ord(bad.group()):04X}, "
                         "which is not valid Unicode")


@dataclass(frozen=True, slots=True)
class PoiRecord:
    """One point of interest: raw name, region label, coordinates, categories.

    ``tokens`` is the tokenized name; a record built without it takes
    ``tokenize(name)``. Records loaded by one load_pois or read_corpus call
    share their region label and category set objects with every other
    record holding an equal value.
    """

    name: str
    region_id: str
    latitude: float
    longitude: float
    categories: frozenset[str] = _NO_CATEGORIES
    tokens: tuple[str, ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.tokens is None:
            object.__setattr__(self, "tokens", tokenize(self.name))


@dataclass
class RegionCorpus:
    """Tokenized POI-name documents for one region, one token tuple per name."""

    region_id: str
    documents: list[tuple[str, ...]]
    # each token's occurrences over the documents, counted once at construction
    counts: Counter[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.counts = Counter(token for doc in self.documents for token in doc)


@dataclass(frozen=True)
class Vocabulary:
    """Lexicographically ordered set of all terms, with term -> index lookup."""

    terms: tuple[str, ...]
    index: Mapping[str, int]

    def __len__(self) -> int:
        return len(self.terms)


@dataclass
class TypedSubset:
    """Documents of one region restricted to POIs carrying one category.

    A POI with several categories appears in one subset per category.
    """

    region_id: str
    category: str
    documents: list[tuple[str, ...]]


@dataclass(frozen=True)
class RejectedRecord:
    line: int
    reason: str


@dataclass
class LoadResult:
    """Accepted records plus a per-record rejection report."""

    records: list[PoiRecord]
    rejections: list[RejectedRecord] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        return len(self.records)

    @property
    def rejected(self) -> int:
        return len(self.rejections)


class _SeparatorTable(dict):
    """str.translate table that turns punctuation and symbols into spaces.

    Anything in Unicode categories P* or S* separates, everything else
    (letters, digits, marks) is kept. Each code point's outcome is stored
    on first sight, so later lookups are plain dict hits inside translate.
    """

    def __missing__(self, codepoint: int) -> str | int:
        value = " " if unicodedata.category(chr(codepoint))[0] in "PS" else codepoint
        self[codepoint] = value
        return value


_SEPARATORS = _SeparatorTable()


def tokenize(name: str) -> tuple[str, ...]:
    """Lowercase a name, replace punctuation/symbols with spaces, and split.

    Stop words and digits are kept. A name made entirely of punctuation
    yields the empty tuple. Tokens are interned, so every corpus holds one
    string per distinct term.
    """
    return tuple(map(sys.intern, name.lower().translate(_SEPARATORS).split()))


def read_region_mapping(path: str | Path) -> dict[tuple[str, str], str]:
    """Parse a (city,state) -> region mapping file.

    Two tab-separated columns per line: "city,state" and the region label.
    A city of "*" matches every city in that state. Keys are matched
    case-insensitively; blank lines and lines starting with # are skipped.
    A leading UTF-8 byte order mark is dropped. Lines end at "\n" only, so
    any other separator str.splitlines knows stays inside its label, where
    the region-label rule rejects it.
    """
    mapping: dict[tuple[str, str], str] = {}
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read region mapping {path}: {exc}") from exc
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestError(
                f"{path}:{lineno}: expected two tab-separated columns, got {len(parts)}"
            )
        key, region = parts
        city, sep, state = key.rpartition(",")
        if not sep or not state.strip() or not region.strip():
            raise IngestError(f"{path}:{lineno}: malformed mapping line {raw!r}")
        mapping[(city.strip().lower(), state.strip().lower())] = region.strip()
    if not mapping:
        raise IngestError(f"region mapping {path} is empty")
    return mapping


def _as_float(value: object) -> float | None:
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _categories(
    value: object, shared: dict[str | tuple[str, ...], frozenset[str]]
) -> frozenset[str]:
    """The category set of a comma-separated string or a list of strings.

    Sets are kept in ``shared``, keyed by the string or by the tuple of the
    list's string entries, so equal values give one set object.
    """
    if isinstance(value, str):
        key: str | tuple[str, ...] = value
    elif isinstance(value, (list, tuple)):
        key = tuple(p for p in value if isinstance(p, str))
    else:
        return _NO_CATEGORIES
    categories = shared.get(key)
    if categories is None:
        parts = key.split(",") if isinstance(key, str) else key
        categories = shared[key] = frozenset(p.strip() for p in parts if p and p.strip())
    return categories


def _resolve_region(
    raw: Mapping[str, object],
    mapping: Mapping[tuple[str, str], str] | None,
) -> tuple[str | None, str | None]:
    """Return (region, rejection_reason); exactly one is set."""
    region = raw.get("region")
    if isinstance(region, str) and region.strip():
        return region.strip(), None
    city = raw.get("city")
    state = raw.get("state")
    if not isinstance(city, str) or not isinstance(state, str):
        return None, "missing region and city/state"
    if mapping is None:
        return None, "record has city/state but no region mapping was supplied"
    key = (city.strip().lower(), state.strip().lower())
    label = mapping.get(key) or mapping.get(("*", key[1]))
    if label is None:
        return None, f"no region mapping for {city.strip()},{state.strip()}"
    return label, None


def load_pois(
    source: str | Path | Iterable[str],
    region_mapping: Mapping[tuple[str, str], str] | None = None,
) -> LoadResult:
    """Read newline-delimited JSON records into PoiRecords.

    Invalid records are rejected with a reason, never silently dropped.
    An unreadable or non-UTF-8 source, a region label (from the record
    or the mapping) holding a control character, or a lone surrogate
    escape in a name, region, city, state or category raises IngestError,
    naming the record as ``<path>:N`` for a file and ``input line N`` for
    an iterable of lines. A leading UTF-8 byte order mark in a file is
    dropped. Each accepted name is tokenized here, once.
    """
    result = LoadResult(records=[])
    if isinstance(source, (str, Path)):
        try:
            with open(source, encoding="utf-8-sig") as lines:
                _load_lines(lines, region_mapping, result, f"{source}:")
        except UnicodeDecodeError as exc:
            where = _locate_bad_byte(source)
            raise IngestError(f"cannot read POI source {source}: {where}") from exc
        except OSError as exc:
            raise IngestError(f"cannot read POI source {source}: {exc}") from exc
    else:
        _load_lines(source, region_mapping, result, "input line ")
    return result


def _locate_bad_byte(path: str | Path) -> str:
    """Name the line and in-line byte offset of a file's first non-UTF-8 byte.

    The decoder reports positions within its read chunk, so the file is
    read again with each undecodable byte escaped to U+DC80..U+DCFF.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as lines:
        for lineno, line in enumerate(lines, start=1):
            bad = re.search("[\udc80-\udcff]", line)
            if bad:
                offset = len(line[: bad.start()].encode("utf-8"))
                byte = ord(bad.group()) - 0xDC00
                return f"line {lineno}, byte offset {offset}: 0x{byte:02x} is not valid UTF-8"
    return "not valid UTF-8"


def _load_lines(
    lines: Iterable[str],
    mapping: Mapping[tuple[str, str], str] | None,
    result: LoadResult,
    where: str,
) -> None:
    """Load each line into ``result``; ``where`` prefixes a line number in errors."""
    # One table per kind of shared value: a label and a categories string
    # that are equal must still give a str and a frozenset respectively.
    labels: dict[str, str] = {}
    category_sets: dict[str | tuple[str, ...], frozenset[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        reason = _load_one(line, where, lineno, mapping, labels, category_sets, result.records)
        if reason is not None:
            result.rejections.append(RejectedRecord(line=lineno, reason=reason))


def _load_one(
    line: str,
    where: str,
    lineno: int,
    mapping: Mapping[tuple[str, str], str] | None,
    labels: dict[str, str],
    category_sets: dict[str | tuple[str, ...], frozenset[str]],
    out: list[PoiRecord],
) -> str | None:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError:
        return "malformed record"
    if not isinstance(raw, dict):
        return "record is not an object"
    if "\\u" in line:  # only an escape can decode to a surrogate
        for key in ("name", "region", "city", "state", "categories"):
            try:
                _check_no_surrogate(json.dumps(raw.get(key), ensure_ascii=False), f"field {key!r}")
            except ValueError as exc:
                raise IngestError(f"{where}{lineno}: {exc}") from None

    name = raw.get("name")
    if not isinstance(name, str) or not name.strip():
        return "missing or empty name"

    lat = _as_float(raw.get("latitude"))
    lon = _as_float(raw.get("longitude"))
    if lat is None:
        return "missing or invalid latitude"
    if lon is None:
        return "missing or invalid longitude"
    if not LAT_MIN <= lat <= LAT_MAX:
        return "latitude out of range"
    if not LON_MIN <= lon <= LON_MAX:
        return "longitude out of range"

    region, reason = _resolve_region(raw, mapping)
    if region is None:
        return reason
    label = labels.get(region)
    if label is None:
        # checked on first sight, so a bad label is named at its first line
        if _LABEL_FORBIDDEN.search(region):
            raise IngestError(
                f"{where}{lineno}: region label {region!r} contains a control character"
            )
        label = labels[region] = region

    name = name.strip()
    out.append(
        PoiRecord(
            name=name,
            region_id=label,
            latitude=lat,
            longitude=lon,
            categories=_categories(raw.get("categories"), category_sets),
            tokens=tokenize(name),
        )
    )
    return None


CORPUS_HEADER = "region\tlatitude\tlongitude\tcategories\ttokens\tname"


def corpus_lines(records: Iterable[PoiRecord]) -> Iterator[str]:
    r"""The lines of a corpus file holding ``records``, without line ends.

    A header, then one tab-separated row per record: the region label, the
    coordinates as repr, the categories as a sorted JSON list, the tokens
    joined by single spaces, and the name. The name comes last, so it may
    hold tabs; it is written as a JSON string if it holds "\n" or "\r" or
    starts with '"'. Labels must pass ingest's label rule.
    """
    yield CORPUS_HEADER
    category_cells: dict[frozenset[str], str] = {}
    for r in records:
        categories = category_cells.get(r.categories)
        if categories is None:
            categories = category_cells[r.categories] = json.dumps(
                sorted(r.categories), ensure_ascii=False
            )
        name = r.name
        if "\n" in name or "\r" in name or name.startswith('"'):
            name = json.dumps(name, ensure_ascii=False)
        tokens = " ".join(r.tokens)
        yield f"{r.region_id}\t{r.latitude!r}\t{r.longitude!r}\t{categories}\t{tokens}\t{name}"


def read_corpus(path: str | Path) -> list[PoiRecord]:
    """Read a corpus file written from corpus_lines back into PoiRecords.

    Every row is checked: a wrong header or column count, a line without
    its line end, a bad coordinate, label, categories cell, token or name,
    or a byte that is not UTF-8 raises IngestError naming ``<path>:<line>``.
    Records share their label and category set objects as load_pois's do.
    """
    records: list[PoiRecord] = []
    labels: dict[str, str] = {}
    category_sets: dict[str, frozenset[str]] = {}
    try:
        # lines end at "\n" only; any other line separator stays in its cell
        with open(path, encoding="utf-8", newline="\n") as lines:
            if next(lines, "") != CORPUS_HEADER + "\n":
                raise IngestError(f"{path}:1: expected the header {CORPUS_HEADER!r}")
            for lineno, line in enumerate(lines, start=2):
                try:
                    records.append(_corpus_record(line, labels, category_sets))
                except ValueError as exc:
                    raise IngestError(f"{path}:{lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise IngestError(f"cannot read {path}: {_locate_bad_byte(path)}") from exc
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    return records


def _corpus_record(
    line: str, labels: dict[str, str], category_sets: dict[str, frozenset[str]]
) -> PoiRecord:
    """One corpus row as a record; a ValueError says what is wrong with the row."""
    cells = line.split("\t", 5)
    if len(cells) != 6:
        raise ValueError(f"expected 6 tab-separated columns, got {len(cells)}")
    region, lat_cell, lon_cell, categories_cell, tokens_cell, name = cells
    if not name.endswith("\n"):
        raise ValueError("the last line has no line end, so the file is cut short")
    name = name[:-1]

    label = labels.get(region)
    if label is None:
        if not region.strip():
            raise ValueError("empty region label")
        if _LABEL_FORBIDDEN.search(region):
            raise ValueError(f"region label {region!r} contains a control character")
        label = labels[region] = region

    try:
        lat, lon = float(lat_cell), float(lon_cell)
    except ValueError:
        raise ValueError(f"coordinates {lat_cell!r}, {lon_cell!r} are not numbers") from None
    if not (LAT_MIN <= lat <= LAT_MAX and LON_MIN <= lon <= LON_MAX):
        raise ValueError(f"coordinates {lat_cell}, {lon_cell} are not finite or out of range")

    categories = category_sets.get(categories_cell)
    if categories is None:
        categories = category_sets[categories_cell] = _category_set(categories_cell)

    tokens = tuple(map(sys.intern, tokens_cell.split(" "))) if tokens_cell else ()
    if "" in tokens:
        raise ValueError(f"tokens {tokens_cell!r} are not separated by single spaces")

    if name.startswith('"'):
        try:
            name = json.loads(name)
        except json.JSONDecodeError:
            name = None
        if not isinstance(name, str):
            raise ValueError("a name starting with '\"' must be one JSON string")
        _check_no_surrogate(name, "name")
    if not name.strip():
        raise ValueError("empty name")

    return PoiRecord(name, label, lat, lon, categories, tokens)


def _category_set(cell: str) -> frozenset[str]:
    """The categories of one corpus cell, a JSON list of strings."""
    try:
        value = json.loads(cell)
    except json.JSONDecodeError:
        value = None
    if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
        raise ValueError(f"categories {cell!r} are not a JSON list of strings")
    for category in value:
        _check_no_surrogate(category, f"category {category!r}")
    return frozenset(value)


def partition_by_region(
    records: Sequence[PoiRecord], dedup: bool
) -> dict[str, RegionCorpus]:
    """Group tokenized names by region, optionally collapsing exact duplicates.

    The dedup key is the normalized token sequence, so names differing only
    in case or punctuation collapse together. Returned dict is ordered by
    region id.
    """
    if not records:
        raise EmptyCorpusError("no records to partition")
    by_region: dict[str, list[tuple[str, ...]]] = defaultdict(list)
    seen: dict[str, set[tuple[str, ...]]] = defaultdict(set)
    for record in records:
        doc = record.tokens
        if dedup:
            if doc in seen[record.region_id]:
                continue
            seen[record.region_id].add(doc)
        by_region[record.region_id].append(doc)
    return {
        region: RegionCorpus(region_id=region, documents=by_region[region])
        for region in sorted(by_region)
    }


def typed_subsets(
    records: Sequence[PoiRecord],
    required_regions: Iterable[str],
    min_count: int = 100,
) -> list[TypedSubset]:
    """Split records into per-(region, category) document subsets.

    Only categories present with at least ``min_count`` POIs in *every*
    required region survive; a POI carrying several categories lands in
    several subsets. Returned subsets are ordered by (category, region).
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    regions = sorted(required_regions)
    if not regions:
        raise EmptyCorpusError("no regions to build typed subsets from")

    counts: dict[tuple[str, str], int] = defaultdict(int)
    categories: set[str] = set()
    region_set = set(regions)
    for record in records:
        if record.region_id not in region_set:
            continue
        for category in record.categories:
            counts[(record.region_id, category)] += 1
            categories.add(category)

    kept = sorted(
        cat
        for cat in categories
        if all(counts[(region, cat)] >= min_count for region in regions)
    )
    if not kept:
        log.warning(
            "no category reaches %d POIs in all %d regions", min_count, len(regions)
        )
        return []

    docs: dict[tuple[str, str], list[tuple[str, ...]]] = {
        (region, cat): [] for cat in kept for region in regions
    }
    kept_set = set(kept)
    for record in records:
        if record.region_id not in region_set:
            continue
        for category in record.categories:
            if category in kept_set:
                docs[(record.region_id, category)].append(record.tokens)

    return [
        TypedSubset(region_id=region, category=cat, documents=docs[(region, cat)])
        for cat in kept
        for region in regions
    ]


def build_vocabulary(corpora: Iterable[RegionCorpus]) -> Vocabulary:
    """Union of all tokens, lexicographically ordered (deterministic)."""
    terms: set[str] = set()
    n_docs = 0
    for corpus in corpora:
        n_docs += len(corpus.documents)
        terms.update(corpus.counts)
    if n_docs == 0:
        raise EmptyCorpusError("empty corpus")
    ordered = tuple(sorted(terms))
    return Vocabulary(terms=ordered, index={t: i for i, t in enumerate(ordered)})
