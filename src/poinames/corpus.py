"""Ingest of POI records, name tokenization, and corpus construction.

Records arrive as newline-delimited JSON. Each record needs a name,
coordinates, and a resolvable region: either an explicit region field or a
(city, state) pair looked up in an external region mapping.

Accepted records, with the tokens of each name, are written once as a
tab-separated corpus file (corpus_lines) that later stages read back with
read_corpus, so no stage parses JSON or tokenizes a name again.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import reprlib
import sys
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import EmptyCorpusError, IngestError

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


# what _loads returns for a text json.loads cannot decode; JSON null is None
_UNDECODABLE = object()


def _loads(text: str) -> object:
    """The value of a JSON text, or _UNDECODABLE if json.loads cannot decode it.

    Besides malformed JSON, that is an integer longer than
    sys.get_int_max_str_digits() and nesting past the recursion limit.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # JSONDecodeError is a ValueError
        return _UNDECODABLE


def _label(region: str, labels: dict[str, str]) -> str:
    """The shared object for a region label, checked on first sight: ValueError if bad."""
    label = labels.get(region)
    if label is None:
        if not region.strip():
            raise ValueError("empty region label")
        _check_no_control(region, "region label")
        label = labels[region] = region
    return label


def _check_no_control(text: str, what: str) -> None:
    """Raise ValueError naming ``what`` if ``text`` holds a character _LABEL_FORBIDDEN matches."""
    if _LABEL_FORBIDDEN.search(text):
        raise ValueError(f"{what} {reprlib.repr(text)} contains a control character")


def _check_no_surrogate(text: str, what: str) -> None:
    """Raise ValueError naming ``what`` if ``text`` holds a lone surrogate."""
    bad = _SURROGATE.search(text)
    if bad:
        raise ValueError(f"{what} holds a lone surrogate U+{ord(bad.group()):04X}, "
                         "which is not valid Unicode")


@dataclass(frozen=True, slots=True)
class PoiRecord:
    """One point of interest: raw name, region label, coordinates, categories, tokens.

    ``tokens`` is ``tokenize(name)``, computed once at ingest. Records loaded
    by one load_pois or read_corpus call share their region label and
    category set objects with every other record holding an equal value.
    """

    name: str
    region_id: str
    latitude: float
    longitude: float
    categories: frozenset[str]
    tokens: tuple[str, ...]


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
    A key given again with another label raises IngestError naming both lines.
    The file is read with read_lines as a user file, so any other separator
    str.splitlines knows, a bare "\r" included, stays inside its label,
    where the region-label rule rejects it.
    """
    mapping: dict[tuple[str, str], str] = {}
    first_line: dict[tuple[str, str], int] = {}
    for lineno, raw in read_lines(path, artifact=False):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestError(
                f"{path}:{lineno}: expected two tab-separated columns, got {len(parts)}"
            )
        city, sep, state = parts[0].rpartition(",")
        region = parts[1].strip()
        if not sep or not state.strip() or not region:
            raise IngestError(f"{path}:{lineno}: malformed mapping line {reprlib.repr(raw)}")
        key = (city.strip().lower(), state.strip().lower())
        if mapping.setdefault(key, region) != region:
            raise IngestError(
                f"{path}:{lineno}: {reprlib.repr(','.join(key))} maps to {reprlib.repr(region)}, "
                f"but line {first_line[key]} maps it to {reprlib.repr(mapping[key])}"
            )
        first_line.setdefault(key, lineno)
    if not mapping:
        raise IngestError(f"region mapping {path} is empty")
    return mapping


def _as_float(value: object) -> float | None:
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        return None


def _categories(
    value: object, shared: dict[str | tuple[str, ...], frozenset[str]]
) -> frozenset[str]:
    """The category set of a comma-separated string or a list of strings.

    Sets are kept in ``shared``, keyed by the string or by the tuple of the
    list's string entries, so equal values give one set object. A category
    breaks the region-label rule: ValueError naming the first one.
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
        kept = [p.strip() for p in parts if p and p.strip()]
        for category in kept:
            _check_no_control(category, "category")
        categories = shared[key] = frozenset(kept)
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
        # quoted if it holds a tab or line break, so the rejections.tsv row stays one row
        where = f"{city.strip()},{state.strip()}"
        if _LABEL_FORBIDDEN.search(where):
            where = reprlib.repr(where)
        return None, f"no region mapping for {where}"
    return label, None


def load_pois(
    source: str | Path | Iterable[str],
    region_mapping: Mapping[tuple[str, str], str] | None = None,
) -> LoadResult:
    """Read newline-delimited JSON records into PoiRecords.

    Invalid records are rejected with a reason, never silently dropped.
    A file is read with read_lines as a user file. An unreadable or
    non-UTF-8 source, a region label (from the record or the mapping) or
    a category holding a control character, or a lone surrogate escape in
    a name, region, city, state or category raises IngestError, naming the
    record as ``<path>:N`` for a file and ``input line N`` for an iterable
    of lines. Each accepted name is tokenized here, once.
    """
    if isinstance(source, (str, Path)):
        lines, where = read_lines(source, artifact=False), f"{source}:"
    else:
        lines, where = enumerate(source, start=1), "input line "
    result = LoadResult(records=[])
    # One table per kind of shared value: a label and a categories string
    # that are equal must still give a str and a frozenset respectively.
    labels: dict[str, str] = {}
    category_sets: dict[str | tuple[str, ...], frozenset[str]] = {}
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            reason = _load_one(line, region_mapping, labels, category_sets, result.records)
        except ValueError as exc:
            raise IngestError(f"{where}{lineno}: {exc}") from None
        if reason is not None:
            result.rejections.append(RejectedRecord(line=lineno, reason=reason))
    return result


def _load_one(
    line: str,
    mapping: Mapping[tuple[str, str], str] | None,
    labels: dict[str, str],
    category_sets: dict[str | tuple[str, ...], frozenset[str]],
    out: list[PoiRecord],
) -> str | None:
    """Append one line's record to ``out`` or return why it is rejected; ValueError if fatal."""
    raw = _loads(line)
    if raw is _UNDECODABLE:
        return "malformed record"
    if not isinstance(raw, dict):
        return "record is not an object"
    if "\\u" in line:  # only an escape can decode to a surrogate
        for key in ("name", "region", "city", "state", "categories"):
            _check_no_surrogate(json.dumps(raw.get(key), ensure_ascii=False), f"field {key!r}")

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

    name = name.strip()
    out.append(
        PoiRecord(
            name=name,
            region_id=_label(region, labels),
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


def write_lines(path: str | Path, lines: Iterable[str]) -> Path:
    """Write each line followed by "\n" to a hidden ".<name>.tmp" beside ``path``; return it.

    The caller puts the file in place with os.replace, so no reader sees
    ``path`` cut short. If ``lines`` or the write fails, the hidden file is
    removed if it can be, and an OSError raises IngestError naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise IngestError(f"cannot write {path}: {exc.strerror}") from exc
        raise
    return tmp


def read_lines(path: str | Path, *, artifact: bool) -> Iterator[tuple[int, str]]:
    r"""Yield (line number, line without its "\n") for each line of a UTF-8 file.

    Lines end at "\n" only, so a "\r" stays in its line. A byte that is not
    UTF-8 raises IngestError naming the line and the byte offset within it.
    A user file (``artifact=False``) may start with a byte order mark, which
    is dropped, and may end without "\n". An artifact, as write_lines writes
    it, may not: IngestError says it is cut short once its last line is checked.
    """
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise IngestError(
                        f"cannot read {path}: line {lineno}, byte offset {exc.start}: "
                        f"0x{raw[exc.start]:02x} is not valid UTF-8"
                    ) from None
                if lineno == 1 and not artifact:
                    line = line.removeprefix("\ufeff")
                if line.endswith("\n"):
                    yield lineno, line[:-1]
                else:
                    yield lineno, line
                    if artifact:
                        raise IngestError(
                            f"{path}:{lineno}: the last line has no line end, "
                            "so the file is cut short"
                        )
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror}") from exc


def read_corpus(path: str | Path) -> list[PoiRecord]:
    """Read a corpus file written from corpus_lines back into PoiRecords.

    The file is read with read_lines as an artifact. Every row is checked:
    a wrong header or column count, a raw "\r", a bad coordinate, label,
    categories cell, token or name raises IngestError naming
    ``<path>:<line>``. Records share their label and category set objects
    as load_pois's do.
    """
    records: list[PoiRecord] = []
    labels: dict[str, str] = {}
    category_sets: dict[str, frozenset[str]] = {}
    lines = read_lines(path, artifact=True)
    if next(lines, (1, None))[1] != CORPUS_HEADER:
        raise IngestError(f"{path}:1: expected the header {CORPUS_HEADER!r}")
    for lineno, line in lines:
        try:
            records.append(_corpus_record(line, labels, category_sets))
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from None
    return records


def _corpus_record(
    line: str, labels: dict[str, str], category_sets: dict[str, frozenset[str]]
) -> PoiRecord:
    """One corpus row as a record; a ValueError says what is wrong with the row."""
    if "\r" in line:  # corpus_lines writes a name holding one as a JSON string
        raise ValueError("the row holds a raw carriage return, which corpus_lines never writes")
    cells = line.split("\t", 5)
    if len(cells) != 6:
        raise ValueError(f"expected 6 tab-separated columns, got {len(cells)}")
    region, lat_cell, lon_cell, categories_cell, tokens_cell, name = cells

    label = _label(region, labels)

    try:
        lat, lon = float(lat_cell), float(lon_cell)
    except ValueError:
        raise ValueError(
            f"coordinates {reprlib.repr(lat_cell)}, {reprlib.repr(lon_cell)} are not numbers"
        ) from None
    if not (LAT_MIN <= lat <= LAT_MAX and LON_MIN <= lon <= LON_MAX):
        raise ValueError(f"coordinates {lat}, {lon} are not finite or out of range")

    categories = category_sets.get(categories_cell)
    if categories is None:
        categories = category_sets[categories_cell] = _category_set(categories_cell)

    tokens = tuple(map(sys.intern, tokens_cell.split(" "))) if tokens_cell else ()
    if "" in tokens:
        raise ValueError(f"tokens {reprlib.repr(tokens_cell)} are not separated by single spaces")

    if name.startswith('"'):
        name = _loads(name)
        if not isinstance(name, str):
            raise ValueError("a name starting with '\"' must be one JSON string")
        _check_no_surrogate(name, "name")
    if not name.strip():
        raise ValueError("empty name")

    return PoiRecord(name, label, lat, lon, categories, tokens)


def _category_set(cell: str) -> frozenset[str]:
    """The categories of one corpus cell, a JSON list of strings."""
    value = _loads(cell)
    if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
        raise ValueError(f"categories {reprlib.repr(cell)} are not a JSON list of strings")
    for category in value:
        _check_no_surrogate(category, f"category {reprlib.repr(category)}")
        _check_no_control(category, "category")
    return frozenset(value)


def parse_numbers(cells: Sequence[str], count: int) -> list[float]:
    """The ``count`` finite numbers in ``cells``; a ValueError quotes a bad cell shortened."""
    if len(cells) != count:
        raise ValueError(f"expected {count} values, got {len(cells)}")
    try:
        numbers = [float(c) for c in cells]
    except ValueError:
        bad = next(c for c in cells if _as_float(c) is None)
        raise ValueError(f"could not convert string to float: {reprlib.repr(bad)}") from None
    if not all(map(math.isfinite, numbers)):
        raise ValueError("non-finite value")
    return numbers


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
) -> dict[tuple[str, str], list[tuple[str, ...]]]:
    """Map (region, category) to the documents of the region's POIs carrying the category.

    Only categories present with at least ``min_count`` POIs in *every*
    required region survive; a POI carrying several categories lands in
    several subsets. Keys are ordered by (category, region), and the dict
    is empty when no category survives.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    regions = sorted(required_regions)
    if not regions:
        raise EmptyCorpusError("no regions to build typed subsets from")

    region_set = set(regions)
    docs: dict[tuple[str, str], list[tuple[str, ...]]] = defaultdict(list)
    for record in records:
        if record.region_id in region_set:
            for category in record.categories:
                docs[(record.region_id, category)].append(record.tokens)

    kept = sorted(
        cat
        for cat in {cat for _, cat in docs}
        if all(len(docs.get((region, cat), ())) >= min_count for region in regions)
    )
    return {(region, cat): docs[(region, cat)] for cat in kept for region in regions}


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
