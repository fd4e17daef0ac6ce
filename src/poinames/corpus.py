"""Ingest of POI records, name tokenization, and corpus construction.

Records arrive as newline-delimited JSON. Each record needs a name,
coordinates, and a resolvable region: either an explicit region field or a
(city, state) pair looked up in an external region mapping.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import EmptyCorpusError, IngestError

log = logging.getLogger(__name__)

LAT_MIN, LAT_MAX = -90.0, 90.0
LON_MIN, LON_MAX = -180.0, 180.0

# Characters a region label may not hold: Unicode Cc (tab, newline and the
# other C0/C1 controls) plus the line and paragraph separators. Labels are
# written into tab-separated, line-oriented artifacts.
_LABEL_FORBIDDEN = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


@dataclass(frozen=True)
class PoiRecord:
    """One point of interest: raw name, region label, coordinates, categories."""

    name: str
    region_id: str
    latitude: float
    longitude: float
    categories: frozenset[str] = frozenset()


@dataclass(frozen=True)
class TokenizedName:
    """Normalized token sequence for one POI name."""

    tokens: tuple[str, ...]

    @property
    def empty(self) -> bool:
        """True when the name consisted solely of punctuation/whitespace."""
        return not self.tokens


@dataclass
class RegionCorpus:
    """Tokenized POI-name documents for one region."""

    region_id: str
    documents: list[TokenizedName]
    dedup_applied: bool


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
    documents: list[TokenizedName]


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


def tokenize(name: str) -> TokenizedName:
    """Lowercase a name, replace punctuation/symbols with spaces, and split.

    Stop words and digits are kept. A name made entirely of punctuation
    yields an empty token tuple (see TokenizedName.empty).
    """
    cleaned = name.lower().translate(_SEPARATORS)
    return TokenizedName(tokens=tuple(cleaned.split()))


def read_region_mapping(path: str | Path) -> dict[tuple[str, str], str]:
    """Parse a (city,state) -> region mapping file.

    Two tab-separated columns per line: "city,state" and the region label.
    A city of "*" matches every city in that state. Keys are matched
    case-insensitively; blank lines and lines starting with # are skipped.
    Lines end at "\n" only, so any other separator str.splitlines knows
    stays inside its label, where the region-label rule rejects it.
    """
    mapping: dict[tuple[str, str], str] = {}
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
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


def _categories(value: object) -> frozenset[str]:
    if value is None:
        return frozenset()
    if isinstance(value, str):
        parts = value.split(",")
    elif isinstance(value, (list, tuple)):
        parts = [str(p) for p in value]
    else:
        return frozenset()
    return frozenset(p.strip() for p in parts if p and p.strip())


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
    An unreadable or non-UTF-8 source, or a region label (from the record
    or the mapping) holding a control character, raises IngestError.
    """
    result = LoadResult(records=[])
    if isinstance(source, (str, Path)):
        try:
            with open(source, encoding="utf-8") as lines:
                _load_lines(lines, region_mapping, result)
        except (OSError, UnicodeDecodeError) as exc:
            raise IngestError(f"cannot read POI source {source}: {exc}") from exc
    else:
        _load_lines(source, region_mapping, result)
    return result


def _load_lines(
    lines: Iterable[str],
    mapping: Mapping[tuple[str, str], str] | None,
    result: LoadResult,
) -> None:
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        reason = _load_one(line, lineno, mapping, result.records)
        if reason is not None:
            result.rejections.append(RejectedRecord(line=lineno, reason=reason))


def _load_one(
    line: str,
    lineno: int,
    mapping: Mapping[tuple[str, str], str] | None,
    out: list[PoiRecord],
) -> str | None:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError:
        return "malformed record"
    if not isinstance(raw, dict):
        return "record is not an object"

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
    if _LABEL_FORBIDDEN.search(region):
        raise IngestError(
            f"input line {lineno}: region label {region!r} contains a control character"
        )

    out.append(
        PoiRecord(
            name=name.strip(),
            region_id=region,
            latitude=lat,
            longitude=lon,
            categories=_categories(raw.get("categories")),
        )
    )
    return None


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
    by_region: dict[str, list[TokenizedName]] = defaultdict(list)
    seen: dict[str, set[tuple[str, ...]]] = defaultdict(set)
    for record in records:
        doc = tokenize(record.name)
        if dedup:
            if doc.tokens in seen[record.region_id]:
                continue
            seen[record.region_id].add(doc.tokens)
        by_region[record.region_id].append(doc)
    return {
        region: RegionCorpus(region_id=region, documents=by_region[region], dedup_applied=dedup)
        for region in sorted(by_region)
    }


def typed_subsets(
    records: Sequence[PoiRecord],
    min_count: int = 100,
    required_regions: Iterable[str] | None = None,
    dedup: bool = False,
) -> list[TypedSubset]:
    """Split records into per-(region, category) document subsets.

    Only categories present with at least ``min_count`` POIs in *every*
    required region survive; a POI carrying several categories lands in
    several subsets. Returned subsets are ordered by (category, region).
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    regions = sorted(required_regions) if required_regions is not None else sorted(
        {r.region_id for r in records}
    )
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

    docs: dict[tuple[str, str], list[TokenizedName]] = {
        (region, cat): [] for cat in kept for region in regions
    }
    seen: dict[tuple[str, str], set[tuple[str, ...]]] = defaultdict(set)
    kept_set = set(kept)
    for record in records:
        if record.region_id not in region_set:
            continue
        doc = tokenize(record.name)
        for category in record.categories:
            if category not in kept_set:
                continue
            key = (record.region_id, category)
            if dedup:
                if doc.tokens in seen[key]:
                    continue
                seen[key].add(doc.tokens)
            docs[key].append(doc)

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
        for doc in corpus.documents:
            terms.update(doc.tokens)
    if n_docs == 0:
        raise EmptyCorpusError("empty corpus")
    ordered = tuple(sorted(terms))
    return Vocabulary(terms=ordered, index={t: i for i, t in enumerate(ordered)})
