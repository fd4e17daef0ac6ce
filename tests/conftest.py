"""Shared fixtures: small hand-built corpora and a synthetic POI dataset."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from poinames.corpus import PoiRecord, RegionCorpus, tokenize

# Three fake metros with distinct local flavour, pairwise-shared terms so
# TF-IDF similarities stay positive, and a core vocabulary used everywhere.
REGION_COORDS = {
    "desertville": (33.45, -112.07),
    "lakecity": (41.50, -81.70),
    "hillton": (40.44, -79.99),
}

_CORE = ["pizza", "auto care", "grill", "hotel", "nails", "salon", "bar"]
_LOCAL = {
    "desertville": ["desert", "cactus", "dunes"],
    "lakecity": ["lake", "erie", "shore"],
    "hillton": ["steel", "rivers", "summit"],
}
# terms shared by exactly two regions
_SHARED_PAIRS = {
    "desertville": ["grand", "union"],
    "lakecity": ["grand", "harbor"],
    "hillton": ["union", "harbor"],
}
_CATEGORIES = ["Food", "Automotive", "Hotels"]


def synthetic_records() -> list[PoiRecord]:
    """Deterministic synthetic corpus: 3 regions x 36 POIs."""
    records = []
    for region, (lat, lon) in sorted(REGION_COORDS.items()):
        local = _LOCAL[region]
        shared = _SHARED_PAIRS[region]
        for i in range(36):
            core = _CORE[i % len(_CORE)]
            if i % 3 == 0:
                name = f"{local[(i // 3) % len(local)].title()} {core.title()}"
            elif i % 5 == 0:
                name = f"{shared[i % len(shared)].title()} {core.title()}"
            else:
                name = f"{core.title()} No {i}"
            category = _CATEGORIES[i % len(_CATEGORIES)]
            records.append(
                PoiRecord(
                    name=name,
                    region_id=region,
                    latitude=lat + (i % 7) * 0.01,
                    longitude=lon + (i % 5) * 0.01,
                    categories=frozenset({category}),
                    tokens=tokenize(name),
                )
            )
        # repeated chain outlets: identical names that dedup collapses
        for j in range(3):
            records.append(
                PoiRecord(
                    name="MegaMart",
                    region_id=region,
                    latitude=lat,
                    longitude=lon + j * 0.001,
                    categories=frozenset({"Food"}),
                    tokens=tokenize("MegaMart"),
                )
            )
    return records


def corpora_from(names_by_region: dict[str, list[str]], dedup: bool = False) -> dict[str, RegionCorpus]:
    """Build corpora straight from name lists, bypassing record ingestion."""
    out = {}
    for region in sorted(names_by_region):
        docs = [tokenize(n) for n in names_by_region[region]]
        if dedup:
            seen = set()
            kept = []
            for d in docs:
                if d in seen:
                    continue
                seen.add(d)
                kept.append(d)
            docs = kept
        out[region] = RegionCorpus(region_id=region, documents=docs)
    return out


@pytest.fixture
def records():
    return synthetic_records()


def write_dataset(tmp_path: Path, include_bad_records: bool = True) -> tuple[Path, Path]:
    """Write the synthetic corpus as NDJSON + a region mapping file.

    Records carry city/state instead of an explicit region so the mapping
    path is exercised; a few invalid records are appended to test the
    rejection report.
    """
    cities = {
        "desertville": ("dunecity", "DZ"),
        "lakecity": ("portside", "LK"),
        "hillton": ("hillside", "HL"),
    }
    lines = []
    for record in synthetic_records():
        city, state = cities[record.region_id]
        lines.append(
            json.dumps(
                {
                    "name": record.name,
                    "city": city,
                    "state": state,
                    "latitude": record.latitude,
                    "longitude": record.longitude,
                    "categories": sorted(record.categories),
                }
            )
        )
    if include_bad_records:
        lines.append(json.dumps({"name": "Too Far North", "city": "dunecity", "state": "DZ",
                                 "latitude": 95.0, "longitude": 0.0, "categories": []}))
        lines.append(json.dumps({"city": "dunecity", "state": "DZ",
                                 "latitude": 33.0, "longitude": -112.0, "categories": []}))
        lines.append(json.dumps({"name": "Nowhere Diner", "city": "ghosttown", "state": "XX",
                                 "latitude": 10.0, "longitude": 10.0, "categories": ["Food"]}))

    input_path = tmp_path / "pois_input.ndjson"
    input_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    mapping_path = tmp_path / "regions.tsv"
    mapping_path.write_text(
        "# city,state -> region\n"
        "dunecity,DZ\tdesertville\n"
        "*,LK\tlakecity\n"
        "hillside,HL\thillton\n",
        encoding="utf-8",
    )
    return input_path, mapping_path


@pytest.fixture
def dataset(tmp_path):
    return write_dataset(tmp_path)
