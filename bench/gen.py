"""Seeded synthetic POI corpora for the benchmark workloads.

``generate(workload, seed, directory)`` writes the workload's NDJSON input
(and, for workloads that resolve regions through city/state, a mapping
file) and returns what it planted: the number of records rejected for each
reason and the number accepted. The same (workload, seed) always yields
the same bytes, because every draw comes from one ``random.Random`` seeded
with both.

Names are drawn per region from a Zipf-weighted vocabulary in which every
term has a home point; a region uses a term with weight
``zipf(term) * (floor + exp(-distance(region, home) / scale))``. Nearer
regions therefore share more terms, which plants the distance-decay
signal the paper reports, while the floor keeps every pair of regions
sharing some terms so cosine similarities stay positive.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Continental-US box the region centres are drawn from.
LAT_RANGE = (30.0, 47.0)
LON_RANGE = (-122.0, -72.0)
MIN_SEPARATION_KM = 80.0
VOCABULARY = 5_000
DECAY_SCALE_KM = 700.0
BACKGROUND = 0.04

CHAIN_NAMES = 40
CHAIN_SHARE = 0.08

CATEGORIES = (
    "Restaurants", "Food", "Shopping", "Automotive", "Beauty & Spas",
    "Health & Medical", "Home Services", "Nightlife", "Bars", "Hotels & Travel",
    "Active Life", "Arts & Entertainment",
)
# Relative weights of the categories above: a few are common, most are rare.
CATEGORY_WEIGHTS = (30, 22, 14, 10, 8, 6, 4, 3, 2, 2, 1, 1)

# Separators joining name tokens. The Unicode ones are punctuation the
# tokenizer must split on.
ASCII_JOINERS = (" ", " ", " ", " & ", "-", "'s ")
UNICODE_JOINERS = (" ", " ", " ", " & ", "’s ", " – ", " · ", "—")
ACCENTS = {"a": "á", "e": "é", "i": "í", "o": "ó", "u": "ü", "n": "ñ"}

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "z", "br", "ch", "dr", "gr", "kl", "pl", "sh", "st", "tr", "th")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "oo", "ou")
_CODAS = ("", "", "", "n", "r", "s", "l", "x", "nd", "rk", "st")

# The unresolvable-mapping rejection names the city and state, so it is
# counted by this prefix.
REASON_NO_MAPPING = "no region mapping for"

INPUT_FILE = "input.ndjson"
MAPPING_FILE = "regions.tsv"


@dataclass(frozen=True)
class Spec:
    pois: int
    regions: int
    mapping: bool
    unicode: bool
    invalid_share: float


WORKLOADS = {
    "text-12k": Spec(pois=12_000, regions=10, mapping=True, unicode=True,
                     invalid_share=0.02),
    "regions-50": Spec(pois=5_000, regions=50, mapping=False, unicode=False,
                       invalid_share=0.0),
}


@dataclass(frozen=True)
class Planted:
    """What the generator put into the input, for the output checks."""

    accepted: int
    rejected: dict[str, int]
    regions: int


def _km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp, dl = p2 - p1, math.radians(lon2 - lon1)
    h = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * 6371.0 * math.asin(math.sqrt(min(1.0, h)))


def _terms(rng: random.Random, n: int, accented: bool) -> list[str]:
    terms: list[str] = []
    seen: set[str] = set()
    while len(terms) < n:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(1, 3))
        ) + rng.choice(_CODAS)
        if accented and rng.random() < 0.04:
            pos = [i for i, ch in enumerate(word) if ch in ACCENTS]
            if pos:
                i = rng.choice(pos)
                word = word[:i] + ACCENTS[word[i]] + word[i + 1:]
        if word not in seen:
            seen.add(word)
            terms.append(word)
    return terms


def _centres(rng: random.Random, n: int) -> list[tuple[float, float]]:
    centres: list[tuple[float, float]] = []
    while len(centres) < n:
        lat, lon = rng.uniform(*LAT_RANGE), rng.uniform(*LON_RANGE)
        if all(_km(lat, lon, a, b) >= MIN_SEPARATION_KM for a, b in centres):
            centres.append((lat, lon))
    return centres


def _bad_lines(spec: Spec, rng: random.Random, base: dict) -> list[tuple[str, object]]:
    """(reason, maker of one raw input line rejected for it), worded as poinames.corpus does."""
    makers = [
        ("malformed record", lambda: json.dumps(base)[: rng.randint(5, 20)]),
        ("record is not an object", lambda: json.dumps([base["name"], base["latitude"]])),
        ("missing or empty name", lambda: json.dumps({**base, "name": rng.choice(["", "   "])})),
        ("missing or invalid latitude",
         lambda: json.dumps({**base, "latitude": rng.choice([None, "north", True])})),
        ("missing or invalid longitude",
         lambda: json.dumps({**base, "longitude": rng.choice([None, "west", False])})),
        ("latitude out of range", lambda: json.dumps({**base, "latitude": rng.uniform(90.5, 120)})),
        ("longitude out of range",
         lambda: json.dumps({**base, "longitude": rng.uniform(-300, -180.5)})),
        ("missing region and city/state",
         lambda: json.dumps({k: v for k, v in base.items() if k not in ("city", "state", "region")})),
    ]
    if spec.mapping:
        makers.append((REASON_NO_MAPPING,
                       lambda: json.dumps({**base, "city": "Nowhere", "state": "QQ"})))
    return makers


def generate(workload: str, seed: int, directory: Path) -> Planted:
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)

    regions = [f"metro{i:02d}" for i in range(spec.regions)]
    centres = _centres(rng, spec.regions)
    terms = _terms(rng, VOCABULARY, spec.unicode)
    homes = [(rng.uniform(*LAT_RANGE), rng.uniform(*LON_RANGE)) for _ in terms]
    zipf = [1.0 / (rank + 1) for rank in range(len(terms))]

    # Cumulative term weights per region, so a name draw is one bisect.
    cum_weights = []
    for lat, lon in centres:
        acc, row = 0.0, []
        for z, (hlat, hlon) in zip(zipf, homes):
            acc += z * (BACKGROUND + math.exp(-_km(lat, lon, hlat, hlon) / DECAY_SCALE_KM))
            row.append(acc)
        cum_weights.append(row)

    chains = [
        " ".join(w.title() for w in rng.sample(terms[:200], rng.randint(1, 2)))
        for _ in range(CHAIN_NAMES)
    ]
    joiners = UNICODE_JOINERS if spec.unicode else ASCII_JOINERS

    # Each region has a two-letter state; half the states are mapped with a
    # "*" row, the other half city by city.
    states = [chr(65 + i // 26) + chr(65 + i % 26) for i in range(spec.regions)]
    cities = {i: [f"{regions[i].title()} Town {c}" for c in range(4)] for i in range(spec.regions)}

    n_bad = round(spec.pois * spec.invalid_share)
    n_good = spec.pois - n_bad
    lines: list[str] = []
    for k in range(n_good):
        r = k % spec.regions
        if rng.random() < CHAIN_SHARE:
            name = rng.choice(chains)
        else:
            words = rng.choices(terms, cum_weights=cum_weights[r], k=rng.choice((1, 2, 2, 3, 3, 4)))
            name = words[0].title()
            for w in words[1:]:
                name += rng.choice(joiners) + w.title()
        lat, lon = centres[r]
        n_cats = rng.choice((1, 1, 2, 3))
        record = {
            "name": name,
            "latitude": round(lat + rng.gauss(0.0, 0.08), 6),
            "longitude": round(lon + rng.gauss(0.0, 0.08), 6),
            "categories": sorted(set(rng.choices(CATEGORIES, CATEGORY_WEIGHTS, k=n_cats))),
        }
        if spec.mapping:
            city = rng.choice(cities[r])
            # case and padding differ from the mapping file; lookups fold both
            record["city"] = rng.choice((city, city.upper(), f" {city.lower()} "))
            record["state"] = states[r]
        else:
            record["region"] = regions[r]
        lines.append(json.dumps(record, ensure_ascii=not spec.unicode))

    rejected: dict[str, int] = {}
    if n_bad:
        template = json.loads(lines[0])
        makers = _bad_lines(spec, rng, template)
        for k in range(n_bad):
            reason, make = makers[k % len(makers)]
            rejected[reason] = rejected.get(reason, 0) + 1
            lines.insert(rng.randrange(len(lines) + 1), make())

    (directory / INPUT_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    if spec.mapping:
        rows = ["# city,state -> region"]
        for i, region in enumerate(regions):
            if i % 2:
                rows.append(f"*,{states[i]}\t{region}")
            else:
                rows.extend(f"{city},{states[i]}\t{region}" for city in cities[i])
        (directory / MAPPING_FILE).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")

    return Planted(accepted=n_good, rejected=rejected, regions=spec.regions)
