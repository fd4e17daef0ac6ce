"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with output enabled to see the lines:

    pytest tests/test_acceptance.py -v -s

Criteria 1, 4b, and 8 need the real POI corpus (not bundled). Point
POINAMES_YELP_BUSINESS at the newline-delimited business file and
optionally POINAMES_YELP_MAPPING at a city,state -> metro mapping file
(without it, a built-in state-level mapping for the seven US metros is
used). Those tests skip when the variable is unset.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from poinames.analysis import fit_distance_decay, pair_observations, pearson, spearman
from poinames.corpus import build_vocabulary, load_pois, partition_by_region, typed_subsets
from poinames.embed import EmbeddingConfig, build_training_pairs, sgns_batch, train
from poinames.geo import GeoPoint, distance_matrix, region_centroid, vincenty_distance
from poinames.localness import (
    geo_tfidf,
    mean_pairwise_jsd,
    top_local_terms,
    usage_distributions,
    usage_percentages,
)
from poinames.regionvec import count_vector, similarity_matrix
from poinames.termstats import fit_zipf, rank_terms, term_frequencies
from poinames.cli import main as cli_main

from conftest import corpora_from, write_dataset
from test_embed import SEPARATION_NAMES

DATASET_ENV = "POINAMES_YELP_BUSINESS"
MAPPING_ENV = "POINAMES_YELP_MAPPING"
HAVE_DATASET = bool(os.environ.get(DATASET_ENV))
requires_dataset = pytest.mark.skipif(
    not HAVE_DATASET, reason=f"set {DATASET_ENV} to run dataset-dependent criteria"
)

DEFAULT_STATE_METROS = {
    "az": "phoenix",
    "nv": "las vegas",
    "nc": "charlotte",
    "sc": "charlotte",
    "oh": "cleveland",
    "pa": "pittsburgh",
    "wi": "madison",
    "il": "urbana-champaign",
}

LN2 = math.log(2.0)


@contextmanager
def criterion(cid: str, description: str, budget_s: float | None = None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"{cid} runtime {elapsed:.1f}s exceeds budget {budget_s:.0f}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"\n[{cid}] {description}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def yelp_records():
    mapping_path = os.environ.get(MAPPING_ENV)
    if mapping_path:
        from poinames.corpus import read_region_mapping

        mapping = read_region_mapping(mapping_path)
    else:
        mapping = {("*", state): metro for state, metro in DEFAULT_STATE_METROS.items()}
    result = load_pois(os.environ[DATASET_ENV], region_mapping=mapping)
    assert result.records, "dataset produced no records"
    return result.records


@requires_dataset
def test_c01_zipf_on_dataset(yelp_records):
    with criterion("C1", "Zipf reproduction on the POI corpus", budget_s=120):
        corpora = partition_by_region(yelp_records, dedup=False)
        ranked = rank_terms(term_frequencies(corpora.values()))
        top10 = [term for term, _ in ranked[:10]]
        assert top10 == [
            "the", "and", "of", "center", "pizza",
            "grill", "spa", "bar", "auto", "restaurant",
        ], top10
        fit = fit_zipf(ranked)
        assert fit.r_squared == pytest.approx(0.962, abs=0.02), fit


def test_c02_zipf_power_law_fixture():
    with criterion("C2", "exact power-law fixture recovers slope -1, R^2 = 1", budget_s=1):
        ranked = [(f"t{r}", 1000.0 / r) for r in range(1, 101)]  # rank r at index r - 1
        fit = fit_zipf(ranked)
        assert abs(fit.slope - (-1.0)) < 1e-9
        assert abs(fit.r_squared - 1.0) < 1e-9


def test_c03_geo_tfidf_zero_law_and_oracle():
    with criterion("C3", "geo-TFIDF zero law and brute-force equivalence", budget_s=1):
        names = {
            "a": ["common desert pizza", "cactus spa", "common grill"],
            "b": ["common lake pizza", "erie spa"],
            "c": ["common steel bar", "rivers auto", "steel steel shop"],
        }
        corpora = corpora_from(names, dedup=True)
        table = geo_tfidf(corpora, variant="pure")
        for region in table:
            assert table[region]["common"] == 0.0
        # independent nested-loop recomputation
        regions = sorted(names)
        for region in regions:
            tokens = [t for doc in names[region] for t in doc.split()]
            for term in set(tokens):
                tf = sum(1 for t in tokens if t == term)
                df = sum(1 for r in regions if any(term in d.split() for d in names[r]))
                expected = tf * math.log(len(regions) / df)
                got = table[region][term]
                assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)


def test_c04_jsd_identities():
    with criterion("C4", "JSD identities, symmetry, bound, hand values", budget_s=60):
        rng = np.random.default_rng(404)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(n)).tolist()
            q = rng.dirichlet(np.ones(n)).tolist()
            assert mean_pairwise_jsd([p, p])[0] == 0.0
            v, _ = mean_pairwise_jsd([p, q])
            assert v == mean_pairwise_jsd([q, p])[0]
            assert 0.0 <= v <= LN2 + 1e-12
        assert abs(mean_pairwise_jsd([[1.0, 0.0], [0.0, 1.0]])[0] - LN2) < 1e-12
        assert abs(mean_pairwise_jsd([[0.25, 0.75], [0.25, 0.75]])[0]) < 1e-12


@requires_dataset
def test_c04b_mean_jsd_on_dataset(yelp_records):
    with criterion("C4b", "mean pairwise JSD of usage distributions", budget_s=60):
        corpora = partition_by_region(yelp_records, dedup=True)
        table = geo_tfidf(corpora, variant="pure")
        tops = top_local_terms(table, k=100)
        subsets = typed_subsets(yelp_records, min_count=100, required_regions=sorted(corpora))
        matrix = usage_percentages(subsets, tops)
        mean, _ = mean_pairwise_jsd(usage_distributions(matrix.regions, matrix.shares()))
        assert mean == pytest.approx(0.007, abs=0.005), mean


def test_c05_gradient_check():
    with criterion("C5", "analytic gradients match central finite differences", budget_s=5):
        rng = np.random.default_rng(505)
        h = 1e-5
        for _ in range(100):
            d = int(rng.integers(2, 11))
            k = int(rng.integers(1, 6))
            # one pair, as a batch of one for sgns_batch, the kernel training runs
            r = rng.normal(scale=0.8, size=(1, d))
            w_o = rng.normal(scale=0.8, size=(1, d))
            negatives = rng.normal(scale=0.8, size=(1, k, d))
            _, grad_r, grad_wo, grad_negs = sgns_batch(r, w_o, negatives)

            def numeric(bump):
                return (sgns_batch(*bump(+h))[0] - sgns_batch(*bump(-h))[0]) / (2 * h)

            num_r = np.array([
                numeric(lambda s, i=i: (r + s * _unit(d, i), w_o, negatives)) for i in range(d)
            ])
            num_wo = np.array([
                numeric(lambda s, i=i: (r, w_o + s * _unit(d, i), negatives)) for i in range(d)
            ])
            num_negs = np.array([
                [
                    numeric(lambda s, j=j, i=i: (r, w_o, negatives + s * _unit2(k, d, j, i)))
                    for i in range(d)
                ]
                for j in range(k)
            ])
            for analytic, num in ((grad_r, num_r), (grad_wo, num_wo), (grad_negs, num_negs)):
                rel = np.linalg.norm(analytic[0] - num) / max(np.linalg.norm(num), 1e-12)
                assert rel < 1e-5, rel


def _unit(d, i):
    e = np.zeros(d)
    e[i] = 1.0
    return e


def _unit2(k, d, j, i):
    e = np.zeros((k, d))
    e[j, i] = 1.0
    return e


def test_c06_embedding_separation():
    with criterion(
        "C6", "identical regions closer than disjoint in >= 95/100 seeds", budget_s=120
    ):
        corpora = corpora_from(SEPARATION_NAMES)
        vocab = build_vocabulary(corpora.values())
        pairs = build_training_pairs(corpora, vocab)
        successes = 0
        for seed in range(100):
            model = train(pairs, vocab, EmbeddingConfig(dimension=16, epochs=200, seed=seed))
            r1 = model.region_vectors["alpha"]
            r2 = model.region_vectors["beta"]
            r3 = model.region_vectors["gamma"]
            cos = lambda a, b: float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            if cos(r1, r2) > cos(r1, r3):
                successes += 1
        assert successes >= 95, f"separated in only {successes}/100 seeds"


def test_c07_vincenty_oracle():
    with criterion("C7", "Vincenty matches the frozen geodesic oracle", budget_s=1):
        table = Path(__file__).parent / "data" / "geodesic_reference.tsv"
        rows = table.read_text().splitlines()[1:]
        assert len(rows) == 50
        for row in rows:
            lat1, lon1, lat2, lon2, expected = (float(v) for v in row.split("\t"))
            d = vincenty_distance(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
            assert abs(d - expected) < 1e-3
        equator = vincenty_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
        meridian = vincenty_distance(GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0))
        assert abs(equator - 111319.491) < 0.01
        assert abs(meridian - 110574.389) < 0.01


@requires_dataset
def test_c08_distance_decay_on_dataset(yelp_records):
    with criterion("C8", "distance-decay correlations and fits", budget_s=35 * 60):
        corpora = partition_by_region(yelp_records, dedup=False)
        vocab = build_vocabulary(corpora.values())
        regions = sorted(corpora)
        centroids = {
            r: region_centroid([p for p in yelp_records if p.region_id == r]) for r in regions
        }
        dist = distance_matrix(centroids)

        count_sim = similarity_matrix([count_vector(corpora[r], vocab) for r in regions])
        count_obs = pair_observations(count_sim, dist)
        assert len(count_obs) == 21
        x = count_obs.distance_m.tolist()
        y = count_obs.similarity.tolist()
        count_structure = (count_obs.first, count_obs.second)
        count_pearson = pearson(x, y, seed=8, pair_index=count_structure)
        count_spearman = spearman(x, y, seed=8, pair_index=count_structure)
        count_fit = fit_distance_decay(count_obs)
        assert count_pearson.coefficient == pytest.approx(-0.612, abs=0.05)
        assert count_spearman.coefficient == pytest.approx(-0.626, abs=0.05)
        assert count_fit.slope == pytest.approx(-0.050, abs=0.01)
        assert count_fit.r_squared == pytest.approx(0.434, abs=0.10)
        assert count_pearson.p_value < 0.05

        pairs = build_training_pairs(corpora, vocab)
        model = train(pairs, vocab, EmbeddingConfig(seed=1))
        from poinames.regionvec import RegionVector

        embed_sim = similarity_matrix(
            [RegionVector(region_id=r, values=model.region_vectors[r]) for r in regions]
        )
        embed_obs = pair_observations(embed_sim, dist)
        ex = embed_obs.distance_m.tolist()
        ey = embed_obs.similarity.tolist()
        embed_structure = (embed_obs.first, embed_obs.second)
        embed_pearson = pearson(ex, ey, seed=8, pair_index=embed_structure)
        embed_spearman = spearman(ex, ey, seed=8, pair_index=embed_structure)
        embed_fit = fit_distance_decay(embed_obs)
        assert embed_pearson.coefficient == pytest.approx(-0.963, abs=0.05)
        assert embed_spearman.coefficient == pytest.approx(-0.917, abs=0.07)
        assert embed_fit.slope == pytest.approx(-0.090, abs=0.02)
        assert embed_fit.r_squared == pytest.approx(0.828, abs=0.10)
        assert embed_pearson.p_value < 0.05
        assert abs(count_pearson.coefficient) < abs(embed_pearson.coefficient)


def test_c09_decay_fit_fixture():
    with criterion("C9", "synthetic power law recovers A, beta, R^2 = 1", budget_s=1):
        from poinames.analysis import RegionPairs

        a_true, beta_true = 2.5, 0.075
        distances = np.array([2e4, 9e4, 4e5, 1.1e6, 2.8e6, 4.4e6])
        # six pairs of four regions p0..p3, in upper-triangle order
        first, second = np.triu_indices(4, 1)
        observations = RegionPairs(("p0", "p1", "p2", "p3"), first, second,
                                   a_true * distances ** (-beta_true), distances)
        fit = fit_distance_decay(observations)
        assert abs(fit.slope - (-beta_true)) < 1e-9
        assert abs(math.exp(fit.intercept) - a_true) < 1e-9
        assert abs(fit.r_squared - 1.0) < 1e-9


STAGES = [
    ["zipf"],
    ["local-terms", "--top", "10"],
    ["type-usage", "--top", "20", "--min-count", "5"],
    ["vectors", "--mode", "count"],
    ["vectors", "--mode", "tfidf"],
    ["embed", "--dim", "16", "--epochs", "40", "--seed", "11"],
    ["similarity", "--method", "count"],
    ["similarity", "--method", "tfidf"],
    ["similarity", "--method", "embedding"],
    ["decay", "--method", "count", "--permutations", "2000", "--seed", "3"],
    ["decay", "--method", "tfidf", "--permutations", "2000", "--seed", "3"],
    ["decay", "--method", "embedding", "--permutations", "2000", "--seed", "3"],
]


def _run_pipeline(input_path, mapping_path, out):
    code = cli_main(
        ["ingest", "--input", str(input_path), "--mapping", str(mapping_path), "--out", str(out)]
    )
    assert code == 0
    for stage in STAGES:
        assert cli_main(stage + ["--out", str(out)]) == 0, stage


def _snapshot(out: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }


def test_c10_every_stage_is_deterministic(tmp_path, capsys):
    with criterion("C10", "re-running every stage is byte-identical", budget_s=300):
        input_path, mapping_path = write_dataset(tmp_path)
        out = tmp_path / "artifacts"
        _run_pipeline(input_path, mapping_path, out)
        first = _snapshot(out)
        assert len(first) > 20
        _run_pipeline(input_path, mapping_path, out)
        second = _snapshot(out)
        assert first.keys() == second.keys()
        differing = [name for name in first if first[name] != second[name]]
        assert not differing, f"artifacts changed between runs: {differing}"
