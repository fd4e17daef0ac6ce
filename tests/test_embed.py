import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import spearmanr

from poinames.corpus import build_vocabulary
from poinames.embed import (
    BATCH_PAIRS,
    FINAL_LEARNING_RATE,
    NOISE_POWER,
    EmbeddingConfig,
    EmbeddingModel,
    NoiseDistribution,
    TrainingPairs,
    _sgd_step,
    _Workspace,
    build_training_pairs,
    load_model,
    save_model,
    sgns_batch,
    sigmoid,
    train,
)
from poinames.errors import EmptyCorpusError, IngestError

from conftest import corpora_from

LN2 = math.log(2.0)

# two regions with identical name multisets plus one disjoint region
SEPARATION_NAMES = {
    "alpha": ["desert pizza", "desert spa", "cactus grill"],
    "beta": ["desert pizza", "desert spa", "cactus grill"],
    "gamma": ["harbor oyster", "pier chowder", "lighthouse bar"],
}


def toy_setup(names=None):
    corpora = corpora_from(names or SEPARATION_NAMES)
    vocab = build_vocabulary(corpora.values())
    pairs = build_training_pairs(corpora, vocab)
    return corpora, vocab, pairs


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_complement_identity(self):
        rng = np.random.default_rng(21)
        for x in rng.uniform(-50, 50, size=100):
            assert sigmoid(float(x)) + sigmoid(float(-x)) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_arguments_no_overflow(self):
        assert sigmoid(710.0) == 1.0
        assert sigmoid(-710.0) == pytest.approx(0.0, abs=1e-300)
        assert 0.0 <= sigmoid(-1e6) <= sigmoid(1e6) <= 1.0

    def test_sigmoid_matches_expit(self):
        # the kernel's vectorized logistic, including where e^-x overflows
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                 1.0, -1.0, 36.0, -36.0, 709.0, -709.0, 800.0, -800.0, 1e4, -1e4]
        values = np.concatenate([edges, np.random.default_rng(22).standard_normal(100_000) * 20])
        got = sigmoid(values)
        assert got.dtype == np.float64 and got.shape == values.shape
        np.testing.assert_allclose(got, expit(values), rtol=1e-15, atol=0)


def as_words(pairs, vocab):
    """The pairs as (region, term) tuples."""
    return [(pairs.regions[r], vocab.terms[w])
            for r, w in zip(pairs.region_ids.tolist(), pairs.word_ids.tolist())]


class TestBuildTrainingPairs:
    def test_one_pair_per_token(self):
        _, vocab, pairs = toy_setup({"a": ["desert pizza"]})
        assert as_words(pairs, vocab) == [("a", "desert"), ("a", "pizza")]

    def test_duplicate_names_keep_duplicate_pairs(self):
        _, _, pairs = toy_setup({"a": ["spot", "spot"]})
        assert len(pairs) == 2

    def test_counts(self):
        _, _, pairs = toy_setup({"a": ["x y z"], "b": ["p q r"]})
        assert len(pairs) == 6

    def test_empty(self):
        vocab = build_vocabulary(corpora_from({"a": ["x"]}).values())
        with pytest.raises(EmptyCorpusError):
            build_training_pairs(corpora_from({"a": []}), vocab)

    def test_region_without_tokens_is_left_out(self):
        _, vocab, pairs = toy_setup({"a": ["x"], "b": ["!!"], "c": ["y"]})
        assert pairs.regions == ("a", "c")
        assert as_words(pairs, vocab) == [("a", "x"), ("c", "y")]


def noise_for(names):
    """Vocabulary and noise distribution of corpora built from name lists."""
    _, vocab, pairs = toy_setup(names)
    return vocab, NoiseDistribution(pairs, len(vocab))


def draw_terms(noise, vocab, positive, k, rng, rows=1):
    """``rows`` rows of k negatives for region "a" (table 0), as terms."""
    region_of = np.zeros(rows, dtype=np.int64)
    positives = np.full(rows, vocab.index[positive])
    out = noise.sample_rows(region_of, k, rng, positives=positives)
    assert out.shape == (rows, k)
    return [[vocab.terms[i] for i in row] for row in out.tolist()]


class TestNegativeSampling:
    def test_restricted_to_unused_terms(self):
        vocab, noise = noise_for({"a": ["aa bb"], "b": ["cc dd"]})
        for row in draw_terms(noise, vocab, "aa", 2, np.random.default_rng(0), rows=50):
            assert set(row) <= {"cc", "dd"}

    def test_sample_count(self):
        vocab, noise = noise_for({"a": ["aa"], "b": ["cc dd"]})
        (row,) = draw_terms(noise, vocab, "aa", 5, np.random.default_rng(1))
        assert len(row) == 5

    def test_deterministic_given_seed(self):
        vocab, noise = noise_for({"a": ["aa bb"], "b": ["cc dd ee ff"]})
        first = draw_terms(noise, vocab, "aa", 3, np.random.default_rng(9), rows=5)
        second = draw_terms(noise, vocab, "aa", 3, np.random.default_rng(9), rows=5)
        assert first == second

    def test_fallback_when_region_uses_whole_vocabulary(self, caplog):
        with caplog.at_level("WARNING"):
            vocab, noise = noise_for({"a": ["aa bb cc"], "b": ["aa bb"]})
            (drawn,) = draw_terms(noise, vocab, "aa", 50, np.random.default_rng(2))
        assert "entire vocabulary" in caplog.text
        assert "aa" not in drawn
        assert set(drawn) <= {"bb", "cc"}

    def test_positive_outside_the_region_is_still_excluded(self):
        vocab, noise = noise_for({"a": ["aa"], "b": ["cc dd"]})
        (drawn,) = draw_terms(noise, vocab, "cc", 50, np.random.default_rng(4))
        assert set(drawn) == {"dd"}

    def test_only_the_positive_has_mass(self):
        vocab, noise = noise_for({"a": ["aa"]})
        with pytest.raises(ValueError, match="only the positive"):
            draw_terms(noise, vocab, "aa", 3, np.random.default_rng(5))

    def test_rows_never_hold_their_positive_and_are_deterministic(self):
        # "a" uses the whole vocabulary, so its rows draw from all of it and redraw
        vocab, noise = noise_for({"a": ["aa bb cc"], "b": ["aa bb"]})
        region_of = np.arange(400) % 2
        positives = np.where(region_of == 0, np.arange(400) % 3, vocab.index["aa"])
        draw = lambda: noise.sample_rows(region_of, 5, np.random.default_rng(7),
                                         positives=positives)
        out = draw()
        assert out.shape == (400, 5)
        assert not (out == positives[:, None]).any()
        assert (out[region_of == 1] == vocab.index["cc"]).all()
        assert np.array_equal(out, draw())

    def test_empirical_frequencies_match_powered_unigram(self):
        # region "a" leaves {cc (count 8), dd (count 1)} as candidates
        vocab, noise = noise_for({"a": ["aa"], "b": ["cc " * 8 + "dd"]})
        rng = np.random.default_rng(3)
        # the positive "aa" is never a candidate of "a", so nothing is redrawn
        (draws,) = noise.sample_rows(np.zeros(1, dtype=np.int64), 1_000_000, rng,
                                     positives=np.array([vocab.index["aa"]]))
        counts = Counter(vocab.terms[int(i)] for i in draws)
        w_cc, w_dd = 8.0**NOISE_POWER, 1.0**NOISE_POWER
        expected_cc = w_cc / (w_cc + w_dd)
        expected_dd = w_dd / (w_cc + w_dd)
        assert counts["cc"] / 1e6 == pytest.approx(expected_cc, rel=0.01)
        assert counts["dd"] / 1e6 == pytest.approx(expected_dd, rel=0.01)
        assert counts["aa"] == 0


class TestPairLoss:
    """sgns_batch on a batch of one pair: the objective."""

    def test_zero_vectors(self):
        d, k = 8, 5
        loss = sgns_batch(np.zeros((1, d)), np.zeros((1, d)), np.zeros((1, k, d)))[0]
        assert loss == pytest.approx(6 * LN2, rel=1e-12)

    def test_limit_toward_zero(self):
        r = np.array([[50.0]])
        w_o = np.array([[1.0]])
        negatives = np.array([[[-1.0], [-1.0]]])
        assert sgns_batch(r, w_o, negatives)[0] < 1e-9

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(1, 11))
            k = int(rng.integers(1, 6))
            r = rng.normal(scale=2.0, size=(1, d))
            w_o = rng.normal(scale=2.0, size=(1, d))
            negatives = rng.normal(scale=2.0, size=(1, k, d))
            expected = -math.log(1.0 / (1.0 + math.exp(-float(w_o[0] @ r[0]))))
            for row in negatives[0]:
                expected -= math.log(1.0 / (1.0 + math.exp(float(row @ r[0]))))
            assert sgns_batch(r, w_o, negatives)[0] == pytest.approx(expected, rel=1e-12)

    def test_positive_for_finite_vectors(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            loss = sgns_batch(rng.normal(size=(1, 4)), rng.normal(size=(1, 4)),
                              rng.normal(size=(1, 3, 4)))[0]
            assert loss > 0.0


class TestPairGradients:
    """sgns_batch on a batch of one pair: the gradients."""

    def test_zero_vectors_give_zero_gradients(self):
        d, k = 6, 3
        _, grad_r, grad_wo, grad_negs = sgns_batch(np.zeros((1, d)), np.zeros((1, d)),
                                                   np.zeros((1, k, d)))
        assert not grad_r.any() and not grad_wo.any() and not grad_negs.any()

    def test_finite_differences(self):
        rng = np.random.default_rng(33)
        h = 1e-5
        for _ in range(100):
            d = int(rng.integers(2, 11))
            k = int(rng.integers(1, 6))
            r = rng.normal(scale=0.8, size=(1, d))
            w_o = rng.normal(scale=0.8, size=(1, d))
            negatives = rng.normal(scale=0.8, size=(1, k, d))
            _, grad_r, grad_wo, grad_negs = sgns_batch(r, w_o, negatives)

            def check(analytic, bump):
                num = (sgns_batch(*bump(+h))[0] - sgns_batch(*bump(-h))[0]) / (2 * h)
                assert analytic == pytest.approx(num, rel=1e-5, abs=1e-8)

            for i in range(d):
                e = np.zeros((1, d)); e[0, i] = 1.0
                check(grad_r[0, i], lambda s, e=e: (r + s * e, w_o, negatives))
                check(grad_wo[0, i], lambda s, e=e: (r, w_o + s * e, negatives))
            for j in range(k):
                for i in range(d):
                    bump_neg = np.zeros((1, k, d)); bump_neg[0, j, i] = 1.0
                    check(grad_negs[0, j, i], lambda s, b=bump_neg: (r, w_o, negatives + s * b))

    def test_flipping_r_flips_positive_word_gradient_direction(self):
        rng = np.random.default_rng(34)
        r = rng.normal(size=(1, 5))
        w_o = rng.normal(size=(1, 5))
        negatives = rng.normal(size=(1, 2, 5))
        grad_wo = sgns_batch(r, w_o, negatives)[2]
        grad_wo_flipped = sgns_batch(-r, w_o, negatives)[2]
        assert float(grad_wo[0] @ r[0]) < 0.0  # gradient descends along +r
        assert float(grad_wo_flipped[0] @ r[0]) > 0.0

    def test_one_descent_step_reduces_loss(self):
        rng = np.random.default_rng(35)
        r = rng.normal(scale=0.5, size=(1, 6))
        w_o = rng.normal(scale=0.5, size=(1, 6))
        negatives = rng.normal(scale=0.5, size=(1, 4, 6))
        before, grad_r, grad_wo, grad_negs = sgns_batch(r, w_o, negatives)
        step = 1e-3
        after = sgns_batch(r - step * grad_r, w_o - step * grad_wo,
                           negatives - step * grad_negs)[0]
        assert after < before


class TestSgnsBatch:
    def test_rows_are_the_one_pair_case(self):
        rng = np.random.default_rng(36)
        b, d, k = 9, 5, 3
        r, w, negs = rng.normal(size=(b, d)), rng.normal(size=(b, d)), rng.normal(size=(b, k, d))
        loss, grad_r, grad_w, grad_negs = sgns_batch(r, w, negs)
        one_pair = [sgns_batch(r[i : i + 1], w[i : i + 1], negs[i : i + 1]) for i in range(b)]
        assert loss == pytest.approx(sum(pair[0] for pair in one_pair), rel=1e-12)
        for i, pair in enumerate(one_pair):
            for got, want in zip((grad_r[i], grad_w[i], grad_negs[i]), pair[1:]):
                np.testing.assert_allclose(got, want[0], rtol=1e-12, atol=1e-15)

    def test_step_sums_pair_gradients_at_pre_batch_parameters(self):
        rng = np.random.default_rng(37)
        d, lr = 6, 0.3
        region_vecs = rng.normal(scale=0.5, size=(3, d))
        word_vecs = rng.normal(scale=0.5, size=(7, d))
        # region 0 and word 4 repeat; word 1 is both a positive and a negative
        region_rows = np.array([0, 2, 0, 1, 0])
        word_rows = np.array([4, 4, 1, 4, 6])
        neg_rows = np.array([[1, 1, 5], [0, 3, 1], [2, 5, 5], [6, 0, 1], [3, 3, 3]])

        expected_r, expected_w, expected_loss = region_vecs.copy(), word_vecs.copy(), 0.0
        for ri, wi, negs in zip(region_rows, word_rows, neg_rows):
            loss, grad_r, grad_w, grad_negs = sgns_batch(
                region_vecs[[ri]], word_vecs[[wi]], word_vecs[negs][None])
            expected_loss += loss
            expected_r[ri] -= lr * grad_r[0]
            expected_w[wi] -= lr * grad_w[0]
            for n, g in zip(negs, grad_negs[0]):
                expected_w[n] -= lr * g

        loss = _sgd_step(region_vecs, word_vecs, region_rows, word_rows, neg_rows, lr,
                         _Workspace(d, neg_rows.shape[1]))
        assert loss == pytest.approx(expected_loss, rel=1e-12)
        np.testing.assert_allclose(region_vecs, expected_r, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(word_vecs, expected_w, rtol=1e-12, atol=1e-14)


def reference_train(pairs, vocab, config):
    """The per-pair SGD trainer of poinames 0.1.0: one pair per update."""
    noise = NoiseDistribution(pairs, len(vocab))
    d, k = config.dimension, config.negatives
    rng = np.random.default_rng(config.seed)
    region_vecs = rng.uniform(-0.5 / d, 0.5 / d, size=(len(pairs.regions), d))
    word_vecs = rng.uniform(-0.5 / d, 0.5 / d, size=(len(vocab), d))
    slope = (FINAL_LEARNING_RATE - config.learning_rate) / (config.epochs * len(pairs) - 1)
    step = 0
    for _ in range(config.epochs):
        for j in rng.permutation(len(pairs)):
            ri, wi = pairs.region_ids[j], pairs.word_ids[j]
            negs = noise.sample_rows(pairs.region_ids[j : j + 1], k, rng,
                                     positives=pairs.word_ids[j : j + 1])[0]
            _, grad_r, grad_w, grad_negs = sgns_batch(region_vecs[[ri]], word_vecs[[wi]],
                                                      word_vecs[negs][None])
            lr = config.learning_rate + slope * step
            word_vecs[wi] -= lr * grad_w[0]
            for n, g in zip(negs, grad_negs[0]):
                word_vecs[n] -= lr * g
            region_vecs[ri] -= lr * grad_r[0]
            step += 1
    return {r: region_vecs[i] for i, r in enumerate(pairs.regions)}


def line_of_regions(seed, n_regions=10, n_terms=60, names=40):
    """Regions on a line; each term is used most near its home position."""
    rnd = random.Random(seed)
    terms = [f"t{j:02d}" for j in range(n_terms)]
    home = {t: rnd.uniform(0, n_regions - 1) for t in terms}
    out = {}
    for i in range(n_regions):
        weights = [math.exp(-abs(i - home[t]) / 1.5) for t in terms]
        out[f"r{i:02d}"] = [" ".join(rnd.choices(terms, weights, k=2)) for _ in range(names)]
    return out


def upper_cosines(vectors):
    m = np.array([vectors[r] for r in sorted(vectors)])
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    return (m @ m.T)[np.triu_indices(len(m), 1)]


def fresh_arrays_train(pairs, vocab, config):
    """train() with new arrays in every batch: fancy-index gathers, the
    gradients sgns_batch allocates, and a new subtract.at index."""
    noise = NoiseDistribution(pairs, len(vocab))
    d, k = config.dimension, config.negatives
    rng = np.random.default_rng(config.seed)
    region_vecs = rng.uniform(-0.5 / d, 0.5 / d, size=(len(pairs.regions), d))
    word_vecs = rng.uniform(-0.5 / d, 0.5 / d, size=(len(vocab), d))
    n = len(pairs)
    slope = (FINAL_LEARNING_RATE - config.learning_rate) / (config.epochs * n - 1)

    def subtract_rows(matrix, rows, values):
        flat = (rows[:, None] * d + np.arange(d)).ravel()
        np.subtract.at(matrix.reshape(-1), flat, values.ravel())

    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        regions, words = pairs.region_ids[order], pairs.word_ids[order]
        negs = noise.sample_rows(regions, k, rng, positives=words)
        for start in range(0, n, BATCH_PAIRS):
            stop = min(start + BATCH_PAIRS, n)
            lr = config.learning_rate + slope * (step + (stop - start - 1) / 2)
            r, w, ng = regions[start:stop], words[start:stop], negs[start:stop]
            _, grad_r, grad_w, grad_negs = sgns_batch(region_vecs[r], word_vecs[w], word_vecs[ng])
            subtract_rows(region_vecs, r, grad_r * lr)
            subtract_rows(word_vecs, w, grad_w * lr)
            subtract_rows(word_vecs, ng.ravel(), grad_negs * lr)
            step += stop - start
    return region_vecs, word_vecs


class TestTrain:
    def test_workspace_reuse_is_bit_exact_over_full_and_partial_batches(self):
        rnd = random.Random(3)
        terms = [f"t{j:02d}" for j in range(60)]
        tokens = [rnd.choice(terms) for _ in range(2 * BATCH_PAIRS + 37)]
        _, vocab, pairs = toy_setup({f"r{i}": [" ".join(tokens[i::4])] for i in range(4)})
        assert len(pairs) == 2 * BATCH_PAIRS + 37
        config = EmbeddingConfig(dimension=24, negatives=5, epochs=3, seed=4)
        model = train(pairs, vocab, config)
        region_vecs, word_vecs = fresh_arrays_train(pairs, vocab, config)
        assert np.array_equal(np.array([model.region_vectors[r] for r in pairs.regions]),
                              region_vecs)
        assert np.array_equal(np.array([model.word_vectors[t] for t in vocab.terms]), word_vecs)

    def test_agrees_with_per_pair_reference(self):
        _, vocab, pairs = toy_setup(line_of_regions(seed=0))
        assert len(pairs) > 5 * BATCH_PAIRS
        config = EmbeddingConfig(dimension=16, epochs=10, seed=0)
        reference = reference_train(pairs, vocab, config)
        batched = train(pairs, vocab, config).region_vectors
        rho = spearmanr(upper_cosines(reference), upper_cosines(batched))[0]
        assert rho >= 0.95, rho


    def test_bit_reproducible(self, tmp_path):
        _, vocab, pairs = toy_setup()
        config = EmbeddingConfig(dimension=8, epochs=5, seed=123)
        model_a = train(pairs, vocab, config)
        model_b = train(pairs, vocab, config)
        path_a, path_b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(model_a, path_a)
        save_model(model_b, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_different_seeds_differ(self):
        _, vocab, pairs = toy_setup()
        m1 = train(pairs, vocab, EmbeddingConfig(dimension=8, epochs=2, seed=1))
        m2 = train(pairs, vocab, EmbeddingConfig(dimension=8, epochs=2, seed=2))
        assert any(
            not np.array_equal(m1.region_vectors[r], m2.region_vectors[r])
            for r in m1.region_vectors
        )

    def test_loss_trend_on_toy_corpus(self):
        _, vocab, pairs = toy_setup()
        model = train(pairs, vocab, EmbeddingConfig(dimension=16, epochs=40, seed=5))
        losses = model.epoch_losses
        assert len(losses) == 40
        second_half = losses[len(losses) // 2 :]
        for prev, cur in zip(second_half, second_half[1:]):
            assert cur <= prev * 1.05  # allow 5% jitter

    def test_identical_regions_end_up_closer_than_disjoint(self):
        _, vocab, pairs = toy_setup()
        model = train(pairs, vocab, EmbeddingConfig(dimension=16, epochs=200, seed=0))
        r1, r2, r3 = (model.region_vectors[k] for k in ("alpha", "beta", "gamma"))
        cos = lambda a, b: float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cos(r1, r2) > cos(r1, r3)

    def test_all_vectors_finite(self):
        _, vocab, pairs = toy_setup()
        model = train(pairs, vocab, EmbeddingConfig(dimension=8, epochs=3, seed=8))
        for v in list(model.region_vectors.values()) + list(model.word_vectors.values()):
            assert np.isfinite(v).all()

    @pytest.mark.parametrize(
        "field,bad", [("region", -1), ("region", 3), ("word", -1), ("word", "vocab")]
    )
    def test_out_of_range_ids_rejected_before_training(self, field, bad):
        _, vocab, pairs = toy_setup()
        ids = {"region": pairs.region_ids.copy(), "word": pairs.word_ids.copy()}
        ids[field][0] = len(vocab) if bad == "vocab" else bad
        broken = TrainingPairs(regions=pairs.regions, region_ids=ids["region"],
                               word_ids=ids["word"])
        with pytest.raises(ValueError, match=f"{field} ids must lie in"):
            train(broken, vocab, EmbeddingConfig(dimension=8, epochs=1, seed=0))

    def test_divergence_aborts_with_diagnostic(self):
        # and without a numpy warning, which filterwarnings = error would raise
        _, vocab, pairs = toy_setup()
        config = EmbeddingConfig(dimension=8, epochs=3, seed=0, learning_rate=1e300)
        with pytest.raises(RuntimeError, match="learning rate"):
            train(pairs, vocab, config)

    def test_one_term_vocabulary_cannot_sample_negatives(self):
        corpora = corpora_from({"a": ["xx"], "b": ["xx xx"]})
        vocab = build_vocabulary(corpora.values())
        pairs = build_training_pairs(corpora, vocab)
        with pytest.raises(ValueError, match="^cannot sample negatives: only the positive term "
                                             "has probability mass$"):
            train(pairs, vocab, EmbeddingConfig(dimension=4, epochs=1))

    def test_vocabulary_mismatch(self):
        corpora = corpora_from({"a": ["xx yy"], "b": ["zz"]})
        vocab = build_vocabulary(corpora_from({"a": ["xx"]}).values())
        with pytest.raises(ValueError, match="vocabulary mismatch"):
            build_training_pairs(corpora, vocab)

    def test_empty_pairs(self):
        _, vocab, _ = toy_setup()
        no_ids = np.empty(0, dtype=np.int64)
        with pytest.raises(EmptyCorpusError):
            train(TrainingPairs(regions=(), region_ids=no_ids, word_ids=no_ids), vocab,
                  EmbeddingConfig(dimension=4))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dimension": 0},
            {"negatives": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"epochs": 0},
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EmbeddingConfig(**kwargs)


class TestModelPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        _, vocab, pairs = toy_setup()
        model = train(pairs, vocab, EmbeddingConfig(dimension=8, epochs=2, seed=77))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config.dimension == 8
        assert loaded.config.seed == 77
        assert loaded.region_vectors.keys() == model.region_vectors.keys()
        for region, v in model.region_vectors.items():
            assert np.array_equal(loaded.region_vectors[region], v)
        assert loaded.word_vectors == {}
        resaved = tmp_path / "resaved.txt"
        save_model(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_writer_matches_whole_file_format(self, tmp_path):
        edges = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1, -1 / 3, 123456789.0]
        model = EmbeddingModel(
            region_vectors={"b": np.array(edges[:4]), "a": np.array(edges[4:])},
            # word vectors are not written
            word_vectors={"zz": np.array(edges[::2]), "yy": np.array(edges[1::2])},
            config=EmbeddingConfig(dimension=4, seed=3),
        )
        path = tmp_path / "model.txt"
        save_model(model, path)
        fmt = lambda v: " ".join("%.17g" % x for x in v)
        expected = ["dim=4\tregions=2\tseed=3\tvariant=sgns"]
        expected += [f"r\t{r}\t{fmt(model.region_vectors[r])}" for r in ("a", "b")]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_failed_save_leaves_the_earlier_model_and_no_temporary_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(b"dim=2\tregions=1\tseed=0\tvariant=sgns\nr\ta\t0 1\n")
        before = path.read_bytes()
        # region b's vector is one value short of the row template, so its
        # row fails to format after the header and row a have been made
        model = EmbeddingModel(
            region_vectors={"a": np.array([1.0, 2.0]), "b": np.array([3.0])},
            word_vectors={},
            config=EmbeddingConfig(dimension=2),
        )
        with pytest.raises(TypeError, match="not enough arguments"):
            save_model(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.txt"]

    def test_word_row_is_rejected(self, tmp_path):
        # a model.txt from before word rows were dropped must be rebuilt
        path = tmp_path / "model.txt"
        path.write_text("dim=2\twords=1\tregions=1\tseed=0\tvariant=sgns\nr\ta\t0 1\nw\tx\t1 2\n")
        with pytest.raises(IngestError, match=f"^{re.escape(f'{path}:3: unknown vector kind')}"):
            load_model(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("not a header\n")
        with pytest.raises(IngestError, match="header"):
            load_model(path)

    # a model of another training variant, or of none, is not read as an sgns model
    @pytest.mark.parametrize("header", ["dim=2\tregions=1\tseed=0\tvariant=glove",
                                        "dim=2\tregions=1\tseed=0"],
                             ids=["variant-changed", "variant-missing"])
    def test_other_variant_is_a_malformed_header(self, tmp_path, header):
        path = tmp_path / "model.txt"
        path.write_text(header + "\nr\ta\t0 1\n")
        with pytest.raises(IngestError, match=f"^{re.escape(f'malformed model header in {path}: ')}"):
            load_model(path)

    # as in a manifest, a key given again or a field without "=" is damage; each
    # model would load if the header were read leniently (the last dim winning)
    @pytest.mark.parametrize("text", ["dim=2\tregions=1\tseed=0\tvariant=sgns\tdim=3\nr\ta\t0 1 2\n",
                                      "dim=2\tregions=1\tseed=0\tvariant=sgns\tjunk\nr\ta\t0 1\n"],
                             ids=["key-given-twice", "field-without-equals"])
    def test_damaged_header_field_is_a_malformed_header(self, tmp_path, text):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(IngestError, match=f"^{re.escape(f'malformed model header in {path}: ')}"):
            load_model(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("dim=2\tregions=5\tseed=0\tvariant=sgns\nr\ta\t0 0\n")
        with pytest.raises(IngestError, match="promises"):
            load_model(path)
