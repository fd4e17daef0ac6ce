"""Region and word embeddings trained with skip-gram negative sampling.

Each training pair is (region, word): the region vector must score its own
words high and score sampled unused words low. The objective per pair is

    J = -ln sigmoid(w_o . r) - sum_k ln sigmoid(-w_k . r)

minimized by plain SGD with a linearly decaying learning rate. Negatives
are drawn from the unigram^power distribution restricted to terms the
region does not use. Single-threaded training with a fixed seed is
bit-reproducible.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import RegionCorpus, Vocabulary
from .errors import EmptyCorpusError

log = logging.getLogger(__name__)

MODEL_VARIANT = "sgns"


@dataclass(frozen=True)
class EmbeddingConfig:
    dimension: int = 300
    negatives: int = 5
    learning_rate: float = 0.025
    final_learning_rate: float = 1e-4
    epochs: int = 20
    seed: int = 0
    noise_power: float = 0.75

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.learning_rate <= 0 or self.final_learning_rate <= 0:
            raise ValueError("learning rates must be positive")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class TrainingPair:
    region_id: str
    word: str


@dataclass
class EmbeddingModel:
    """Learned region and word vectors plus training metadata."""

    region_vectors: dict[str, np.ndarray]
    word_vectors: dict[str, np.ndarray]
    config: EmbeddingConfig
    final_loss: float
    epoch_losses: tuple[float, ...] = ()


def sigmoid(x: float) -> float:
    """Numerically stable logistic function, safe for |x| well beyond 700."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _logistic(values: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + e^-v) through libm exp, 0.0 where e^-v overflows.

    numpy's vectorized exp can differ from libm in the last bit, which would
    change trained models; this form equals scipy.special.expit bit for bit.
    """
    out = np.empty(values.shape)
    for i, v in enumerate(values.tolist()):
        try:
            out[i] = 1.0 / (1.0 + math.exp(-v))
        except OverflowError:
            out[i] = 0.0
    return out


def _softplus(x: float) -> float:
    """ln(1 + e^x) without overflow."""
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def build_training_pairs(corpora: Mapping[str, RegionCorpus]) -> list[TrainingPair]:
    """One (region, word) pair per token occurrence, in deterministic order.

    Corpora should be built with dedup=False so pair frequencies reflect
    real-world name frequencies.
    """
    pairs: list[TrainingPair] = []
    for region in sorted(corpora):
        for doc in corpora[region].documents:
            pairs.extend(TrainingPair(region_id=region, word=tok) for tok in doc.tokens)
    if not pairs:
        raise EmptyCorpusError("no training pairs: corpora contain no tokens")
    return pairs


class NoiseDistribution:
    """Unigram^power noise for negative sampling, restricted per region.

    For a region the candidate pool is every vocabulary term the region
    does not use; if that pool is empty (a region uses the whole
    vocabulary) sampling falls back to the full vocabulary with the
    positive term excluded, logged once per region.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        term_counts: Mapping[str, int],
        region_terms: Mapping[str, Iterable[str]],
        power: float = 0.75,
    ) -> None:
        self.vocab = vocab
        self.power = power
        self._weights = np.array(
            [float(term_counts.get(t, 0)) ** power for t in vocab.terms],
            dtype=np.float64,
        )
        self._region_terms = {r: frozenset(ts) for r, ts in region_terms.items()}
        self._tables: dict[str, tuple[np.ndarray, np.ndarray, bool]] = {}
        self._full_table: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_corpora(
        cls,
        corpora: Mapping[str, RegionCorpus],
        vocab: Vocabulary,
        power: float = 0.75,
    ) -> "NoiseDistribution":
        counts: Counter[str] = Counter()
        region_terms: dict[str, set[str]] = {}
        for region, corpus in corpora.items():
            used: set[str] = set()
            for doc in corpus.documents:
                counts.update(doc.tokens)
                used.update(doc.tokens)
            region_terms[region] = used
        return cls(vocab, counts, region_terms, power=power)

    def _full(self) -> tuple[np.ndarray, np.ndarray]:
        if self._full_table is None:
            idx = np.nonzero(self._weights > 0.0)[0]
            if idx.size == 0:
                raise ValueError("noise distribution has no probability mass")
            cum = np.cumsum(self._weights[idx])
            cum /= cum[-1]
            self._full_table = (idx, cum)
        return self._full_table

    def table(self, region_id: str) -> tuple[np.ndarray, np.ndarray, bool]:
        """(candidate indices, cumulative probabilities, needs_positive_check)."""
        cached = self._tables.get(region_id)
        if cached is not None:
            return cached
        used = self._region_terms.get(region_id)
        if used is None:
            raise KeyError(f"unknown region {region_id!r}")
        index = self.vocab.index
        used_idx = {index[t] for t in used if t in index}
        idx = np.array(
            [i for i in np.nonzero(self._weights > 0.0)[0] if int(i) not in used_idx],
            dtype=np.int64,
        )
        if idx.size == 0:
            log.warning(
                "region %r uses the entire vocabulary; sampling negatives from "
                "the full vocabulary instead",
                region_id,
            )
            full_idx, full_cum = self._full()
            table = (full_idx, full_cum, True)
        else:
            cum = np.cumsum(self._weights[idx])
            cum /= cum[-1]
            table = (idx, cum, False)
        self._tables[region_id] = table
        return table

    def sample_indices(
        self,
        region_id: str,
        k: int,
        rng: np.random.Generator,
        exclude: int | None = None,
    ) -> np.ndarray:
        idx, cum, _ = self.table(region_id)
        out = idx[np.searchsorted(cum, rng.random(k), side="right")]
        if exclude is not None and (out == exclude).any():
            if idx.size == 1:
                raise ValueError(
                    "cannot sample negatives: only the positive term has probability mass"
                )
            bad = out == exclude
            while bad.any():
                redraw = idx[np.searchsorted(cum, rng.random(int(bad.sum())), side="right")]
                out[bad] = redraw
                bad = out == exclude
        return out


def sample_negatives(
    region_id: str,
    positive: str,
    k: int,
    noise: NoiseDistribution,
    rng: np.random.Generator,
) -> list[str]:
    """Draw k negative terms (with replacement), never equal to the positive."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    exclude = noise.vocab.index.get(positive)
    indices = noise.sample_indices(region_id, k, rng, exclude=exclude)
    terms = noise.vocab.terms
    return [terms[int(i)] for i in indices]


def pair_loss(r: np.ndarray, w_o: np.ndarray, negatives: np.ndarray) -> float:
    """Objective value for one training pair (always positive and finite)."""
    s_o = float(w_o @ r)
    s_k = negatives @ r
    return _softplus(-s_o) + float(np.sum(np.logaddexp(0.0, s_k)))


def pair_gradients(
    r: np.ndarray, w_o: np.ndarray, negatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the pair objective w.r.t. r, w_o, and each negative.

    grad_r     = -(1 - sigmoid(w_o.r)) w_o + sum_k sigmoid(w_k.r) w_k
    grad_w_o   = -(1 - sigmoid(w_o.r)) r
    grad_negs  = sigmoid(w_k.r) r   (row per negative)
    """
    sig_o = sigmoid(float(w_o @ r))
    sig_k = _logistic(negatives @ r)
    grad_r = (sig_o - 1.0) * w_o + sig_k @ negatives
    grad_wo = (sig_o - 1.0) * r
    grad_negs = np.outer(sig_k, r)
    return grad_r, grad_wo, grad_negs


def train(
    pairs: Sequence[TrainingPair],
    vocab: Vocabulary,
    config: EmbeddingConfig,
) -> EmbeddingModel:
    """SGD over shuffled pairs for the configured number of epochs.

    All randomness (initialization, shuffling, negative draws) comes from
    one generator seeded with config.seed, so identical inputs produce an
    identical model.
    """
    if not pairs:
        raise EmptyCorpusError("no training pairs")
    regions = sorted({p.region_id for p in pairs})
    region_index = {r: i for i, r in enumerate(regions)}
    vocab_index = vocab.index
    for p in pairs:
        if p.word not in vocab_index:
            raise ValueError(f"vocabulary mismatch: pair word {p.word!r} not in vocabulary")
    n_pairs = len(pairs)
    region_ids = np.fromiter((region_index[p.region_id] for p in pairs), dtype=np.int64, count=n_pairs)
    word_ids = np.fromiter((vocab_index[p.word] for p in pairs), dtype=np.int64, count=n_pairs)

    counts = Counter(p.word for p in pairs)
    region_terms: dict[str, set[str]] = {r: set() for r in regions}
    for p in pairs:
        region_terms[p.region_id].add(p.word)
    noise = NoiseDistribution(vocab, counts, region_terms, power=config.noise_power)
    tables = [noise.table(region) for region in regions]

    d = config.dimension
    k = config.negatives
    rng = np.random.default_rng(config.seed)
    bound = 0.5 / d
    region_vecs = rng.uniform(-bound, bound, size=(len(regions), d))
    word_vecs = rng.uniform(-bound, bound, size=(len(vocab), d))

    lr0 = config.learning_rate
    lr1 = config.final_learning_rate
    total_steps = config.epochs * n_pairs
    lr_slope = (lr1 - lr0) / (total_steps - 1) if total_steps > 1 else 0.0

    step = 0
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n_pairs)
        loss_sum = 0.0
        for j in order:
            ri = int(region_ids[j])
            wi = int(word_ids[j])
            idx_tab, cum_tab, check_pos = tables[ri]
            negs = idx_tab[np.searchsorted(cum_tab, rng.random(k), side="right")]
            if check_pos and (negs == wi).any():
                bad = negs == wi
                while bad.any():
                    redraw = idx_tab[
                        np.searchsorted(cum_tab, rng.random(int(bad.sum())), side="right")
                    ]
                    negs[bad] = redraw
                    bad = negs == wi

            r = region_vecs[ri]
            w = word_vecs[wi]
            neg_rows = word_vecs[negs]  # copy of the old rows
            s_o = float(w @ r)
            s_k = neg_rows @ r
            sig_o = sigmoid(s_o)
            sig_k = _logistic(s_k)
            loss_sum += _softplus(-s_o) + float(np.sum(np.logaddexp(0.0, s_k)))

            lr = lr0 + lr_slope * step
            # gradients use pre-update values: w/neg_rows are read before any write,
            # and r is written last
            grad_r = (sig_o - 1.0) * w + sig_k @ neg_rows
            word_vecs[wi] += (lr * (1.0 - sig_o)) * r
            neg_coef = lr * sig_k
            for t in range(k):
                word_vecs[negs[t]] -= neg_coef[t] * r
            region_vecs[ri] -= lr * grad_r
            step += 1

        mean_loss = loss_sum / n_pairs
        if not math.isfinite(mean_loss):
            raise RuntimeError(
                f"training diverged at epoch {epoch}: non-finite loss "
                "(try a lower learning rate)"
            )
        epoch_losses.append(mean_loss)

    if not (np.isfinite(region_vecs).all() and np.isfinite(word_vecs).all()):
        raise RuntimeError("training produced non-finite vectors (try a lower learning rate)")

    return EmbeddingModel(
        region_vectors={r: region_vecs[i].copy() for r, i in region_index.items()},
        word_vectors={t: word_vecs[i].copy() for i, t in enumerate(vocab.terms)},
        config=config,
        final_loss=epoch_losses[-1],
        epoch_losses=tuple(epoch_losses),
    )


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Write the model as text: a header line, then one vector per line.

    Values carry 17 significant digits so save/load round-trips are
    bit-exact.
    """
    d = model.config.dimension
    lines = [
        "dim=%d\twords=%d\tregions=%d\tseed=%d\tvariant=%s"
        % (d, len(model.word_vectors), len(model.region_vectors), model.config.seed, MODEL_VARIANT)
    ]
    for region in sorted(model.region_vectors):
        vec = model.region_vectors[region]
        lines.append("r\t%s\t%s" % (region, " ".join("%.17g" % v for v in vec)))
    for term in sorted(model.word_vectors):
        vec = model.word_vectors[term]
        lines.append("w\t%s\t%s" % (term, " ".join("%.17g" % v for v in vec)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_model(path: str | Path) -> EmbeddingModel:
    """Read a model written by save_model."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"empty model file {path}")
    header: dict[str, str] = {}
    for part in lines[0].split("\t"):
        key, _, value = part.partition("=")
        header[key] = value
    try:
        dim = int(header["dim"])
        n_words = int(header["words"])
        n_regions = int(header["regions"])
        seed = int(header["seed"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed model header in {path}: {lines[0]!r}") from exc

    region_vectors: dict[str, np.ndarray] = {}
    word_vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        kind, _, rest = line.partition("\t")
        name, _, values = rest.partition("\t")
        vec = np.array([float(v) for v in values.split(" ")], dtype=np.float64)
        if vec.shape != (dim,):
            raise ValueError(f"{path}:{lineno}: expected {dim} values, got {vec.size}")
        if kind == "r":
            region_vectors[name] = vec
        elif kind == "w":
            word_vectors[name] = vec
        else:
            raise ValueError(f"{path}:{lineno}: unknown vector kind {kind!r}")
    if len(region_vectors) != n_regions or len(word_vectors) != n_words:
        raise ValueError(
            f"{path}: header promises {n_regions} regions / {n_words} words, "
            f"found {len(region_vectors)} / {len(word_vectors)}"
        )
    return EmbeddingModel(
        region_vectors=region_vectors,
        word_vectors=word_vectors,
        config=EmbeddingConfig(dimension=dim, seed=seed),
        final_loss=float("nan"),
    )
