"""Region and word embeddings trained with skip-gram negative sampling.

Each training pair is (region, word): the region vector must score its own
words high and score sampled unused words low. The objective per pair is

    J = -ln sigmoid(w_o . r) - sum_k ln sigmoid(-w_k . r)

minimized by minibatch SGD over BATCH_PAIRS pairs at a time, with a
linearly decaying learning rate. One kernel, sgns_batch, gives the loss
and gradients for a batch, and a batch of one is a single pair. Negatives
are drawn from the unigram^NOISE_POWER distribution restricted to terms
the region does not use. Training with a fixed seed is bit-reproducible.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .corpus import RegionCorpus, Vocabulary, parse_numbers, read_lines, write_lines
from .errors import EmptyCorpusError, IngestError

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

MODEL_VARIANT = "sgns"

# Pairs per SGD step. Fixed, so that a seed always names one model.
BATCH_PAIRS = 128
# The learning rate decays linearly to this value at the last step.
FINAL_LEARNING_RATE = 1e-4
# Negatives are drawn in proportion to count ** NOISE_POWER (word2vec's 3/4).
NOISE_POWER = 0.75


@dataclass(frozen=True)
class EmbeddingConfig:
    dimension: int = 300
    negatives: int = 5
    learning_rate: float = 0.025
    epochs: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class EmbeddingModel:
    """Learned region and word vectors plus training metadata."""

    region_vectors: dict[str, np.ndarray]
    word_vectors: dict[str, np.ndarray]
    config: EmbeddingConfig
    epoch_losses: tuple[float, ...] = ()


def sigmoid(x):
    """Logistic function 1 / (1 + e^-x), elementwise on arrays.

    Where e^-x overflows (x below about -709) the result is 0.0, as with
    scipy.special.expit.
    """
    import numpy as np
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True, eq=False)
class TrainingPairs:
    """One (region, word) pair per token occurrence.

    Pair i is region ``regions[region_ids[i]]`` and vocabulary term ``word_ids[i]``.
    """

    regions: tuple[str, ...]
    region_ids: np.ndarray
    word_ids: np.ndarray

    def __len__(self) -> int:
        return self.word_ids.size


def build_training_pairs(corpora: Mapping[str, RegionCorpus], vocab: Vocabulary) -> TrainingPairs:
    """One (region, word) pair per token occurrence, in deterministic order.

    Regions come in sorted order; a region without tokens has no pairs and
    is left out of ``regions``. Corpora should be built with dedup=False so
    pair frequencies reflect real-world name frequencies.
    """
    import numpy as np
    regions: list[str] = []
    sizes: list[int] = []
    words: list[str] = []
    for region in sorted(corpora):
        tokens = [tok for doc in corpora[region].documents for tok in doc]
        if tokens:
            regions.append(region)
            sizes.append(len(tokens))
            words.extend(tokens)
    if not words:
        raise EmptyCorpusError("no training pairs: corpora contain no tokens")
    index = vocab.index
    try:
        word_ids = np.fromiter((index[w] for w in words), dtype=np.int64, count=len(words))
    except KeyError as exc:
        raise ValueError(
            f"vocabulary mismatch: pair word {exc.args[0]!r} not in vocabulary"
        ) from None
    region_ids = np.repeat(np.arange(len(regions), dtype=np.int64), sizes)
    return TrainingPairs(regions=tuple(regions), region_ids=region_ids, word_ids=word_ids)


class NoiseDistribution:
    """Unigram^NOISE_POWER noise for negative sampling, restricted per region.

    For a region the candidate pool is every vocabulary term the region
    does not use; if that pool is empty (a region uses the whole
    vocabulary) sampling falls back to the full vocabulary with the
    positive term excluded, logged once per region. ``tables[r]`` holds
    region r's (candidate indices, cumulative probabilities).
    """

    def __init__(self, pairs: TrainingPairs, vocab_size: int) -> None:
        import numpy as np
        counts = np.bincount(pairs.word_ids, minlength=vocab_size).tolist()
        # Python's float power: numpy's power need not give the same bits
        weights = np.array([float(c) ** NOISE_POWER for c in counts], dtype=np.float64)
        has_mass = weights > 0.0
        used = np.zeros((len(pairs.regions), vocab_size), dtype=bool)
        used[pairs.region_ids, pairs.word_ids] = True
        self.tables: list[tuple[np.ndarray, np.ndarray]] = []
        for region, region_used in zip(pairs.regions, used):
            candidates = has_mass & ~region_used
            if not candidates.any():
                log.warning(
                    "region %r uses the entire vocabulary; sampling negatives from "
                    "the full vocabulary instead",
                    region,
                )
                candidates = has_mass
            idx = np.flatnonzero(candidates)
            cum = np.cumsum(weights[idx])
            cum /= cum[-1]
            self.tables.append((idx, cum))

    def sample_rows(
        self,
        region_of: np.ndarray,
        k: int,
        rng: np.random.Generator,
        positives: np.ndarray,
    ) -> np.ndarray:
        """k negative indices for each of n rows, shape (n, k).

        Row i is drawn from ``tables[region_of[i]]``. All n*k uniforms come
        from one ``rng.random((n, k))``; each region maps its rows through
        its table with one searchsorted. Entries equal to ``positives[i]``
        are redrawn from the row's table, all at once per round, until none
        is left. In training that happens only in regions whose table is
        the whole vocabulary, as a region's own terms are never its
        candidates.
        """
        import numpy as np
        out = np.empty((region_of.size, k), dtype=np.int64)
        uniforms = rng.random(out.shape)
        for r, (idx, cum) in enumerate(self.tables):
            rows = np.flatnonzero(region_of == r)
            out[rows] = idx[np.searchsorted(cum, uniforms[rows], side="right")]
        rows, cols = np.nonzero(out == positives[:, None])
        while rows.size:
            fresh = rng.random(rows.size)
            for r in np.unique(region_of[rows]).tolist():
                idx, cum = self.tables[r]
                if idx.size == 1:
                    raise ValueError(
                        "cannot sample negatives: only the positive term has probability mass"
                    )
                sel = region_of[rows] == r
                out[rows[sel], cols[sel]] = idx[np.searchsorted(cum, fresh[sel], side="right")]
            still = out[rows, cols] == positives[rows]
            rows, cols = rows[still], cols[still]
        return out


def sgns_batch(
    r_rows: np.ndarray,
    w_pos: np.ndarray,
    w_negs: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Summed objective and per-pair gradients for a batch of B pairs.

    r_rows (B, d), w_pos (B, d) and w_negs (B, k, d) hold each pair's
    region vector, positive word vector and negative word vectors.

    grad_r      = -(1 - sigmoid(w_o.r)) w_o + sum_k sigmoid(w_k.r) w_k   (B, d)
    grad_w_pos  = -(1 - sigmoid(w_o.r)) r                                (B, d)
    grad_w_negs = sigmoid(w_k.r) r   (row per negative)                  (B, k, d)

    The gradients are written into ``out`` = (grad_r, grad_w_pos,
    grad_w_negs) when it is given, else into new arrays. grad_w_pos may be
    w_pos and grad_w_negs may be w_negs: each input is read in full before
    its buffer is overwritten.
    """
    import numpy as np
    b, k, d = w_negs.shape
    if out is None:
        out = (np.empty((b, d)), np.empty((b, d)), np.empty((b, k, d)))
    grad_r, grad_w_pos, grad_w_negs = out
    s_pos = np.einsum("bd,bd->b", w_pos, r_rows)
    s_neg = (w_negs @ r_rows[:, :, None])[:, :, 0]
    loss = float(np.logaddexp(0.0, -s_pos).sum() + np.logaddexp(0.0, s_neg).sum())
    coef_pos = sigmoid(s_pos) - 1.0
    coef_neg = sigmoid(s_neg)
    np.matmul(coef_neg[:, None, :], w_negs, out=grad_r[:, None, :])
    # grad_w_pos holds the positive term of grad_r until its own value
    np.multiply(coef_pos[:, None], w_pos, out=grad_w_pos)
    grad_r += grad_w_pos
    np.multiply(coef_pos[:, None], r_rows, out=grad_w_pos)
    np.multiply(coef_neg[:, :, None], r_rows[:, None, :], out=grad_w_negs)
    return loss, grad_r, grad_w_pos, grad_w_negs


class _Workspace:
    """Gather, gradient and index buffers for batches of up to BATCH_PAIRS
    pairs, allocated once per train() call and reused by every batch."""

    def __init__(self, d: int, k: int) -> None:
        import numpy as np
        self.regions = np.empty((BATCH_PAIRS, d))
        self.words = np.empty((BATCH_PAIRS, d))
        self.negs = np.empty((BATCH_PAIRS * k, d))
        self.grad_r = np.empty((BATCH_PAIRS, d))
        self.flat = np.empty(BATCH_PAIRS * k * d, dtype=np.int64)
        self.cols = np.arange(d)

    def subtract_rows(self, matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
        """matrix[rows[i]] -= values[i] for every i, accumulating repeated rows."""
        import numpy as np
        d = self.cols.size
        flat = self.flat[: rows.size * d]
        np.add((rows * d)[:, None], self.cols, out=flat.reshape(rows.size, d))
        np.subtract.at(matrix.reshape(-1), flat, values.reshape(-1))


def _sgd_step(
    region_vecs: np.ndarray,
    word_vecs: np.ndarray,
    region_rows: np.ndarray,
    word_rows: np.ndarray,
    neg_rows: np.ndarray,
    lr: float,
    work: _Workspace,
) -> float:
    """One SGD step over a batch of B pairs, in place; returns the summed loss.

    Pair i is (region_rows[i], word_rows[i]) with negatives neg_rows[i]
    (shape (B, k)). Every gradient is taken at the parameters from before
    the step, and the updates of rows that repeat are summed. The word
    gathers are overwritten by their gradients. Rows must be in range:
    train() checks them, so mode="clip" never clips, and it lets np.take
    gather straight into the workspace instead of through a temporary.
    """
    import numpy as np
    b, k = neg_rows.shape
    d = word_vecs.shape[1]
    negs = neg_rows.ravel()
    r_rows = np.take(region_vecs, region_rows, axis=0, out=work.regions[:b], mode="clip")
    w_pos = np.take(word_vecs, word_rows, axis=0, out=work.words[:b], mode="clip")
    w_negs = np.take(word_vecs, negs, axis=0, out=work.negs[: b * k], mode="clip")
    w_negs = w_negs.reshape(b, k, d)
    loss, grad_r, grad_w, grad_negs = sgns_batch(
        r_rows, w_pos, w_negs, out=(work.grad_r[:b], w_pos, w_negs)
    )
    grad_r *= lr
    work.subtract_rows(region_vecs, region_rows, grad_r)
    grad_w *= lr
    work.subtract_rows(word_vecs, word_rows, grad_w)
    grad_negs *= lr
    work.subtract_rows(word_vecs, negs, grad_negs)
    return loss


def train(
    pairs: TrainingPairs,
    vocab: Vocabulary,
    config: EmbeddingConfig,
) -> EmbeddingModel:
    """Minibatch SGD over shuffled pairs for the configured number of epochs.

    Each epoch draws one permutation and the negatives of every pair, then
    steps through BATCH_PAIRS pairs at a time. A batch takes its gradients
    at the parameters from before the batch, sums the updates of repeated
    rows, and uses the learning rate of its midpoint step. All randomness
    (initialization, shuffling, negative draws) comes from one generator
    seeded with config.seed, so identical inputs produce an identical model.
    A region or word id outside its table raises ValueError before training;
    a non-finite loss, or a vector whose norm overflows, raises RuntimeError.
    """
    import numpy as np
    if not pairs:
        raise EmptyCorpusError("no training pairs")
    n_pairs = len(pairs)
    for name, ids, size in (
        ("region", pairs.region_ids, len(pairs.regions)),
        ("word", pairs.word_ids, len(vocab)),
    ):
        low, high = int(ids.min()), int(ids.max())
        if low < 0 or high >= size:
            raise ValueError(f"{name} ids must lie in [0, {size}), found {low}..{high}")
    noise = NoiseDistribution(pairs, len(vocab))

    d = config.dimension
    k = config.negatives
    rng = np.random.default_rng(config.seed)
    bound = 0.5 / d
    region_vecs = rng.uniform(-bound, bound, size=(len(pairs.regions), d))
    word_vecs = rng.uniform(-bound, bound, size=(len(vocab), d))

    work = _Workspace(d, k)
    lr0 = config.learning_rate
    total_steps = config.epochs * n_pairs
    lr_slope = (FINAL_LEARNING_RATE - lr0) / (total_steps - 1) if total_steps > 1 else 0.0

    step = 0
    epoch_losses: list[float] = []
    # a diverging run overflows; the checks below report it, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n_pairs)
            epoch_regions = pairs.region_ids[order]
            epoch_words = pairs.word_ids[order]
            epoch_negs = noise.sample_rows(epoch_regions, k, rng, positives=epoch_words)
            loss_sum = 0.0
            for start in range(0, n_pairs, BATCH_PAIRS):
                stop = min(start + BATCH_PAIRS, n_pairs)
                lr = lr0 + lr_slope * (step + (stop - start - 1) / 2)
                loss_sum += _sgd_step(
                    region_vecs,
                    word_vecs,
                    epoch_regions[start:stop],
                    epoch_words[start:stop],
                    epoch_negs[start:stop],
                    lr,
                    work,
                )
                step += stop - start

            mean_loss = loss_sum / n_pairs
            if not math.isfinite(mean_loss):
                raise RuntimeError(
                    f"training diverged at epoch {epoch}: non-finite loss "
                    "(try a lower learning rate)"
                )
            epoch_losses.append(mean_loss)

        # a finite loss can leave vectors whose norms overflow, and those have
        # no cosine; the norms are computed as similarity_matrix computes them,
        # BATCH_PAIRS rows at a time, so the check adds no copy of a table
        for kind, names, vecs in (("region", pairs.regions, region_vecs),
                                  ("word", vocab.terms, word_vecs)):
            norms = itertools.chain.from_iterable(
                np.sqrt(np.sum(rows * rows, axis=1)).tolist()
                for rows in np.split(vecs, range(BATCH_PAIRS, len(vecs), BATCH_PAIRS)))
            huge = [name for name, norm in zip(names, norms) if not math.isfinite(norm)]
            if huge:
                raise RuntimeError(f"training diverged: non-finite norm for {kind} vectors "
                                   f"{reprlib.repr(huge)} (try a lower learning rate)")

    return EmbeddingModel(
        region_vectors=dict(zip(pairs.regions, region_vecs)),
        word_vectors=dict(zip(vocab.terms, word_vecs)),
        config=config,
        epoch_losses=tuple(epoch_losses),
    )


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Write the region vectors as text: a header line, then one per line.

    Word vectors are not written: no stage reads them, as word2vec keeps
    only its input vectors, so a loaded model has none. Values carry 17
    significant digits so save/load round-trips are bit-exact. Rows are
    made one at a time from one row template and written by write_lines,
    whose file then replaces ``path``, so a failed save leaves it as it was.
    """
    d = model.config.dimension
    row = "r\t%s\t" + " ".join(["%.17g"] * d)
    vectors = model.region_vectors
    header = "dim=%d\tregions=%d\tseed=%d\tvariant=%s" % (
        d, len(vectors), model.config.seed, MODEL_VARIANT
    )
    rows = (row % (name, *vectors[name].tolist()) for name in sorted(vectors))
    tmp = write_lines(path, itertools.chain([header], rows))
    try:
        os.replace(tmp, path)
    except OSError as exc:  # say, a directory has the name of path
        tmp.unlink()
        raise IngestError(f"cannot write {path}: {exc.strerror}") from exc


def load_model(path: str | Path) -> EmbeddingModel:
    """Read a model written by save_model, one line at a time.

    The file is read with read_lines as an artifact. Bad content, a byte
    that is not UTF-8 and a file cut short each raise IngestError naming
    ``path``. Each tab-separated key=value field of the header must be given
    once, and variant must be MODEL_VARIANT. Every row must be a region
    (``r``) row, each region given once; ``word_vectors`` comes back empty.
    """
    import numpy as np
    region_vectors: dict[str, np.ndarray] = {}
    lines = read_lines(path, artifact=True)
    _, first = next(lines, (1, ""))
    if not first:
        raise IngestError(f"empty model file {path}")
    header: dict[str, str] = {}
    try:
        for part in first.split("\t"):  # as in a manifest, each field is a key=value given once
            key, sep, value = part.partition("=")
            if not sep or key in header:
                raise ValueError(part)
            header[key] = value
        config = EmbeddingConfig(dimension=int(header["dim"]), seed=int(header["seed"]))
        n_regions = int(header["regions"])
        if header["variant"] != MODEL_VARIANT:
            raise ValueError(f"variant {header['variant']!r}")
    except (KeyError, ValueError) as exc:
        raise IngestError(f"malformed model header in {path}: {reprlib.repr(first)}") from exc

    for lineno, line in lines:
        kind, _, rest = line.partition("\t")
        if kind != "r":
            raise IngestError(f"{path}:{lineno}: unknown vector kind {reprlib.repr(kind)}")
        name, _, values = rest.partition("\t")
        if name in region_vectors:
            # every line after the header is an r row, so the n-th region is on line n + 1
            first = list(region_vectors).index(name) + 2
            raise IngestError(f"{path}:{lineno}: region {reprlib.repr(name)} is given twice "
                              f"(first at line {first})")
        try:
            region_vectors[name] = np.array(parse_numbers(values.split(" "), config.dimension))
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
    if len(region_vectors) != n_regions:
        raise IngestError(
            f"{path}: header promises {n_regions} regions, found {len(region_vectors)}"
        )
    return EmbeddingModel(region_vectors=region_vectors, word_vectors={}, config=config)
