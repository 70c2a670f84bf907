"""Training: Adam updates, batching, data splits, and the training loop.

A training run is fully determined by (seed, config, corpus): parameter
init, per-epoch shuffles (base seed plus epoch index), and dropout draws
all come from seeded generators, so equal seeds reproduce parameters,
logs and predictions bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from . import crf as crf_mod
from . import metrics as metrics_mod
from .corpus import (
    FormatError, Sentence, TagScheme, Token, all_finite, check_valid, tag_from_str, text_lines
)
from .model import (
    Batch,
    EmbeddingTable,
    ModelParams,
    SparseRows,
    encode_backward,
    encode_batch,
    encode_forward,
    init_crf,
    init_encoder,
)


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 20
    max_epochs: int = 50
    dropout: float = 0.5
    seed: int = 0
    clip_norm: float | None = None  # global-norm gradient clip, off by default
    patience: int | None = None  # early stopping on dev F1, off by default

    def __post_init__(self):
        # NaN fails every comparison, so each bound below also rejects it
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.clip_norm is not None and not 0.0 < self.clip_norm < math.inf:
            raise ValueError("clip_norm must be none or finite and positive")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be none or at least 1")

    def to_kv(self) -> str:
        # a float's str is its repr, which reads back to the same float
        return "".join(f"{k} {'none' if v is None else v}\n" for k, v in dataclasses.asdict(self).items())


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def field_type(name: str) -> type:
    """The type of a set value of TrainConfig field ``name``: its annotation less ``| None``."""
    return {"int": int, "float": float}[_FIELD_TYPES[name].removesuffix(" | None")]


def parse_train_config(text: str | bytes) -> TrainConfig:
    """Parse the flat `name value` config document into a TrainConfig.

    Each value is read as its field's annotated type; ``none`` clears an optional field.
    An option may be set once.
    """
    values = dataclasses.asdict(TrainConfig())
    seen = set()
    for lineno, line in text_lines(text):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise FormatError("expected `name value`", lineno)
        name, raw = parts
        if name not in _FIELD_TYPES:
            raise FormatError(f"unknown option {name!r}", lineno)
        if name in seen:
            raise FormatError(f"duplicate option {name!r}", lineno)
        seen.add(name)
        try:
            unset = _FIELD_TYPES[name].endswith(" | None") and raw.lower() == "none"
            values[name] = None if unset else field_type(name)(raw)
        except ValueError:
            raise FormatError(f"bad value {raw!r} for {name}", lineno) from None
    return TrainConfig(**values)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            0,
            {name: np.zeros_like(arr) for name, arr in params.items()},
            {name: np.zeros_like(arr) for name, arr in params.items()},
        )


# Adam's decay rates and denominator floor: Kingma & Ba's (2014) defaults
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

# elements per Adam block: the block's slices of the parameter, gradient,
# both moments and the two scratch vectors stay within a core's L2 cache
_ADAM_BLOCK = 16384


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    learning_rate: float,
) -> None:
    """One bias-corrected Adam update, applied in place to ``params``.

    Per element, in this order, with ``b1, b2, eps = BETA1, BETA2, EPSILON``:

        m = b1 * m + (1 - b1) * g
        v = b2 * v + ((1 - b2) * g) * g
        p -= (learning_rate * (m / bc1)) / (sqrt(v / bc2) + eps)

    Each tensor is updated in place over blocks of ``_ADAM_BLOCK``
    elements through two scratch vectors of that size, so the step
    allocates nothing sized by the tensors.  Parameters must be
    C-contiguous.  A tensor's shape check runs before any of it is
    updated; :func:`clip_global_norm`, run first, checks finiteness.
    """
    state.step += 1
    bc1, bc2 = 1.0 - BETA1 ** state.step, 1.0 - BETA2 ** state.step
    scratch_a, scratch_b = np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)
    for name, param in params.items():
        grad = grads[name]
        if grad.shape != param.shape:
            raise ValueError(
                f"gradient shape {grad.shape} != parameter shape {param.shape} for {name}"
            )
        if not param.flags.c_contiguous:
            raise ValueError(f"parameter {name} is not C-contiguous")
        p, g = param.reshape(-1), grad.reshape(-1)
        m, v = state.m[name].reshape(-1), state.v[name].reshape(-1)
        for start in range(0, p.size, _ADAM_BLOCK):
            block = slice(start, start + _ADAM_BLOCK)
            pb, gb, mb, vb = p[block], g[block], m[block], v[block]
            a, b = scratch_a[: pb.size], scratch_b[: pb.size]
            mb *= BETA1
            mb += np.multiply(gb, 1.0 - BETA1, out=a)
            vb *= BETA2
            np.multiply(gb, 1.0 - BETA2, out=a)
            vb += np.multiply(a, gb, out=a)
            np.divide(vb, bc2, out=a)
            np.sqrt(a, out=a)
            a += EPSILON
            np.divide(mb, bc1, out=b)
            b *= learning_rate
            pb -= np.divide(b, a, out=b)


def clip_global_norm(grads: dict[str, np.ndarray | SparseRows], max_norm: float | None) -> float:
    """Global L2 norm of all gradients, taken before they are scaled
    jointly so that it is at most ``max_norm`` (None: measure only).

    A :class:`SparseRows` gradient counts and scales its listed rows.
    Each tensor's sum of squares is one ``einsum`` dot product: it builds
    no temporary and, unlike a BLAS dot, does not depend on the thread
    count.
    It is the step's finiteness check too: only a tensor with a non-finite
    sum of squares is read again, and a NaN or infinity in it raises
    ValueError before any tensor is scaled; overflowing squares pass.
    """
    arrays = {name: g.values if isinstance(g, SparseRows) else g for name, g in grads.items()}
    squares = [float(np.einsum("i,i->", a.ravel(), a.ravel())) for a in arrays.values()]
    for (name, a), square in zip(arrays.items(), squares):
        if not math.isfinite(square) and not all_finite(a):
            raise ValueError(f"non-finite gradient in tensor {name}")
    total = np.sqrt(sum(squares))
    if max_norm is not None and total > max_norm and total > 0:
        scale = max_norm / total
        for array in arrays.values():
            array *= scale
    return float(total)


# ---------------------------------------------------------------------------
# Batches and splits


def make_batches(items: Sequence, batch_size: int, seed: int) -> list[list]:
    """Seeded shuffle, then consecutive chunks; the last may be short."""
    if not items:
        raise ValueError("cannot batch an empty corpus")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = np.random.default_rng(seed).permutation(len(items))
    shuffled = [items[int(idx)] for idx in order]
    return [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]


def kfold_split(n: int, k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """One (train, test) pair of index lists per fold.

    The test sides are consecutive chunks of one seeded permutation of
    range(n), whose sizes differ by at most one; each train side is the
    rest of that permutation, in order.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    order = [int(x) for x in np.random.default_rng(seed).permutation(n)]
    base, extra = divmod(n, k)
    splits = []
    hi = 0
    for i in range(k):
        lo, hi = hi, hi + base + (1 if i < extra else 0)
        splits.append((order[:lo] + order[hi:], order[lo:hi]))
    return splits


def holdout_split(n: int, train_fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """(train, test) index lists: a seeded permutation of range(n), split after its train part."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    # the 1e-9 guards float artifacts (0.29 * 100 = 28.999...996) so the
    # size is the mathematical floor for rational fractions
    train_size = int(np.floor(train_fraction * n + 1e-9))
    if train_size < 1 or train_size >= n:
        raise ValueError(
            f"fraction {train_fraction} of {n} items leaves an empty train or test side"
        )
    order = [int(x) for x in np.random.default_rng(seed).permutation(n)]
    return order[:train_size], order[train_size:]


# ---------------------------------------------------------------------------
# Model assembly, losses and tagging


def build_model(
    sentences: Sequence[Sentence],
    word_dim: int = 300,
    char_dim: int = 25,
    char_hidden: int = 25,
    word_hidden: int = 100,
    dropout: float = 0.5,
    seed: int = 0,
    pretrained: EmbeddingTable | None = None,
    extra_vocab: Sequence[str] = (),
    masked_training: bool = False,
) -> ModelParams:
    """Initialize a tagger for an IOB2 corpus.

    Vocabularies are the sorted surface forms and characters of the
    corpus (plus ``extra_vocab``).  Rows found in ``pretrained`` replace
    their random counterparts; everything else keeps the seeded init.
    ``masked_training`` makes the training loss apply the IOB2 masks of
    the tags; decoding applies them regardless.
    """
    if not sentences:
        raise ValueError("cannot build a model from an empty corpus")
    etypes = set()
    words = set(extra_vocab)
    chars = set()
    check_valid(sentences, TagScheme.IOB2)
    for sentence in sentences:
        for token in sentence.tokens:
            words.add(token.surface)
            chars.update(token.surface)
            if token.tag.position != "O":
                etypes.add(token.tag.etype)
    tags = crf_mod.default_tagset(sorted(etypes))

    encoder = init_encoder(
        sorted(words), sorted(chars), len(tags),
        word_dim=word_dim, char_dim=char_dim,
        char_hidden=char_hidden, word_hidden=word_hidden,
        dropout_rate=dropout, seed=seed,
    )
    if pretrained is not None:
        if pretrained.dim != word_dim:
            raise ValueError(
                f"pretrained vectors have dim {pretrained.dim}, model uses {word_dim}"
            )
        # rows of tokens with a pretrained vector take it; the unknown row keeps its init
        src = pretrained.ids(encoder.word_table.tokens())
        found = np.flatnonzero(src < len(pretrained.vocab))
        encoder.word_table.matrix[found] = pretrained.matrix[src[found]]

    crf_params = init_crf(len(tags), np.random.default_rng(seed + 1))
    return ModelParams(tags, encoder, crf_params, masked_training)


def _loss_masks(model: ModelParams):
    """The training loss's CRF masks: the IOB2 masks if the model trains masked."""
    return crf_mod.build_iob2_mask(model.tags) if model.masked_training else None


def sentence_loss_and_grads(
    model: ModelParams, batch: Batch, rng: np.random.Generator | None = None
) -> tuple[float, dict[str, np.ndarray | SparseRows]]:
    """Summed CRF negative log-likelihood of a ``batch`` encoded with its
    gold tags, plus all gradients.

    Dropout runs when ``rng`` is given and the model's rate is above 0.

    The gradients are keyed CRF tensors first, then encoder tensors in
    ``encode_backward``'s order; the word-table gradient is row-sparse.
    """
    emissions, cache = encode_forward(model.encoder, batch, rng=rng)
    loss, d_emissions, grads = crf_mod.nll_loss_and_grad(
        model.crf, emissions, batch.tags, batch.lengths, masks=_loss_masks(model)
    )
    grads.update(encode_backward(model.encoder, cache, d_emissions))
    return loss, grads


# tokens per tagging batch.  Larger batches step the BiLSTM's time loop
# fewer times per token; past 512 tokens they tag no faster, but their
# arrays keep growing: with the tokens alone, as no array of the model or
# of the CRF holds padding
TAG_TOKENS = 512


def tag_sentences(model: ModelParams, sentences: Sequence[Sentence]) -> list[Sentence]:
    """Viterbi-decode each sentence under the IOB2 masks of the model's tags.

    Sentences are taken in order of length and decoded in batches of
    consecutive ones holding at most ``TAG_TOKENS`` tokens, a longer
    sentence alone; each word type's character vector is computed once
    per call.
    """
    masks = crf_mod.build_iob2_mask(model.tags)
    tags = [tag_from_str(text, TagScheme.IOB2) for text in model.tags]
    type_vectors: dict[str, np.ndarray] = {}
    out: list[Sentence] = list(sentences)
    order = sorted(range(len(sentences)), key=lambda i: len(sentences[i].tokens))
    chunks: list[list[int]] = []
    size = 0
    for i in order:
        length = len(sentences[i].tokens)
        if not chunks or size + length > TAG_TOKENS:
            chunks.append([])
            size = 0
        chunks[-1].append(i)
        size += length
    for chunk in chunks:
        batch = encode_batch(model.encoder, [sentences[i] for i in chunk])
        emissions, _ = encode_forward(model.encoder, batch, type_vectors=type_vectors)
        paths, _ = crf_mod.viterbi_decode(model.crf, emissions, batch.lengths, masks=masks)
        for i, path in zip(chunk, paths):
            tokens = zip(sentences[i].tokens, path)
            out[i] = Sentence(tuple(Token(tok.surface, tags[idx]) for tok, idx in tokens))
    return out


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class EpochLog:
    epoch: int
    loss: float
    dev_f1: float | None = None
    tokens: int = 0
    wall_s: float = 0.0  # training time; dev scoring is not included
    tok_s: float = 0.0
    grad_norm_mean: float = 0.0  # global gradient norm before clipping, per batch
    grad_norm_max: float = 0.0
    clipped_batches: int = 0


def _dev_f1(model: ModelParams, dev: Sequence[Sentence]) -> float:
    predicted = tag_sentences(model, dev)
    result = metrics_mod.conll_evaluate(list(dev), predicted)
    return result.overall.f1


def train_model(
    sentences: Sequence[Sentence],
    model: ModelParams,
    config: TrainConfig,
    dev: Sequence[Sentence] | None = None,
    on_epoch: Callable[[EpochLog], bool | None] | None = None,
) -> list[EpochLog]:
    """Minimize the summed CRF NLL with Adam.

    Per epoch: reshuffle with seed + epoch, take one Adam step per batch
    on the summed batch gradient, and log an :class:`EpochLog` (with
    entity F1 on ``dev`` when given).  ``on_epoch`` may return True to
    stop early; ``config.patience`` stops after that many epochs without
    a dev F1 improvement, and is refused without ``dev``.  ``sentences``
    and ``dev`` must be valid IOB2, which is checked before any update,
    and ``config.dropout`` must equal the model's rate.

    The corpus is encoded once, gold tags included, and each batch is
    gathered from it.  Training reads and updates a view of the model
    whose word table holds the training words' rows plus row V, which
    stands for training words outside the vocabulary; every other tensor
    is the model's own.  The view's rows are written back after each epoch, so
    the model holds every trained row whenever ``dev`` scoring,
    ``on_epoch`` or the caller sees it.  Leaving the other rows out is
    exact: a row no training word reads, such as that of a word only in
    ``extra_vocab``, gets a zero gradient on every step, so its moments
    would stay zero and Adam would move it by 0 / (0 + eps) = 0.
    """
    if not sentences:
        raise ValueError("cannot train on an empty corpus")
    if config.patience is not None and dev is None:
        raise ValueError("patience stops on dev F1 and needs a dev set")
    if config.dropout != model.encoder.dropout_rate:
        raise ValueError(
            f"config dropout {config.dropout!r} differs from the model's rate "
            f"{model.encoder.dropout_rate!r}, which training uses"
        )
    for name, part in (("training set", sentences), ("dev set", dev or ())):
        try:
            check_valid(part, TagScheme.IOB2)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    table = model.encoder.word_table
    seen = {word for sentence in sentences for word in sentence.surfaces}
    words = sorted(seen & table.vocab.keys(), key=table.vocab.get)
    live = np.append(table.ids(words), len(table.vocab))
    view_table = EmbeddingTable({word: slot for slot, word in enumerate(words)}, table.matrix[live])
    view = dataclasses.replace(
        model, encoder=dataclasses.replace(model.encoder, word_table=view_table)
    )
    corpus = encode_batch(view.encoder, sentences, model.tag_index)
    params = view.tensors()
    state = AdamState.for_params(params)
    # the row-sparse word-table gradient is scattered into this buffer for
    # Adam; only the rows a step wrote are re-zeroed after it
    word_grad = np.zeros_like(view_table.matrix)
    dropout_rng = np.random.default_rng(config.seed)
    logs: list[EpochLog] = []
    best_f1 = -1.0
    stale = 0
    for epoch in range(config.max_epochs):
        started = perf_counter()
        entry = EpochLog(epoch=epoch, loss=0.0)
        norms = []
        batches = make_batches(range(len(sentences)), config.batch_size, config.seed + epoch)
        try:
            for batch_idx, ids in enumerate(batches):
                batch = corpus.take(ids)
                try:
                    loss, grads = sentence_loss_and_grads(view, batch, rng=dropout_rng)
                    if not np.isfinite(loss):
                        raise ValueError("non-finite loss")
                    norms.append(clip_global_norm(grads, config.clip_norm))
                    sparse = grads["word_table.matrix"]
                    word_grad[sparse.rows] = sparse.values
                    grads["word_table.matrix"] = word_grad
                    adam_step(state, params, grads, config.learning_rate)
                except ValueError as exc:
                    raise ValueError(f"epoch {epoch}, batch {batch_idx}: {exc}") from exc
                word_grad[sparse.rows] = 0.0
                entry.loss += loss
                entry.tokens += int(batch.lengths.sum())
        finally:
            table.matrix[live] = view_table.matrix
        entry.wall_s = perf_counter() - started
        entry.tok_s = entry.tokens / entry.wall_s if entry.wall_s > 0 else 0.0
        entry.grad_norm_mean = sum(norms) / len(norms)
        entry.grad_norm_max = max(norms)
        if config.clip_norm is not None:
            entry.clipped_batches = sum(1 for norm in norms if norm > config.clip_norm)
        if dev is not None:
            entry.dev_f1 = _dev_f1(model, dev)
        logs.append(entry)
        if on_epoch is not None and on_epoch(entry):
            break
        if config.patience is not None:
            if entry.dev_f1 > best_f1 + 1e-12:
                best_f1 = entry.dev_f1
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    return logs


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class GradCheckResult:
    per_tensor: dict[str, float]
    step: float
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.per_tensor.values())

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def render(self) -> str:
        width = max(len(name) for name in self.per_tensor)
        lines = [
            f"{name:<{width}}  {err:.3e}  {'ok' if err <= self.tolerance else 'FAIL'}"
            for name, err in sorted(self.per_tensor.items())
        ]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"max relative error {self.max_error:.3e} (tolerance {self.tolerance:g}): {verdict}")
        return "\n".join(lines) + "\n"


def gradient_check(
    model: ModelParams,
    sentence: Sentence,
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckResult:
    """Compare analytic NLL gradients against central differences.

    Dropout is disabled (the NLL would otherwise be stochastic).  Meant
    for tiny models; the cost is two forward passes per parameter entry.
    ``step`` and ``tolerance`` must be finite and positive.
    """
    if not (0.0 < step < math.inf and 0.0 < tolerance < math.inf):
        raise ValueError("step and tolerance must be finite and positive")
    batch = encode_batch(model.encoder, [sentence], model.tag_index)
    _, analytic = sentence_loss_and_grads(model, batch)
    masks = _loss_masks(model)

    def loss() -> float:  # the NLL without the encoder's backward pass
        emissions = encode_forward(model.encoder, batch)[0]
        return crf_mod.nll_loss_and_grad(model.crf, emissions, batch.tags, masks=masks)[0]

    params = model.tensors()
    report: dict[str, float] = {}
    for name, array in params.items():
        grad = analytic[name]
        if isinstance(grad, SparseRows):
            grad = grad.to_dense()
        worst = 0.0
        flat = array.reshape(-1)
        flat_grad = grad.reshape(-1)
        for pos in range(flat.shape[0]):
            original = flat[pos]
            flat[pos] = original + step
            up = loss()
            flat[pos] = original - step
            down = loss()
            flat[pos] = original
            numeric = (up - down) / (2.0 * step)
            # the floor keeps finite-difference noise on near-zero entries from dominating
            error = abs(flat_grad[pos] - numeric) / max(abs(flat_grad[pos]) + abs(numeric), 1e-3)
            worst = max(worst, float(error))
        report[name] = worst
    return GradCheckResult(report, step, tolerance)
