"""Training: Adam updates, batching, data splits, and the training loop.

A training run is fully determined by (seed, config, corpus): parameter
init, per-epoch shuffles (base seed plus epoch index), and dropout draws
all come from seeded generators, so equal seeds reproduce parameters,
logs and predictions bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import crf as crf_mod
from . import metrics as metrics_mod
from .corpus import Sentence, TagScheme, Token, tag_from_str, tag_to_str, validate_tags
from .model import (
    EmbeddingTable,
    ModelParams,
    SparseRows,
    encode_backward,
    encode_forward,
    init_crf,
    init_encoder,
)


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 20
    max_epochs: int = 50
    dropout: float = 0.5
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    clip_norm: float | None = None  # global-norm gradient clip, off by default
    patience: int | None = None  # early stopping on dev F1, off by default

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")

    def to_kv(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float):
                rendered = repr(value)
            elif value is None:
                rendered = "none"
            else:
                rendered = str(value)
            lines.append(f"{f.name} {rendered}")
        return "\n".join(lines) + "\n"


_OPTIONAL_FLOAT = ("clip_norm",)
_OPTIONAL_INT = ("patience",)


def parse_train_config(text: str, base: TrainConfig | None = None) -> TrainConfig:
    """Parse the flat `name value` config document into a TrainConfig."""
    values = dataclasses.asdict(base) if base is not None else dataclasses.asdict(TrainConfig())
    known = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"config line {lineno}: expected `name value`")
        name, raw = parts
        if name not in known:
            raise ValueError(f"config line {lineno}: unknown option {name!r}")
        try:
            if name in _OPTIONAL_FLOAT:
                values[name] = None if raw.lower() == "none" else float(raw)
            elif name in _OPTIONAL_INT:
                values[name] = None if raw.lower() == "none" else int(raw)
            elif name in ("batch_size", "max_epochs", "seed"):
                values[name] = int(raw)
            else:
                values[name] = float(raw)
        except ValueError:
            raise ValueError(f"config line {lineno}: bad value {raw!r} for {name}") from None
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


# elements per Adam block: the block's slices of the parameter, gradient,
# both moments and the two scratch vectors stay within a core's L2 cache
_ADAM_BLOCK = 16384


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    config: TrainConfig,
) -> tuple[AdamState, dict[str, np.ndarray]]:
    """One bias-corrected Adam update, applied in place to ``params``.

    Per element, in this order:

        m = b1 * m + (1 - b1) * g
        v = b2 * v + ((1 - b2) * g) * g
        p -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps)

    Each tensor is updated in place over blocks of ``_ADAM_BLOCK``
    elements through two scratch vectors of that size, so the step
    allocates nothing sized by the tensors.  Parameters must be
    C-contiguous.  A tensor's shape and finiteness checks run before
    any of it is updated.
    """
    state.step += 1
    b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.epsilon
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    scratch_a, scratch_b = np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)
    for name, param in params.items():
        grad = grads[name]
        if grad.shape != param.shape:
            raise ValueError(
                f"gradient shape {grad.shape} != parameter shape {param.shape} for {name}"
            )
        # min and max propagate NaN, and an infinity is one of them
        if grad.size and not (np.isfinite(grad.min()) and np.isfinite(grad.max())):
            raise ValueError(f"non-finite gradient in tensor {name}")
        if not param.flags.c_contiguous:
            raise ValueError(f"parameter {name} is not C-contiguous")
        p, g = param.reshape(-1), grad.reshape(-1)
        m, v = state.m[name].reshape(-1), state.v[name].reshape(-1)
        for start in range(0, p.size, _ADAM_BLOCK):
            block = slice(start, start + _ADAM_BLOCK)
            pb, gb, mb, vb = p[block], g[block], m[block], v[block]
            a, b = scratch_a[: pb.size], scratch_b[: pb.size]
            mb *= b1
            mb += np.multiply(gb, 1.0 - b1, out=a)
            vb *= b2
            np.multiply(gb, 1.0 - b2, out=a)
            vb += np.multiply(a, gb, out=a)
            np.divide(vb, bc2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(mb, bc1, out=b)
            b *= lr
            pb -= np.divide(b, a, out=b)
    return state, params


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients jointly so their global L2 norm is at most max_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for grad in grads.values():
            grad *= scale
    return total


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


@dataclass(frozen=True)
class SplitPlan:
    seed: int
    train: tuple[int, ...] | None = None
    test: tuple[int, ...] | None = None
    folds: tuple[tuple[int, ...], ...] | None = None

    def fold_train_test(self, fold: int) -> tuple[list[int], list[int]]:
        if self.folds is None:
            raise ValueError("not a k-fold plan")
        test = list(self.folds[fold])
        train = [idx for i, chunk in enumerate(self.folds) if i != fold for idx in chunk]
        return train, test


def kfold_split(n: int, k: int, seed: int) -> SplitPlan:
    """k folds whose sizes differ by at most one; disjoint cover of range(n)."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    order = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    cursor = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(tuple(int(x) for x in order[cursor : cursor + size]))
        cursor += size
    return SplitPlan(seed=seed, folds=tuple(folds))


def holdout_split(n: int, train_fraction: float, seed: int) -> SplitPlan:
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    # epsilon guards float artifacts (0.29 * 100 = 28.999...996) so the
    # size is the mathematical floor for rational fractions
    train_size = int(np.floor(train_fraction * n + 1e-9))
    if train_size < 1 or train_size >= n:
        raise ValueError(
            f"fraction {train_fraction} of {n} items leaves an empty train or test side"
        )
    order = np.random.default_rng(seed).permutation(n)
    train = tuple(int(x) for x in order[:train_size])
    test = tuple(int(x) for x in order[train_size:])
    return SplitPlan(seed=seed, train=train, test=test)


# ---------------------------------------------------------------------------
# Model assembly and the loss of one sentence


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
    The IOB2 constraint mask is baked into the CRF only when
    ``masked_training`` is set; decoding applies it regardless.
    """
    if not sentences:
        raise ValueError("cannot build a model from an empty corpus")
    etypes = set()
    words = set(extra_vocab)
    chars = set()
    for s_idx, sentence in enumerate(sentences):
        violations = validate_tags(sentence, TagScheme.IOB2)
        if violations:
            v = violations[0]
            raise ValueError(f"sentence {s_idx}: invalid IOB2 corpus: token {v.index}: {v.message}")
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
        for token, row in encoder.word_table.vocab.items():
            src = pretrained.index_of(token)
            if src is not None:
                encoder.word_table.matrix[row] = pretrained.matrix[src]

    crf_params = init_crf(len(tags), np.random.default_rng(seed + 1))
    if masked_training:
        crf_params = crf_params.with_masks(*crf_mod.build_iob2_mask(tags))
    return ModelParams(tags, encoder, crf_params)


def gold_indices(model: ModelParams, sentence: Sentence) -> list[int]:
    index = model.tag_index
    out = []
    for token in sentence.tokens:
        text = tag_to_str(token.tag, TagScheme.IOB2)
        if text not in index:
            raise ValueError(f"tag {text!r} not in the model's tag vocabulary")
        out.append(index[text])
    return out


def sentence_loss(model: ModelParams, sentence: Sentence) -> float:
    emissions, _ = encode_forward(model.encoder, sentence, train=False)
    gold = gold_indices(model, sentence)
    log_z = crf_mod.forward_log_partition(model.crf, emissions)
    return log_z - crf_mod.score_sequence(model.crf, emissions, gold)


def sentence_loss_and_grads(
    model: ModelParams,
    sentence: Sentence,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, np.ndarray | SparseRows]]:
    """CRF negative log-likelihood of one sentence plus all gradients.

    The gradients are keyed CRF tensors first, then encoder tensors in
    ``encode_backward``'s order; the word-table gradient is row-sparse.
    """
    emissions, cache = encode_forward(model.encoder, sentence, train=train, rng=rng)
    gold = gold_indices(model, sentence)
    loss, d_emissions, grads = crf_mod.nll_loss_and_grad(model.crf, emissions, gold)
    grads.update(encode_backward(model.encoder, cache, d_emissions))
    return loss, grads


def tag_sentences(
    model: ModelParams, sentences: Sequence[Sentence], masked: bool = True
) -> list[Sentence]:
    """Viterbi-decode each sentence; by default under the IOB2 mask."""
    params = model.crf
    if masked:
        params = params.with_masks(*crf_mod.build_iob2_mask(model.tags))
    out = []
    for sentence in sentences:
        emissions, _ = encode_forward(model.encoder, sentence, train=False)
        path, _ = crf_mod.viterbi_decode(params, emissions)
        tags = [tag_from_str(model.tags[idx], TagScheme.IOB2) for idx in path]
        out.append(
            Sentence(tuple(Token(tok.surface, tag) for tok, tag in zip(sentence.tokens, tags)))
        )
    return out


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class EpochLog:
    epoch: int
    loss: float
    dev_f1: float | None = None


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
    on the summed batch gradient, and log the epoch's total loss (plus
    entity F1 on ``dev`` when given).  ``on_epoch`` may return True to
    stop early; ``config.patience`` stops after that many epochs without
    a dev F1 improvement.
    """
    if not sentences:
        raise ValueError("cannot train on an empty corpus")
    params = model.tensors()
    state = AdamState.for_params(params)
    # keyed in the order of sentence_loss_and_grads' dicts, because
    # clip_global_norm sums the per-tensor norms in dict order
    batch_grads = {
        name: np.zeros(params[name].shape)
        for name in (*model.crf.tensors(), *model.encoder.tensors())
    }
    # rows the current batch's sparse gradients wrote; only those are re-zeroed
    touched: dict[str, list[np.ndarray]] = {}
    dropout_rng = np.random.default_rng(config.seed)
    logs: list[EpochLog] = []
    best_f1 = -1.0
    stale = 0
    for epoch in range(config.max_epochs):
        epoch_loss = 0.0
        batches = make_batches(list(sentences), config.batch_size, config.seed + epoch)
        for batch_idx, batch in enumerate(batches):
            batch_loss = 0.0
            try:
                for sentence in batch:
                    loss, grads = sentence_loss_and_grads(
                        model, sentence, train=config.dropout > 0.0, rng=dropout_rng
                    )
                    batch_loss += loss
                    for name, grad in grads.items():
                        if isinstance(grad, SparseRows):
                            batch_grads[name][grad.rows] += grad.values
                            touched.setdefault(name, []).append(grad.rows)
                        else:
                            batch_grads[name] += grad
                if not np.isfinite(batch_loss):
                    raise TrainingError(
                        f"non-finite loss in epoch {epoch}, batch {batch_idx}"
                    )
                if config.clip_norm is not None:
                    clip_global_norm(batch_grads, config.clip_norm)
                adam_step(state, params, batch_grads, config)
            except ValueError as exc:
                raise TrainingError(f"epoch {epoch}, batch {batch_idx}: {exc}") from exc
            for name, buf in batch_grads.items():
                if name in touched:
                    buf[np.concatenate(touched.pop(name))] = 0.0
                else:
                    buf.fill(0.0)
            epoch_loss += batch_loss
        entry = EpochLog(epoch=epoch, loss=epoch_loss)
        if dev is not None:
            entry.dev_f1 = _dev_f1(model, dev)
        logs.append(entry)
        if on_epoch is not None and on_epoch(entry):
            break
        if config.patience is not None and dev is not None:
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


def _relative_error(analytic: float, numeric: float) -> float:
    # floor keeps finite-difference noise on near-zero entries from dominating
    return abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-3)


def gradient_check(
    model: ModelParams,
    sentence: Sentence,
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckResult:
    """Compare analytic NLL gradients against central differences.

    Dropout is disabled (the NLL would otherwise be stochastic).  Meant
    for tiny models; the cost is two forward passes per parameter entry.
    """
    _, analytic = sentence_loss_and_grads(model, sentence, train=False)
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
            up = sentence_loss(model, sentence)
            flat[pos] = original - step
            down = sentence_loss(model, sentence)
            flat[pos] = original
            numeric = (up - down) / (2.0 * step)
            worst = max(worst, _relative_error(float(flat_grad[pos]), numeric))
        report[name] = worst
    return GradCheckResult(report, step, tolerance)
