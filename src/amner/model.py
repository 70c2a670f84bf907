"""Embedding tables and the BiLSTM encoder producing per-tag scores.

Each token is represented as the concatenation of a word-embedding row
and a character-level vector built by running a small BiLSTM over the
token's characters.  Those representations pass through a word-level
BiLSTM and a linear projection to per-tag emission scores, which a CRF
(see :mod:`amner.crf`) turns into sequence-level predictions.

Everything is 64-bit numpy: forward passes cache intermediates and
hand-written backward passes return gradients keyed by tensor name, which
keeps the whole network finite-difference checkable.

The LSTM cell uses peephole connections: the forget and input gates peek
at the previous cell state, the output gate at the current one:

    f = sigmoid(W_fx x + W_fh h_prev + p_f * c_prev + b_f)
    i = sigmoid(W_ix x + W_ih h_prev + p_i * c_prev + b_i)
    c = f * c_prev + i * tanh(W_cx x + W_ch h_prev + b_c)
    o = sigmoid(W_ox x + W_oh h_prev + p_o * c + b_o)
    h = o * tanh(c)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .crf import CrfParams


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class EmbeddingFormatError(ValueError):
    """Malformed embedding file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class EmbeddingTable:
    """Token-to-row lookup with a dedicated row for unseen tokens."""

    vocab: dict[str, int]
    matrix: np.ndarray  # (V, D)
    unk_row: np.ndarray  # (D,)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.unk_row = np.asarray(self.unk_row, dtype=np.float64)
        if self.matrix.ndim != 2 or self.unk_row.shape != (self.matrix.shape[1],):
            raise ValueError("embedding matrix and unk row widths disagree")
        if len(self.vocab) != self.matrix.shape[0]:
            raise ValueError("vocab size does not match the matrix row count")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def tokens(self) -> list[str]:
        return [tok for tok, _ in sorted(self.vocab.items(), key=lambda kv: kv[1])]

    def index_of(self, token: str) -> int | None:
        """Row index for an exact match (no case folding), else None."""
        return self.vocab.get(token)

    @classmethod
    def random(cls, tokens: Sequence[str], dim: int, rng: np.random.Generator) -> "EmbeddingTable":
        vocab = {tok: idx for idx, tok in enumerate(tokens)}
        if len(vocab) != len(tokens):
            raise ValueError("duplicate tokens in embedding vocabulary")
        fan = (len(tokens), dim)
        matrix = _glorot(rng, fan[0], fan[1], (len(tokens), dim))
        unk = _glorot(rng, fan[0], fan[1], (dim,))
        return cls(vocab, matrix, unk)

    def tensors(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.matrix": self.matrix, f"{prefix}.unk": self.unk_row}


@dataclass
class SparseRows:
    """Row-sparse gradient of a (V, D) table: the rows not listed are zero.

    ``rows`` are unique row indices and ``values[k]`` is the gradient of
    row ``rows[k]``.
    """

    rows: np.ndarray  # (n,) int64
    values: np.ndarray  # (n, D)
    shape: tuple[int, int]

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.values.nbytes

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows] = self.values
        return out


def lookup(table: EmbeddingTable, token: str) -> np.ndarray:
    idx = table.index_of(token)
    return table.matrix[idx] if idx is not None else table.unk_row


def load_embeddings(text: str | bytes, expected_dim: int, seed: int = 0) -> EmbeddingTable:
    """Parse the text vector format: a `V D` header, then `token v1 .. vD` lines.

    Fields are separated by single ASCII spaces, so tokens may contain
    other whitespace such as U+00A0.  One trailing space and one trailing
    carriage return per line are ignored, as fastText's `.vec` files end
    every value with a space.  The unknown-token row is drawn fresh from
    the initializer, seeded for reproducibility.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EmbeddingFormatError(f"invalid UTF-8: {exc}") from exc
    lines = text.split("\n")
    if not lines or not lines[0].strip():
        raise EmbeddingFormatError("missing `V D` header", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise EmbeddingFormatError("header must be `V D`", 1)
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise EmbeddingFormatError("non-numeric header", 1) from None
    if dim != expected_dim:
        raise EmbeddingFormatError(f"dimension {dim} != expected {expected_dim}", 1)

    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.removesuffix("\r").removesuffix(" ").split(" ")
        if len(parts) != dim + 1:
            raise EmbeddingFormatError(
                f"expected a token plus {dim} values, got {len(parts)} fields", lineno
            )
        token = parts[0]
        if token in vocab:
            raise EmbeddingFormatError(f"duplicate token {token!r}", lineno)
        try:
            values = np.array([float(p) for p in parts[1:]], dtype=np.float64)
        except ValueError:
            raise EmbeddingFormatError("non-numeric value", lineno) from None
        vocab[token] = len(rows)
        rows.append(values)
    if len(rows) != count:
        raise EmbeddingFormatError(f"header declares {count} rows, file has {len(rows)}")
    rng = np.random.default_rng(seed)
    unk = _glorot(rng, max(count, 1), dim, (dim,))
    matrix = np.stack(rows) if rows else np.zeros((0, dim))
    return EmbeddingTable(vocab, matrix, unk)


# ---------------------------------------------------------------------------
# LSTM


_LSTM_FIELDS = (
    "w_fx", "w_ix", "w_cx", "w_ox",
    "w_fh", "w_ih", "w_ch", "w_oh",
    "p_f", "p_i", "p_o",
    "b_f", "b_i", "b_c", "b_o",
)


@dataclass
class LstmParams:
    w_fx: np.ndarray
    w_ix: np.ndarray
    w_cx: np.ndarray
    w_ox: np.ndarray
    w_fh: np.ndarray
    w_ih: np.ndarray
    w_ch: np.ndarray
    w_oh: np.ndarray
    p_f: np.ndarray
    p_i: np.ndarray
    p_o: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray

    def __post_init__(self):
        for name in _LSTM_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        hidden, input_dim = self.w_fx.shape
        for name in ("w_ix", "w_cx", "w_ox"):
            if getattr(self, name).shape != (hidden, input_dim):
                raise ValueError(f"{name} shape mismatch")
        for name in ("w_fh", "w_ih", "w_ch", "w_oh"):
            if getattr(self, name).shape != (hidden, hidden):
                raise ValueError(f"{name} shape mismatch")
        for name in ("p_f", "p_i", "p_o", "b_f", "b_i", "b_c", "b_o"):
            if getattr(self, name).shape != (hidden,):
                raise ValueError(f"{name} shape mismatch")

    @property
    def hidden(self) -> int:
        return self.w_fx.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_fx.shape[1]

    @classmethod
    def random(cls, input_dim: int, hidden: int, rng: np.random.Generator) -> "LstmParams":
        def inp():
            return _glorot(rng, input_dim, hidden, (hidden, input_dim))

        def rec():
            return _glorot(rng, hidden, hidden, (hidden, hidden))

        return cls(
            inp(), inp(), inp(), inp(),
            rec(), rec(), rec(), rec(),
            np.zeros(hidden), np.zeros(hidden), np.zeros(hidden),
            np.zeros(hidden), np.zeros(hidden), np.zeros(hidden), np.zeros(hidden),
        )

    def tensors(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.{name}": getattr(self, name) for name in _LSTM_FIELDS}


def lstm_step(
    params: LstmParams, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One peephole-LSTM update; returns (h_t, c_t)."""
    h, c, _ = _lstm_step_cached(params, np.asarray(x_t, float), h_prev, c_prev)
    return h, c


def _lstm_step_cached(params, x_t, h_prev, c_prev):
    if x_t.shape != (params.input_dim,):
        raise ValueError(f"input width {x_t.shape} != expected ({params.input_dim},)")
    if h_prev.shape != (params.hidden,) or c_prev.shape != (params.hidden,):
        raise ValueError("state width mismatch")
    f = _sigmoid(params.w_fx @ x_t + params.w_fh @ h_prev + params.p_f * c_prev + params.b_f)
    i = _sigmoid(params.w_ix @ x_t + params.w_ih @ h_prev + params.p_i * c_prev + params.b_i)
    g = np.tanh(params.w_cx @ x_t + params.w_ch @ h_prev + params.b_c)
    c = f * c_prev + i * g
    o = _sigmoid(params.w_ox @ x_t + params.w_oh @ h_prev + params.p_o * c + params.b_o)
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = (x_t, h_prev, c_prev, f, i, g, o, c, tanh_c)
    return h, c, cache


def _lstm_forward(params: LstmParams, xs: Sequence[np.ndarray]):
    h = np.zeros(params.hidden)
    c = np.zeros(params.hidden)
    states, caches = [], []
    for x in xs:
        h, c, cache = _lstm_step_cached(params, x, h, c)
        states.append(h)
        caches.append(cache)
    return states, caches


def _lstm_backward(params: LstmParams, caches, d_states):
    """Backprop through a whole run.

    ``d_states[t]`` is the loss gradient flowing into h_t from outside;
    returns (gradient dict keyed by field name, gradients on the inputs).
    """
    grads = {name: np.zeros_like(getattr(params, name)) for name in _LSTM_FIELDS}
    dxs = [None] * len(caches)
    dh_carry = np.zeros(params.hidden)
    dc = np.zeros(params.hidden)
    for t in range(len(caches) - 1, -1, -1):
        x_t, h_prev, c_prev, f, i, g, o, c, tanh_c = caches[t]
        dh = d_states[t] + dh_carry
        d_ao = dh * tanh_c * o * (1.0 - o)
        dc = dc + dh * o * (1.0 - tanh_c ** 2) + d_ao * params.p_o
        d_af = dc * c_prev * f * (1.0 - f)
        d_ai = dc * g * i * (1.0 - i)
        d_ag = dc * i * (1.0 - g ** 2)

        grads["w_fx"] += np.outer(d_af, x_t)
        grads["w_ix"] += np.outer(d_ai, x_t)
        grads["w_cx"] += np.outer(d_ag, x_t)
        grads["w_ox"] += np.outer(d_ao, x_t)
        grads["w_fh"] += np.outer(d_af, h_prev)
        grads["w_ih"] += np.outer(d_ai, h_prev)
        grads["w_ch"] += np.outer(d_ag, h_prev)
        grads["w_oh"] += np.outer(d_ao, h_prev)
        grads["p_f"] += d_af * c_prev
        grads["p_i"] += d_ai * c_prev
        grads["p_o"] += d_ao * c
        grads["b_f"] += d_af
        grads["b_i"] += d_ai
        grads["b_c"] += d_ag
        grads["b_o"] += d_ao

        dxs[t] = (
            params.w_fx.T @ d_af + params.w_ix.T @ d_ai
            + params.w_cx.T @ d_ag + params.w_ox.T @ d_ao
        )
        dh_carry = (
            params.w_fh.T @ d_af + params.w_ih.T @ d_ai
            + params.w_ch.T @ d_ag + params.w_oh.T @ d_ao
        )
        dc = dc * f + d_af * params.p_f + d_ai * params.p_i
    return grads, dxs


@dataclass
class BiLstmParams:
    forward: LstmParams
    backward: LstmParams

    def __post_init__(self):
        if self.forward.hidden != self.backward.hidden:
            raise ValueError("forward and backward hidden widths disagree")
        if self.forward.input_dim != self.backward.input_dim:
            raise ValueError("forward and backward input widths disagree")

    @property
    def hidden(self) -> int:
        return self.forward.hidden

    @classmethod
    def random(cls, input_dim: int, hidden: int, rng: np.random.Generator) -> "BiLstmParams":
        return cls(LstmParams.random(input_dim, hidden, rng), LstmParams.random(input_dim, hidden, rng))

    def tensors(self, prefix: str) -> dict[str, np.ndarray]:
        out = self.forward.tensors(f"{prefix}_fwd")
        out.update(self.backward.tensors(f"{prefix}_bwd"))
        return out


def _bilstm_forward(params: BiLstmParams, xs: Sequence[np.ndarray]):
    if not len(xs):
        raise ValueError("BiLSTM input must be non-empty")
    f_states, f_caches = _lstm_forward(params.forward, xs)
    b_states, b_caches = _lstm_forward(params.backward, xs[::-1])
    length = len(xs)
    outs = [
        np.concatenate([f_states[t], b_states[length - 1 - t]]) for t in range(length)
    ]
    return outs, (f_caches, b_caches, length)


def _bilstm_backward(params: BiLstmParams, cache, d_outs):
    f_caches, b_caches, length = cache
    hidden = params.hidden
    d_f = [d_outs[t][:hidden] for t in range(length)]
    d_b = [d_outs[length - 1 - j][hidden:] for j in range(length)]
    f_grads, f_dxs = _lstm_backward(params.forward, f_caches, d_f)
    b_grads, b_dxs = _lstm_backward(params.backward, b_caches, d_b)
    dxs = [f_dxs[t] + b_dxs[length - 1 - t] for t in range(length)]
    return f_grads, b_grads, dxs


def bilstm_run(params: BiLstmParams, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-position concat of forward and reverse-direction hidden states.

    Both directions start from zero states; the reverse direction
    traverses the sequence back to front.
    """
    xs = [np.asarray(x, dtype=np.float64) for x in inputs]
    outs, _ = _bilstm_forward(params, xs)
    return outs


# ---------------------------------------------------------------------------
# Character-level word encoding


def _char_vectors(table: EmbeddingTable, word: str):
    indices = [table.index_of(ch) for ch in word]
    vecs = [table.matrix[i] if i is not None else table.unk_row for i in indices]
    return indices, vecs


def _encode_chars_forward(table: EmbeddingTable, params: BiLstmParams, word: str):
    if not word:
        raise ValueError("cannot encode an empty word")
    indices, vecs = _char_vectors(table, word)
    f_states, f_caches = _lstm_forward(params.forward, vecs)
    b_states, b_caches = _lstm_forward(params.backward, vecs[::-1])
    vec = np.concatenate([f_states[-1], b_states[-1]])
    return vec, (indices, f_caches, b_caches, len(vecs))


def _encode_chars_backward(table, params, cache, d_vec, d_matrix, d_unk):
    indices, f_caches, b_caches, length = cache
    hidden = params.hidden
    zero = np.zeros(hidden)
    d_f = [zero] * (length - 1) + [d_vec[:hidden]]
    d_b = [zero] * (length - 1) + [d_vec[hidden:]]
    f_grads, f_dxs = _lstm_backward(params.forward, f_caches, d_f)
    b_grads, b_dxs = _lstm_backward(params.backward, b_caches, d_b)
    for pos, idx in enumerate(indices):
        d_emb = f_dxs[pos] + b_dxs[length - 1 - pos]
        if idx is None:
            d_unk += d_emb
        else:
            d_matrix[idx] += d_emb
    return f_grads, b_grads


def encode_word_chars(char_table: EmbeddingTable, params: BiLstmParams, word: str) -> np.ndarray:
    """Character BiLSTM summary of a word: concat of the two final states."""
    vec, _ = _encode_chars_forward(char_table, params, word)
    return vec


# ---------------------------------------------------------------------------
# Sentence encoder


@dataclass
class EncoderParams:
    """Every trainable piece between raw tokens and emission scores."""

    char_table: EmbeddingTable
    char_bilstm: BiLstmParams
    word_table: EmbeddingTable
    word_bilstm: BiLstmParams
    proj_w: np.ndarray  # (2 * word hidden, K)
    proj_b: np.ndarray  # (K,)
    dropout_rate: float = 0.5

    def __post_init__(self):
        self.proj_w = np.asarray(self.proj_w, dtype=np.float64)
        self.proj_b = np.asarray(self.proj_b, dtype=np.float64)
        token_width = self.word_table.dim + 2 * self.char_bilstm.hidden
        if self.word_bilstm.forward.input_dim != token_width:
            raise ValueError(
                f"word BiLSTM expects width {self.word_bilstm.forward.input_dim}, "
                f"token vectors have {token_width}"
            )
        if self.proj_w.shape[0] != 2 * self.word_bilstm.hidden:
            raise ValueError("projection input width mismatch")
        if self.proj_b.shape != (self.proj_w.shape[1],):
            raise ValueError("projection bias width mismatch")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")

    @property
    def num_tags(self) -> int:
        return self.proj_w.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        out = self.char_table.tensors("char_table")
        out.update(self.char_bilstm.tensors("char"))
        out.update(self.word_table.tensors("word_table"))
        out.update(self.word_bilstm.tensors("word"))
        out["proj.weight"] = self.proj_w
        out["proj.bias"] = self.proj_b
        return out


def init_encoder(
    word_tokens: Sequence[str],
    char_tokens: Sequence[str],
    num_tags: int,
    word_dim: int = 300,
    char_dim: int = 25,
    char_hidden: int = 25,
    word_hidden: int = 100,
    dropout_rate: float = 0.5,
    seed: int = 0,
) -> EncoderParams:
    """Seeded random encoder; weight matrices are uniform with the
    +-sqrt(6 / (fan_in + fan_out)) bound, biases and peepholes zero.
    """
    rng = np.random.default_rng(seed)
    char_table = EmbeddingTable.random(char_tokens, char_dim, rng)
    char_bilstm = BiLstmParams.random(char_dim, char_hidden, rng)
    word_table = EmbeddingTable.random(word_tokens, word_dim, rng)
    token_width = word_dim + 2 * char_hidden
    word_bilstm = BiLstmParams.random(token_width, word_hidden, rng)
    proj_w = _glorot(rng, 2 * word_hidden, num_tags, (2 * word_hidden, num_tags))
    return EncoderParams(
        char_table, char_bilstm, word_table, word_bilstm,
        proj_w, np.zeros(num_tags), dropout_rate,
    )


def init_crf(num_tags: int, rng: np.random.Generator) -> CrfParams:
    transitions = _glorot(rng, num_tags, num_tags, (num_tags, num_tags))
    return CrfParams(transitions, np.zeros(num_tags), np.zeros(num_tags))


def _as_words(sentence) -> list[str]:
    surfaces = getattr(sentence, "surfaces", sentence)
    return [str(w) for w in surfaces]


def _dropout_mask(rng: np.random.Generator, width: int, rate: float) -> np.ndarray:
    # inverted dropout: surviving units are scaled so inference needs no rescale
    return (rng.random(width) >= rate) / (1.0 - rate)


def encode_forward(
    params: EncoderParams,
    sentence,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Emission scores (L, K) plus the cache the backward pass needs.

    In train mode an inverted-dropout mask is applied to each token's
    concatenated input vector and to each BiLSTM output vector; masks
    are drawn per position, inputs first, then outputs.
    """
    words = _as_words(sentence)
    if not words:
        raise ValueError("cannot encode an empty sentence")
    use_dropout = train and params.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode encoding with dropout needs a random generator")

    word_rows: list[int | None] = []
    char_caches = []
    xs = []
    in_masks = []
    for word in words:
        row = params.word_table.index_of(word)
        word_vec = params.word_table.matrix[row] if row is not None else params.word_table.unk_row
        char_vec, char_cache = _encode_chars_forward(params.char_table, params.char_bilstm, word)
        x = np.concatenate([word_vec, char_vec])
        if use_dropout:
            mask = _dropout_mask(rng, x.shape[0], params.dropout_rate)
            in_masks.append(mask)
            x = x * mask
        word_rows.append(row)
        char_caches.append(char_cache)
        xs.append(x)

    outs, bilstm_cache = _bilstm_forward(params.word_bilstm, xs)
    out_masks = []
    if use_dropout:
        dropped = []
        for out in outs:
            mask = _dropout_mask(rng, out.shape[0], params.dropout_rate)
            out_masks.append(mask)
            dropped.append(out * mask)
        outs = dropped

    emissions = np.stack(outs) @ params.proj_w + params.proj_b
    cache = (words, word_rows, char_caches, in_masks, bilstm_cache, np.stack(outs), out_masks)
    return emissions, cache


def encode_backward(
    params: EncoderParams, cache, d_emissions: np.ndarray
) -> dict[str, np.ndarray | SparseRows]:
    """Gradients of every encoder tensor given d(loss)/d(emissions).

    Keys follow ``params.tensors()``.  ``word_table.matrix`` is returned
    as :class:`SparseRows` over the rows of the sentence's in-vocabulary
    words, so its cost does not grow with the vocabulary; each row's
    value is summed in token order from zero, exactly as a dense table
    gradient would be.  Every other gradient is a dense array, and
    out-of-vocabulary tokens feed ``word_table.unk``.
    """
    words, word_rows, char_caches, in_masks, bilstm_cache, outs, out_masks = cache
    # the word-table slot keeps its place and is filled in at the end
    grads = {
        name: None if name == "word_table.matrix" else np.zeros_like(arr)
        for name, arr in params.tensors().items()
    }

    grads["proj.weight"] += outs.T @ d_emissions
    grads["proj.bias"] += d_emissions.sum(axis=0)
    d_outs = d_emissions @ params.proj_w.T
    d_out_list = [d_outs[t] for t in range(d_outs.shape[0])]
    if out_masks:
        d_out_list = [d * m for d, m in zip(d_out_list, out_masks)]

    f_grads, b_grads, dxs = _bilstm_backward(params.word_bilstm, bilstm_cache, d_out_list)
    for name, arr in f_grads.items():
        grads[f"word_fwd.{name}"] += arr
    for name, arr in b_grads.items():
        grads[f"word_bwd.{name}"] += arr

    word_dim = params.word_table.dim
    row_grads: dict[int, np.ndarray] = {}
    for t, word in enumerate(words):
        dx = dxs[t]
        if in_masks:
            dx = dx * in_masks[t]
        d_word = dx[:word_dim]
        row = word_rows[t]
        if row is None:
            grads["word_table.unk"] += d_word
        else:
            row_grads.setdefault(row, np.zeros(word_dim))
            row_grads[row] += d_word
        cf_grads, cb_grads = _encode_chars_backward(
            params.char_table, params.char_bilstm, char_caches[t], dx[word_dim:],
            grads["char_table.matrix"], grads["char_table.unk"],
        )
        for name, arr in cf_grads.items():
            grads[f"char_fwd.{name}"] += arr
        for name, arr in cb_grads.items():
            grads[f"char_bwd.{name}"] += arr
    grads["word_table.matrix"] = SparseRows(
        np.array(list(row_grads), dtype=np.int64),
        np.array(list(row_grads.values())).reshape(len(row_grads), word_dim),
        params.word_table.matrix.shape,
    )
    return grads


def encode_sentence(
    params: EncoderParams,
    sentence,
    mode: str = "infer",
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Per-token emission scores; ``mode`` is "train" or "infer".

    Inference is a pure function of (params, sentence).  Train mode
    applies dropout and therefore needs ``rng`` (a generator or a seed)
    whenever the dropout rate is positive.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(rng, int):
        rng = np.random.default_rng(rng)
    emissions, _ = encode_forward(params, sentence, train=(mode == "train"), rng=rng)
    return emissions


# ---------------------------------------------------------------------------
# Complete tagger (encoder + CRF + tag vocabulary)


@dataclass
class ModelParams:
    """Everything a trained tagger carries, CRF and tag order included."""

    tags: list[str]
    encoder: EncoderParams
    crf: CrfParams

    def __post_init__(self):
        if len(self.tags) != self.encoder.num_tags or len(self.tags) != self.crf.num_tags:
            raise ValueError("tag count disagrees between tag list, encoder and CRF")
        if len(set(self.tags)) != len(self.tags):
            raise ValueError("duplicate tags")

    @property
    def tag_index(self) -> dict[str, int]:
        return {tag: idx for idx, tag in enumerate(self.tags)}

    def tensors(self) -> dict[str, np.ndarray]:
        out = self.encoder.tensors()
        out.update(self.crf.tensors())
        return out
