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

    (a_f, a_i, a_c, a_o) = w_x x + w_h h_prev + b
    f = sigmoid(a_f + p[0] * c_prev)
    i = sigmoid(a_i + p[1] * c_prev)
    c = f * c_prev + i * tanh(a_c)
    o = sigmoid(a_o + p[2] * c)
    h = o * tanh(c)

A BiLSTM is these four tensors with a leading direction axis, index 0
the forward LSTM and index 1 the reverse one, and the gates stacked in
the order f, i, c, o: ``w_x`` (2, 4H, D), ``w_h`` (2, 4H, H), ``b``
(2, 4H) and the peepholes ``p`` (2, 3, H).  An embedding table is one
(V + 1, D) matrix whose last row, V, is the unknown token's.  Training,
clipping, Adam, the gradient check and the model file (see
:mod:`amner.serialize`) all see these tensors and no other layout.

The encoder holds a batch of N sentences in one layout: their R tokens
concatenated in sentence order, (R, ·), each an index into the batch's
word types, which hold one word-table row each.  One BiLSTM routine
runs both BiLSTMs on that layout: the character BiLSTM once over the
characters of the batch's word types, each character reading its
character-table row, and the word BiLSTM once over the tokens of all N
sentences, each token reading its word type's row.  The routine projects
each row once when there are fewer rows than positions, so the character
BiLSTM projects each character-table row once and the word BiLSTM each
type once, except under training dropout, which masks each token's row
and so projects each token.
Inside, it packs the positions step by step: the sequences are ordered
longest first, so the ones still running at a step are a prefix, and
one time loop steps that prefix in both directions at once.  No array
of the encoder or of the CRF holds padding, the emissions (R, K) and
their gradient included: the CRF's recursions step the same packed
layout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import FormatError, Sentence, TagScheme, all_finite, tag_to_str, text_lines
from .crf import CrfParams, _pack, build_iob2_mask


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class EmbeddingTable:
    """Token-to-row lookup; the last row, V, is the unknown token's."""

    vocab: dict[str, int]
    matrix: np.ndarray  # (V + 1, D)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.vocab) + 1:
            raise ValueError("embedding matrix needs a row per token plus the unknown row")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def tokens(self) -> list[str]:
        return [tok for tok, _ in sorted(self.vocab.items(), key=lambda kv: kv[1])]

    def ids(self, tokens: Iterable[str]) -> np.ndarray:
        """Row of each token by exact match (no case folding); unseen tokens get row V."""
        unk = len(self.vocab)
        return np.array([self.vocab.get(tok, unk) for tok in tokens], dtype=np.int64)

    @classmethod
    def random(cls, tokens: Sequence[str], dim: int, rng: np.random.Generator) -> "EmbeddingTable":
        vocab = {tok: idx for idx, tok in enumerate(tokens)}
        if len(vocab) != len(tokens):
            raise ValueError("duplicate tokens in embedding vocabulary")
        return cls(vocab, _glorot(rng, len(tokens), dim, (len(tokens) + 1, dim)))

    def tensors(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.matrix": self.matrix}


@dataclass
class SparseRows:
    """Gradient of a (V, D) table that is zero outside the unique ``rows``;
    ``values[k]`` is the gradient of row ``rows[k]``."""

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


def load_embeddings(text: str | bytes, expected_dim: int, seed: int = 0) -> EmbeddingTable:
    """Parse the text vector format: a `V D` header, then `token v1 .. vD` lines.

    Fields are separated by single ASCII spaces, so tokens may contain
    other whitespace such as U+00A0, but a token that contains an ASCII
    space cannot have a vector in this format.  Trailing carriage returns
    and one trailing space per line are ignored, as fastText's `.vec`
    files end every value with a space.  Values are read as Python's
    ``float()`` reads them and must be finite.  The unknown-token row,
    appended last, is drawn fresh from the initializer, seeded for
    reproducibility.
    """
    lines = text_lines(text)
    header = next(lines)[1].split()
    if not header:
        raise FormatError("missing `V D` header", 1)
    if len(header) != 2:
        raise FormatError("header must be `V D`", 1)
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError("non-numeric header", 1) from None
    if dim != expected_dim:
        raise FormatError(f"dimension {dim} != expected {expected_dim}", 1)

    # filled in place, with room for no more rows than the input has line
    # breaks, whatever the header declares; rows past the declared count are
    # parsed and counted, not kept
    newlines = text.count("\n" if isinstance(text, str) else b"\n")
    matrix = np.empty((max(0, min(count, newlines)) + 1, dim))
    vocab: dict[str, int] = {}
    for lineno, line in lines:
        if not line.strip():
            continue
        parts = line.removesuffix(" ").split(" ")
        if len(parts) != dim + 1:
            raise FormatError(
                f"expected a token plus {dim} values, got {len(parts)} fields", lineno
            )
        token = parts[0]
        if not token:
            raise FormatError("empty token", lineno)
        if token in vocab:
            raise FormatError(f"duplicate token {token!r}", lineno)
        try:  # one call per line; numpy reads each string as float() does
            values = np.array(parts[1:], dtype=np.float64)
        except ValueError:
            raise FormatError("non-numeric value", lineno) from None
        if len(vocab) < len(matrix) - 1:
            matrix[len(vocab)] = values
        vocab[token] = len(vocab)
    if len(vocab) != count:
        raise FormatError(f"header declares {count} rows, file has {len(vocab)}")
    rng = np.random.default_rng(seed)
    matrix[count] = _glorot(rng, max(count, 1), dim, (dim,))
    if not all_finite(matrix):
        bad = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
        vector_lines = (n for n, line in text_lines(text) if n > 1 and line.strip())
        raise FormatError("non-finite value", next(itertools.islice(vector_lines, bad, None)))
    return EmbeddingTable(vocab, matrix)


# ---------------------------------------------------------------------------
# BiLSTM


@dataclass
class BiLstmParams:
    """Stacked peephole-BiLSTM weights; layout in the module docstring."""

    w_x: np.ndarray  # (2, 4H, D)
    w_h: np.ndarray  # (2, 4H, H)
    p: np.ndarray  # (2, 3, H)
    b: np.ndarray  # (2, 4H)

    def __post_init__(self):
        hidden = self.p.shape[-1]
        width = self.w_x.shape[-1]
        expected = (2, 3, hidden), (2, 4 * hidden), (2, 4 * hidden, hidden), (2, 4 * hidden, width)
        if (self.p.shape, self.b.shape, self.w_h.shape, self.w_x.shape) != expected:
            raise ValueError("BiLSTM tensor shapes disagree")

    @property
    def hidden(self) -> int:
        return self.w_h.shape[2]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[2]

    @classmethod
    def random(cls, input_dim: int, hidden: int, rng: np.random.Generator) -> "BiLstmParams":
        w_x, w_h = np.empty((2, 4 * hidden, input_dim)), np.empty((2, 4 * hidden, hidden))
        for direction in range(2):  # drawn forward w_x, forward w_h, reverse w_x, reverse w_h
            w_x[direction] = _glorot(rng, input_dim, hidden, w_x.shape[1:])
            w_h[direction] = _glorot(rng, hidden, hidden, w_h.shape[1:])
        return cls(w_x, w_h, np.zeros((2, 3, hidden)), np.zeros((2, 4 * hidden)))

    def tensors(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.{name}": getattr(self, name) for name in ("w_x", "w_h", "p", "b")}


def _bilstm_forward(
    params: BiLstmParams, xs: np.ndarray, lengths: np.ndarray, rows: np.ndarray | None = None
):
    """Both directions over concatenated sequences of R positions, where
    sequence n is the next lengths[n] positions and position r reads row
    rows[r] of xs, or row r when ``rows`` is None; a row outside xs raises
    IndexError.  The reverse direction reads each sequence from its own
    last position.  Returns (outs (R, 2H), cache), outs[r] holding both
    directions' states after position r.

    Internally the kernel works in the packed layout of :func:`crf._pack`:
    one GEMM per direction computes the input projection, of each row of
    xs once when xs has more than one row but fewer than there are
    positions, else of each position's row, to the same bits either way.
    One time loop then steps both directions over the prefix of positions
    still running.  Its recurrent product reads a C-contiguous copy of
    w_h^T, made once per call: on OpenBLAS 0.3.31 with one thread, a
    product through the transposed view is 1.4-3.4x slower at 4-25 rows,
    the running rows of tagging and training batches, while at 1-3 rows
    the two sum in another order.  The cache holds the caller's xs,
    not a copy, so xs must not change before the backward pass, and the
    row each packed position reads per direction; hs and cs (2, counts[0]
    + R, H) whose first counts[0] rows are the zero initial states and row
    counts[0] + p the state after packed position p; gates (2, R, 4, H)
    holding f, i, g, o; tanh_c (2, R, H); and the layout.
    """
    if not lengths.all():
        raise ValueError("cannot run a BiLSTM over an empty sequence")
    if rows is not None and not 0 <= rows.min() <= rows.max() < len(xs):
        raise IndexError(f"input rows must lie in [0, {len(xs)})")
    pack = counts, starts, fwd, rev, prev, _ = _pack(lengths)
    hidden, first = params.hidden, counts[0]
    reads = (fwd, rev) if rows is None else (rows[fwd], rows[rev])
    gates = np.empty((2, len(fwd), 4 * hidden))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite gate is refused below
        for d, idx in enumerate(reads):
            # numpy sends a one-row product to a matrix-vector routine, which
            # sums in another order than the rows of a GEMM
            if 1 < len(xs) < len(idx):
                proj = xs @ params.w_x[d].T
                proj += params.b[d]
                # mode="clip" skips the buffered copy mode="raise" makes; rows are checked above
                np.take(proj, idx, axis=0, out=gates[d], mode="clip")
            else:
                np.matmul(xs[idx], params.w_x[d].T, out=gates[d])
                gates[d] += params.b[d]
    gates = gates.reshape(2, -1, 4, hidden)
    # an overflowed product would saturate the gates instead of propagating
    # NaN, since a multi-row GEMM may return inf where the IEEE sum is NaN
    if not all_finite(gates):
        raise ValueError("non-finite LSTM input projection")
    hs, cs = np.zeros((2, 2, first + gates.shape[1], hidden))
    tanh_c = np.empty(gates.shape[:2] + (hidden,))
    w_h_t = np.ascontiguousarray(params.w_h.transpose(0, 2, 1))
    peep = params.p[:, None]  # (2, 1, 3, H): broadcast over the rows
    for n, lo in zip(counts, starts):
        here, read = slice(lo, lo + n), slice(prev[lo], prev[lo] + n)
        write = slice(first + lo, first + lo + n)
        a = gates[:, here]
        a += (hs[:, read] @ w_h_t).reshape(2, n, 4, hidden)
        a[:, :, :2] += peep[:, :, :2] * cs[:, read, None]
        a[:, :, :2] = _sigmoid(a[:, :, :2])
        a[:, :, 2] = np.tanh(a[:, :, 2])
        c = cs[:, write]
        np.multiply(a[:, :, 0], cs[:, read], out=c)
        c += a[:, :, 1] * a[:, :, 2]
        a[:, :, 3] = _sigmoid(a[:, :, 3] + peep[:, :, 2] * c)
        np.tanh(c, out=tanh_c[:, here])
        np.multiply(a[:, :, 3], tanh_c[:, here], out=hs[:, write])
    outs = np.empty((len(fwd), 2 * hidden))
    outs[fwd, :hidden] = hs[0, first:]
    outs[rev, hidden:] = hs[1, first:]
    return outs, ((xs, reads), hs, cs, gates, tanh_c, pack)


def _bilstm_backward(params: BiLstmParams, cache, d_outs: np.ndarray):
    """(gradients as BiLstmParams, d_xs (R, D)) from d(outs) (R, 2H).

    One reverse time loop over both directions only collects the gate
    pre-activation gradients d_a of the R positions, each row joining
    with zero carries at its last step; the weight and input gradients
    are then GEMMs over them, the input weights' one direction at a time
    over that direction's gather of the cached input rows.
    """
    (xs, reads), hs, cs, gates, tanh_c, (counts, starts, fwd, rev, prev, _) = cache
    _, total, _, hidden = gates.shape
    d_hs = np.stack([d_outs[fwd, :hidden], d_outs[rev, hidden:]])
    c_prev = cs[:, prev]
    peep_f, peep_i, peep_o = params.p.transpose(1, 0, 2)[:, :, None]  # each (2, 1, H)

    d_a = np.empty((2, total, 4, hidden))
    dh_carry, dc_carry = np.zeros((2, 2, counts[0], hidden))
    for n, lo in zip(reversed(counts), reversed(starts)):
        # this step's d(a_o)/dh, dc/dh, d(a_f, a_i, a_g)/dc, dc_prev/dc
        here = slice(lo, lo + n)
        f, i, g, o = (gates[:, here, k] for k in range(4))
        tc = tanh_c[:, here]
        k_o = tc * o * (1.0 - o)
        k_c = o * (1.0 - tc ** 2) + k_o * peep_o
        k_fig = np.empty((2, n, 3, hidden))
        np.multiply(c_prev[:, here] * f, 1.0 - f, out=k_fig[:, :, 0])
        np.multiply(g * i, 1.0 - i, out=k_fig[:, :, 1])
        np.multiply(i, 1.0 - g ** 2, out=k_fig[:, :, 2])
        dh = d_hs[:, here] + dh_carry[:, :n]
        dc = dc_carry[:, :n]  # a row not running at step t + 1 has carried nothing yet
        dc += dh * k_c
        np.multiply(dc[:, :, None], k_fig, out=d_a[:, here, :3])
        np.multiply(dh, k_o, out=d_a[:, here, 3])
        dh_carry[:, :n] = d_a[:, here].reshape(2, n, 4 * hidden) @ params.w_h
        dc *= f + k_fig[:, :, 0] * peep_f + k_fig[:, :, 1] * peep_i

    d_a2 = d_a.reshape(2, total, 4 * hidden)
    d_a2_t = d_a2.transpose(0, 2, 1)
    peep_in = (c_prev, c_prev, cs[:, counts[0]:])
    d_p = [(d_a[:, :, k] * s).sum(axis=1) for k, s in zip((0, 1, 3), peep_in)]
    d_w_x = np.empty_like(params.w_x)
    for d, idx in enumerate(reads):
        np.matmul(d_a2_t[d], xs[idx], out=d_w_x[d])
    grads = BiLstmParams(d_w_x, d_a2_t @ hs[:, prev], np.stack(d_p, axis=1), d_a2.sum(axis=1))
    d_packed = d_a2 @ params.w_x
    d_xs = np.empty(d_packed.shape[1:])
    d_xs[fwd] = d_packed[0]
    d_xs[rev] += d_packed[1]
    return grads, d_xs


# ---------------------------------------------------------------------------
# Character-level word encoding


def _chars_forward(table: EmbeddingTable, params: BiLstmParams, words: Sequence[str]):
    """Character BiLSTM summaries (N, 2H) of all ``words`` in one pass over
    their concatenated characters: the forward state after each word's
    last character and the reverse state after its first.  Unknown
    characters read row V.
    """
    lengths = np.array([len(word) for word in words])
    ids = table.ids("".join(words))
    outs, cache = _bilstm_forward(params, table.matrix, lengths, ids)
    hidden, ends = params.hidden, np.cumsum(lengths)
    last, first = ends - 1, ends - lengths
    vecs = np.concatenate([outs[last, :hidden], outs[first, hidden:]], axis=1)
    return vecs, (ids, last, first, cache)


def _chars_backward(table: EmbeddingTable, params: BiLstmParams, cache, d_vecs: np.ndarray):
    """(table gradient, BiLstmParams gradients)."""
    ids, last, first, bilstm_cache = cache
    hidden = params.hidden
    d_outs = np.zeros((len(ids), 2 * hidden))
    d_outs[last, :hidden] = d_vecs[:, :hidden]
    d_outs[first, hidden:] = d_vecs[:, hidden:]
    grads, d_xs = _bilstm_backward(params, bilstm_cache, d_outs)
    d_rows = np.zeros_like(table.matrix)
    np.add.at(d_rows, ids, d_xs)
    return d_rows, grads


# ---------------------------------------------------------------------------
# Batch encoder


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
        if self.char_bilstm.input_dim != self.char_table.dim:
            raise ValueError(f"char BiLSTM expects width {self.char_bilstm.input_dim}")
        token_width = self.word_table.dim + 2 * self.char_bilstm.hidden
        if self.word_bilstm.input_dim != token_width:
            raise ValueError(
                f"word BiLSTM expects width {self.word_bilstm.input_dim}, "
                f"token vectors have {token_width}"
            )
        if self.proj_w.ndim != 2 or self.proj_w.shape[0] != 2 * self.word_bilstm.hidden:
            raise ValueError("projection input width mismatch")
        if self.proj_b.shape != (self.proj_w.shape[1],):
            raise ValueError("projection bias width mismatch")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")

    @property
    def num_tags(self) -> int:
        return self.proj_w.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            **self.char_table.tensors("char_table"), **self.char_bilstm.tensors("char"),
            **self.word_table.tensors("word_table"), **self.word_bilstm.tensors("word"),
            "proj.weight": self.proj_w, "proj.bias": self.proj_b,
        }


@dataclass
class Batch:
    """N sentences as the encoder reads them: their R tokens concatenated
    in sentence order, each token an index into the batch's word types."""

    lengths: np.ndarray  # (N,)
    types: list[str]  # the batch's unique word types, in order of first use
    type_ids: np.ndarray  # (R,) index into ``types``
    type_rows: np.ndarray  # (len(types),) word-table row of each type
    tags: np.ndarray | None = None  # (R,) gold tag ids, when encoded with a tag index

    def take(self, ids: Sequence[int]) -> "Batch":
        """The sentences ``ids``, in that order, as :func:`encode_batch` of
        them would encode them: their types keep the order of first use."""
        starts = np.cumsum(self.lengths) - self.lengths
        tokens = np.concatenate([np.arange(starts[i], starts[i] + self.lengths[i]) for i in ids])
        renumber: dict[int, int] = {}  # type id here -> type id in the new batch
        old = self.type_ids[tokens].tolist()
        type_ids = np.array([renumber.setdefault(t, len(renumber)) for t in old], dtype=np.int64)
        types = [self.types[t] for t in renumber]
        tags = None if self.tags is None else self.tags[tokens]
        return Batch(self.lengths[ids], types, type_ids, self.type_rows[list(renumber)], tags)


def encode_batch(
    params: EncoderParams, sentences: Sequence[Sentence], tag_index: dict | None = None
) -> Batch:
    """Encode ``sentences``, looking each word type up once.  Given
    ``tag_index`` (tag string to id), also their gold tags."""
    if not sentences:
        raise ValueError("cannot encode an empty batch")
    tokens = [token for sentence in sentences for token in sentence.tokens]
    types: dict[str, int] = {}
    type_ids = np.array([types.setdefault(t.surface, len(types)) for t in tokens], dtype=np.int64)
    tags = None
    if tag_index is not None:
        texts = [tag_to_str(token.tag, TagScheme.IOB2) for token in tokens]
        unknown = [text for text in texts if text not in tag_index]
        if unknown:
            raise ValueError(f"tag {unknown[0]!r} not in the model's tag vocabulary")
        tags = np.array([tag_index[text] for text in texts], dtype=np.int64)
    lengths = np.array([len(sentence) for sentence in sentences], dtype=np.int64)
    return Batch(lengths, list(types), type_ids, params.word_table.ids(types), tags)


def encode_forward(
    params: EncoderParams,
    batch: Batch,
    rng: np.random.Generator | None = None,
    type_vectors: dict[str, np.ndarray] | None = None,
):
    """Emission scores (R, K), one row per token, plus the cache the backward pass needs.

    ``type_vectors`` maps word types to character vectors computed
    before, and is empty when not given.  The character pass covers only
    the batch's types missing from it and adds them to it, so the cache
    is fit for a backward pass only when the map held none of them.  When
    ``rng`` is given and the dropout rate is above 0, an inverted-dropout
    mask is applied to each token's concatenated input vector and to each
    BiLSTM output vector.  The masks are drawn from ``rng`` sentence by
    sentence, inputs first, then outputs, the order in which sentences
    encoded one at a time draw them.
    """
    use_dropout = rng is not None and params.dropout_rate > 0.0
    type_vectors = {} if type_vectors is None else type_vectors
    new = [word for word in batch.types if word not in type_vectors]
    char_cache = None
    if new:
        vecs, char_cache = _chars_forward(params.char_table, params.char_bilstm, new)
        type_vectors.update(zip(new, vecs))
    char_vecs = np.array([type_vectors[word] for word in batch.types])
    xs = np.concatenate([params.word_table.matrix[batch.type_rows], char_vecs], axis=1)
    rows, out_width = batch.type_ids, 2 * params.word_bilstm.hidden
    in_masks = out_masks = None
    if use_dropout:
        # inverted dropout: survivors are scaled, so inference needs no
        # rescale; each token's input row gets its own mask
        xs, rows, rate = xs[rows], None, params.dropout_rate
        in_masks, out_masks = np.empty(xs.shape), np.empty((len(xs), out_width))
        for lo, length in zip(np.cumsum(batch.lengths) - batch.lengths, batch.lengths):
            here = slice(lo, lo + length)
            in_masks[here] = (rng.random((length, xs.shape[1])) >= rate) / (1.0 - rate)
            out_masks[here] = (rng.random((length, out_width)) >= rate) / (1.0 - rate)
        xs *= in_masks

    outs, bilstm_cache = _bilstm_forward(params.word_bilstm, xs, batch.lengths, rows)
    if use_dropout:
        outs *= out_masks
    cache = (batch, char_cache, in_masks, bilstm_cache, outs, out_masks)
    return outs @ params.proj_w + params.proj_b, cache


def encode_backward(
    params: EncoderParams, cache, d_emissions: np.ndarray
) -> dict[str, np.ndarray | SparseRows]:
    """Gradients of every encoder tensor given d(loss)/d(emissions) (R, K).

    Keys follow ``params.tensors()``.  ``word_table.matrix`` is
    :class:`SparseRows` over the rows of the batch's words, row V for
    out-of-vocabulary ones, so its cost does not grow with the
    vocabulary; each row is summed from zero, sentence by sentence in
    token order.  Every other gradient is dense.
    """
    batch, char_cache, in_masks, bilstm_cache, outs, out_masks = cache
    d_outs = d_emissions @ params.proj_w.T
    if out_masks is not None:
        d_outs *= out_masks
    word_grads, d_xs = _bilstm_backward(params.word_bilstm, bilstm_cache, d_outs)
    if in_masks is not None:
        d_xs *= in_masks

    word_dim = params.word_table.dim
    # add.at sums each row's terms in token order, starting from zero;
    # types may share a row, as out-of-vocabulary ones share row V
    rows, slots = np.unique(batch.type_rows, return_inverse=True)
    d_word_rows = np.zeros((len(rows), word_dim))
    np.add.at(d_word_rows, slots[batch.type_ids], d_xs[:, :word_dim])
    d_types = np.zeros((len(batch.types), d_xs.shape[1] - word_dim))
    np.add.at(d_types, batch.type_ids, d_xs[:, word_dim:])
    d_chars, char_grads = _chars_backward(
        params.char_table, params.char_bilstm, char_cache, d_types
    )

    grads = {"char_table.matrix": d_chars, **char_grads.tensors("char")}
    grads["word_table.matrix"] = SparseRows(rows, d_word_rows, params.word_table.matrix.shape)
    grads.update(word_grads.tensors("word"))
    grads["proj.weight"] = outs.T @ d_emissions
    grads["proj.bias"] = d_emissions.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Complete tagger (encoder + CRF + tag vocabulary)


@dataclass
class ModelParams:
    """Everything a trained tagger carries, CRF and tag order included."""

    tags: list[str]  # an IOB2 tag set: decoding always applies its IOB2 masks
    encoder: EncoderParams
    crf: CrfParams
    masked_training: bool = False  # whether the training loss applies them too
    masks: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.tags) != self.encoder.num_tags or len(self.tags) != self.crf.num_tags:
            raise ValueError("tag count disagrees between tag list, encoder and CRF")
        if len(set(self.tags)) != len(self.tags):
            raise ValueError("duplicate tags")
        self.masks = build_iob2_mask(self.tags)  # raises unless the tags are an IOB2 tag set

    @property
    def tag_index(self) -> dict[str, int]:
        return {tag: idx for idx, tag in enumerate(self.tags)}

    def tensors(self) -> dict[str, np.ndarray]:
        return {**self.encoder.tensors(), **self.crf.tensors()}
