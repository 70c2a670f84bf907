import dataclasses
import math

import numpy as np
import pytest
from helpers import NUMBER_FIELDS, float_or_none
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amner.corpus import O_TAG, FormatError, Sentence, TagScheme, Token, tag_from_str
from amner.model import (
    Batch,
    BiLstmParams,
    EmbeddingTable,
    SparseRows,
    _bilstm_backward,
    _bilstm_forward,
    _chars_backward,
    _chars_forward,
    encode_backward,
    encode_batch,
    encode_forward,
    init_encoder,
    load_embeddings,
)
from amner.train import AdamState, adam_step


def zero_bilstm(input_dim, hidden):
    return BiLstmParams(
        np.zeros((2, 4 * hidden, input_dim)), np.zeros((2, 4 * hidden, hidden)),
        np.zeros((2, 3, hidden)), np.zeros((2, 4 * hidden)),
    )


def same_directions(params):
    """``params`` with its reverse direction replaced by its forward one."""
    return BiLstmParams(*(np.stack([t[0], t[0]]) for t in params.tensors("").values()))


def run_bilstm(params, xs):
    """BiLSTM kernel outputs (L, 2H) of one sequence, and the kernel's cache."""
    xs = np.asarray(xs, dtype=np.float64)
    return _bilstm_forward(params, xs, np.array([len(xs)]))


def bilstm_outputs(params, xs):
    """BiLSTM kernel outputs (L, 2H) of one sequence."""
    return run_bilstm(params, xs)[0]


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_step(params, direction, x, h_prev, c_prev):
    """One step of one direction, transcribed from the model docstring's equations."""
    a_f, a_i, a_c, a_o = np.split(
        params.w_x[direction] @ x + params.w_h[direction] @ h_prev + params.b[direction], 4
    )
    p_f, p_i, p_o = params.p[direction]
    f = sigmoid(a_f + p_f * c_prev)
    i = sigmoid(a_i + p_i * c_prev)
    c = f * c_prev + i * np.tanh(a_c)
    o = sigmoid(a_o + p_o * c)
    return o * np.tanh(c), c


def reference_outputs(params, xs):
    """The BiLSTM outputs (L, 2H) of one sequence as a loop of single reference steps."""
    hidden = params.hidden
    outs = np.zeros((len(xs), 2 * hidden))
    for direction, order in enumerate((range(len(xs)), reversed(range(len(xs))))):
        h, c = np.zeros(hidden), np.zeros(hidden)
        for t in order:
            h, c = reference_step(params, direction, np.asarray(xs[t], dtype=np.float64), h, c)
            outs[t, direction * hidden : (direction + 1) * hidden] = h
    return outs


def char_vectors(enc, words):
    """Character BiLSTM summaries (len(words), 2H) of ``words``."""
    return _chars_forward(enc.char_table, enc.char_bilstm, words)[0]


def encode_words(enc, sentences):
    """The batch of ``sentences``, lists of words, each token tagged O."""
    return encode_batch(enc, [Sentence(tuple(Token(w, O_TAG) for w in ws)) for ws in sentences])


def emissions_of(enc, sentences, rng=None):
    """Emissions (R, K) of a batch of word lists, as the trainer and tagger compute them."""
    return encode_forward(enc, encode_words(enc, sentences), rng=rng)[0]


def row_of(table, token):
    return table.matrix[table.ids([token])[0]]


def tiny_encoder(seed=0, dropout=0.0, num_tags=3):
    return init_encoder(
        word_tokens=["alpha", "beta", "gamma"],
        char_tokens=list("abgelmt"),
        num_tags=num_tags,
        word_dim=4, char_dim=2, char_hidden=2, word_hidden=3,
        dropout_rate=dropout, seed=seed,
    )


class TestEmbeddings:
    def test_minimal_file(self):
        table = load_embeddings("2 3\na 1 0 0\nb 0 1 0\n", expected_dim=3)
        assert table.matrix.shape == (3, 3)  # two tokens plus the unknown row
        assert np.array_equal(row_of(table, "a"), [1.0, 0.0, 0.0])

    def test_row_width_error_carries_line(self):
        with pytest.raises(FormatError) as err:
            load_embeddings("2 3\na 1 0 0\nb 0 1\n", expected_dim=3)
        assert err.value.line == 3

    def test_unknown_token_gets_unk_row(self):
        table = load_embeddings("1 2\na 1 2\n", expected_dim=2)
        assert list(table.ids(["a", "zzz"])) == [0, 1]
        assert np.array_equal(row_of(table, "zzz"), table.matrix[-1])
        assert not np.array_equal(table.matrix[-1], np.zeros(2))

    def test_lookup_deterministic(self):
        table = load_embeddings("1 2\na 1 2\n", expected_dim=2)
        assert np.array_equal(row_of(table, "a"), row_of(table, "a"))

    def test_no_case_folding(self):
        table = load_embeddings("1 2\nAbc 1 2\n", expected_dim=2)
        assert np.array_equal(row_of(table, "abc"), table.matrix[-1])

    def test_tables_end_with_the_unknown_row(self):
        enc = tiny_encoder()
        assert enc.word_table.matrix.shape == (4, 4)  # alpha, beta, gamma, unknown
        assert enc.char_table.matrix.shape == (8, 2)
        assert [name for name in enc.tensors() if "table" in name] == [
            "char_table.matrix", "word_table.matrix"
        ]
        with pytest.raises(ValueError, match="unknown row"):
            EmbeddingTable({"a": 0}, np.zeros((1, 2)))

    def test_duplicate_token_rejected(self):
        with pytest.raises(FormatError) as err:
            load_embeddings("2 1\na 1\na 2\n", expected_dim=1)
        assert err.value.line == 3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(FormatError):
            load_embeddings("1 3\na 1 2 3\n", expected_dim=2)

    def test_fasttext_trailing_spaces(self):
        table = load_embeddings("2 3 \r\na 1 0 0 \r\nb\u00a0c 0 1 0 \n", expected_dim=3)
        assert table.vocab == {"a": 0, "b\u00a0c": 1}
        assert np.array_equal(table.matrix[:-1], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_header_row_count_enforced(self):
        with pytest.raises(FormatError):
            load_embeddings("3 2\na 1 2\n", expected_dim=2)

    def test_non_numeric_value(self):
        with pytest.raises(FormatError) as err:
            load_embeddings("1 2\na 1 x\n", expected_dim=2)
        assert err.value.line == 2

    @settings(max_examples=300, deadline=None)
    @given(field=NUMBER_FIELDS.filter(lambda f: not set(f) & {" ", "\n", "\r"}))
    def test_values_read_as_float_reads_them(self, field):
        text = f"2 2\na 0.5 -1\nb {field} 0.25\n"  # an empty field gives `b  0.25`
        expected = float_or_none(field)
        if expected is None or not math.isfinite(expected):
            message = "non-numeric" if expected is None else "non-finite"
            with pytest.raises(FormatError, match=message) as err:
                load_embeddings(text, expected_dim=2)
            assert err.value.line == 3
        else:
            table = load_embeddings(text, expected_dim=2)
            assert table.matrix[1, 0] == expected


class TestLstmStep:
    def test_all_zero(self):
        outs, (_, _, cs, _, _, _) = run_bilstm(zero_bilstm(2, 3), np.zeros((1, 2)))
        assert np.array_equal(outs, np.zeros((1, 6)))
        assert np.array_equal(cs, np.zeros((2, 2, 3)))  # the zero state, then step 0's

    def test_scalar_hand_example(self):
        # zero weights, large candidate bias: gates sit at 0.5, the
        # candidate saturates, so c = 0.5 * tanh(b_c) and h follows.
        params = zero_bilstm(1, 1)
        params.b[:, 2] = 8.0  # gate order f, i, c, o; both directions
        outs, (_, _, cs, _, _, _) = run_bilstm(params, np.zeros((1, 1)))
        expected_c = 0.5 * math.tanh(8.0)
        assert np.all(np.abs(cs[:, 1, 0] - expected_c) < 1e-12)
        assert np.all(np.abs(outs[0] - 0.5 * math.tanh(expected_c)) < 1e-12)

    def test_wrong_input_width(self):
        with pytest.raises(ValueError):
            run_bilstm(zero_bilstm(2, 3), np.zeros((1, 5)))

    def test_gates_bounded_and_h_below_one(self):
        rng = np.random.default_rng(0)
        params = BiLstmParams.random(3, 4, rng)
        outs, (_, _, _, gates, _, _) = run_bilstm(params, rng.uniform(-5, 5, size=(20, 3)))
        f, i, _, o = (gates[:, :, k] for k in range(4))
        for gate in (f, i, o):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.abs(outs) < 1.0)

    def test_cell_carry_through_when_saturated(self):
        # the forget gate is ~1 throughout; the input gate opens only for
        # x = 1, so the cell written at the first step is carried unchanged
        params = zero_bilstm(1, 1)
        params.b[:, :3] = [40.0, -40.0, 0.4]
        params.w_x[:, 1] = 80.0  # input gate
        _, (_, _, cs, _, _, _) = run_bilstm(params, [[1.0], [0.0], [0.0], [0.0]])
        carried = cs[0, 1:, 0]  # forward direction, after the zero state
        assert abs(carried[0] - math.tanh(0.4)) < 1e-6
        assert np.all(np.abs(carried - carried[0]) < 1e-6)


class TestBilstm:
    def test_output_shape(self):
        rng = np.random.default_rng(1)
        params = BiLstmParams.random(3, 4, rng)
        outs = bilstm_outputs(params, rng.normal(size=(5, 3)))
        assert outs.shape == (5, 8)

    def test_length_one(self):
        rng = np.random.default_rng(2)
        params = BiLstmParams.random(2, 3, rng)
        x = rng.normal(size=2)
        out = bilstm_outputs(params, [x])[0]
        fh, _ = reference_step(params, 0, x, np.zeros(3), np.zeros(3))
        bh, _ = reference_step(params, 1, x, np.zeros(3), np.zeros(3))
        assert np.max(np.abs(out - np.concatenate([fh, bh]))) <= 1e-12

    def test_zero_params_zero_output(self):
        outs = bilstm_outputs(zero_bilstm(2, 3), [np.ones(2), np.ones(2)])
        assert np.array_equal(outs, np.zeros((2, 6)))

    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(3)
        params = same_directions(BiLstmParams.random(2, 3, rng))
        half = [rng.normal(size=2) for _ in range(3)]
        xs = half + half[::-1]
        outs = bilstm_outputs(params, xs)
        length = len(xs)
        for t in range(length):
            mirrored = outs[length - 1 - t]
            assert np.allclose(outs[t][:3], mirrored[3:])
            assert np.allclose(outs[t][3:], mirrored[:3])

    def test_empty_rejected(self):
        params = zero_bilstm(2, 3)
        with pytest.raises(ValueError, match="empty"):
            _bilstm_forward(params, np.zeros((0, 1, 2)), np.array([0]))
        with pytest.raises(ValueError, match="empty"):  # an empty row among others
            _bilstm_forward(params, np.zeros((2, 2, 2)), np.array([2, 0]))

    @pytest.mark.parametrize("case", ["nan-row", "inf-row", "overflow"])
    def test_non_finite_input_projection_rejected(self, case):
        rng = np.random.default_rng(5)
        params = BiLstmParams.random(3, 2, rng)
        xs = rng.normal(size=(7, 3))
        if case == "overflow":  # one row's products are finite, their sum is not
            params.w_x[:] = 1e300
            xs[4] = np.abs(xs[4]) + 1e8
        else:
            xs[4, 1] = np.nan if case == "nan-row" else np.inf
        with pytest.raises(ValueError, match="non-finite LSTM input"):
            _bilstm_forward(params, xs, np.array([4, 3]))


class TestPackedKernel:
    """Concatenated sequences, run through the packed kernel, equal one run per sequence."""

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    @example(lengths=[1], seed=0)
    @example(lengths=[5, 5, 5, 5], seed=1)
    @example(lengths=[1, 9, 3, 9, 1, 2], seed=2)
    def test_matches_per_sequence_runs(self, lengths, seed):
        rng = np.random.default_rng(seed)
        params = BiLstmParams.random(3, 2, rng)
        params.p[:] = rng.normal(size=params.p.shape)
        params.b[:] = rng.normal(size=params.b.shape)
        lengths = np.array(lengths)
        xs = rng.normal(size=(lengths.sum(), 3))
        d_outs = rng.normal(size=(lengths.sum(), 4))
        outs, cache = _bilstm_forward(params, xs, lengths)
        grads, d_xs = _bilstm_backward(params, cache, d_outs)

        want = {name: np.zeros_like(arr) for name, arr in grads.tensors("").items()}
        for n, (lo, length) in enumerate(zip(np.cumsum(lengths) - lengths, lengths)):
            one = slice(lo, lo + length)
            one_outs, one_cache = _bilstm_forward(params, xs[one], lengths[n : n + 1])
            one_grads, one_d_xs = _bilstm_backward(params, one_cache, d_outs[one])
            assert np.max(np.abs(outs[one] - one_outs)) <= 1e-12
            reference = reference_outputs(params, xs[one])
            assert np.max(np.abs(outs[one] - reference)) <= 1e-12
            assert np.max(np.abs(d_xs[one] - one_d_xs)) <= 1e-12
            for name, arr in one_grads.tensors("").items():
                want[name] += arr
        for name, arr in grads.tensors("").items():
            assert np.max(np.abs(arr - want[name])) <= 1e-12, name

        # a central difference along one random direction checks the gradients themselves
        tensors = list(params.tensors("").values())
        moves = [rng.normal(size=arr.shape) for arr in (xs, *tensors)]

        def loss(eps):
            moved = BiLstmParams(*(arr + eps * v for arr, v in zip(tensors, moves[1:])))
            return np.sum(_bilstm_forward(moved, xs + eps * moves[0], lengths)[0] * d_outs)

        slope = sum(np.sum(g * v) for g, v in zip((d_xs, *grads.tensors("").values()), moves))
        assert abs((loss(1e-6) - loss(-1e-6)) / 2e-6 - slope) <= 1e-6 * max(1.0, abs(slope))


class TestDistinctRows:
    """The kernel fed a table and one row index per position equals the
    kernel fed each position's row, bit for bit, whether it projects the
    table's rows or the gathered ones."""

    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
        rows=st.lists(st.integers(0, 6), min_size=1, max_size=12),
        unused=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    @example(lengths=[1], rows=[0], unused=0, seed=0)
    @example(lengths=[4], rows=[0], unused=0, seed=1)  # a one-row table
    @example(lengths=[3, 1, 2], rows=[2, 0, 2, 1, 1, 2], unused=1, seed=2)
    @example(lengths=[2, 2], rows=[1, 0, 3, 2], unused=0, seed=3)  # as many rows as positions
    def test_equals_gathered_rows(self, lengths, rows, unused, seed):
        rng = np.random.default_rng(seed)
        params = BiLstmParams.random(3, 2, rng)
        params.p[:] = rng.normal(size=params.p.shape)
        params.b[:] = rng.normal(size=params.b.shape)
        lengths = np.array(lengths)
        rows = np.resize(np.array(rows), lengths.sum())  # repeats rows to one per position
        table = rng.normal(size=(rows.max() + 1 + unused, 3))
        d_outs = rng.normal(size=(lengths.sum(), 4))
        outs, cache = _bilstm_forward(params, table, lengths, rows)
        grads, d_xs = _bilstm_backward(params, cache, d_outs)
        want_outs, want_cache = _bilstm_forward(params, table[rows], lengths)
        want_grads, want_d_xs = _bilstm_backward(params, want_cache, d_outs)
        assert outs.tobytes() == want_outs.tobytes()
        assert d_xs.tobytes() == want_d_xs.tobytes()
        for name, arr in want_grads.tensors("").items():
            assert grads.tensors("")[name].tobytes() == arr.tobytes(), name

    _SENTENCES = st.lists(
        st.lists(st.sampled_from(["alpha", "beta", "gamma", "zzz", "ab"]), min_size=1, max_size=5),
        min_size=1, max_size=5,
    )

    @settings(max_examples=40, deadline=None)
    @given(sentences=_SENTENCES, seed=st.integers(0, 2**8))
    @example(sentences=[["beta", "beta", "zzz"], ["zzz"], ["alpha", "beta"]], seed=0)
    def test_encode_forward_equals_per_token_rows(self, sentences, seed):
        enc = random_char_encoder(seed)
        batch = encode_words(enc, sentences)
        got, _ = encode_forward(enc, batch)
        # one input row per token, as the encoder built them before it
        # projected each word type once
        char_vecs = char_vectors(enc, batch.types)[batch.type_ids]
        word_rows = enc.word_table.matrix[batch.type_rows[batch.type_ids]]
        xs = np.concatenate([word_rows, char_vecs], axis=1)
        outs, _ = _bilstm_forward(enc.word_bilstm, xs, batch.lengths)
        assert got.tobytes() == (outs @ enc.proj_w + enc.proj_b).tobytes()
        start = 0
        for words in sentences:  # and a loop of single reference steps per sentence
            rows = [np.concatenate([row_of(enc.word_table, w), per_word_char_vector(enc, w)])
                    for w in words]
            want = reference_outputs(enc.word_bilstm, rows) @ enc.proj_w + enc.proj_b
            assert np.max(np.abs(got[start : start + len(words)] - want)) <= 1e-12
            start += len(words)

    def test_finiteness_check_reads_only_used_rows(self):
        rng = np.random.default_rng(6)
        params = BiLstmParams.random(3, 2, rng)
        table = rng.normal(size=(3, 3))
        table[2, 1] = np.nan
        lengths = np.array([4, 2])
        _bilstm_forward(params, table, lengths, np.array([0, 1, 1, 0, 1, 0]))
        with pytest.raises(ValueError, match="non-finite LSTM input projection"):
            _bilstm_forward(params, table, lengths, np.array([0, 1, 1, 0, 2, 0]))

        enc = tiny_encoder()  # characters "abgelmt"; "beta" and "gate" use no "l" or "m"
        enc.char_table.matrix[enc.char_table.vocab["m"]] = np.nan
        enc.word_table.matrix[enc.word_table.vocab["gamma"]] = np.nan
        assert np.all(np.isfinite(emissions_of(enc, [["beta", "gate"], ["gate"]])))
        for words in (["beta", "lamb"], ["gamma"]):
            with pytest.raises(ValueError, match="non-finite LSTM input projection"):
                emissions_of(enc, [words])


class TestCharEncoding:
    def test_single_char_word(self):
        enc = tiny_encoder()
        vec = char_vectors(enc, ["a"])[0]
        expected = reference_outputs(enc.char_bilstm, [row_of(enc.char_table, "a")])[0]
        assert np.max(np.abs(vec - expected)) <= 1e-12

    def test_deterministic(self):
        enc = tiny_encoder()
        a = char_vectors(enc, ["gamma"])
        b = char_vectors(enc, ["gamma"])
        assert np.array_equal(a, b)

    def test_shared_prefix_differs(self):
        enc = tiny_encoder(seed=9)
        a, b = char_vectors(enc, ["beta", "bet"])
        assert not np.allclose(a, b)

    def test_empty_word_rejected(self):
        enc = tiny_encoder()
        with pytest.raises(ValueError):
            char_vectors(enc, [""])
        with pytest.raises(ValueError):
            char_vectors(enc, ["beta", ""])


class TestEncodeSentence:
    WORDS = ["alpha", "beta", "alpha"]

    def test_shape(self):
        enc = tiny_encoder()
        assert emissions_of(enc, [self.WORDS]).shape == (3, 3)
        assert emissions_of(enc, [self.WORDS, ["beta"]]).shape == (4, 3)

    def test_zero_dropout_train_equals_infer(self):
        enc = tiny_encoder(dropout=0.0)
        train = emissions_of(enc, [self.WORDS], rng=np.random.default_rng(0))
        infer = emissions_of(enc, [self.WORDS])
        assert np.array_equal(train, infer)

    def test_zero_projection_zero_scores(self):
        enc = tiny_encoder()
        enc.proj_w[:] = 0.0
        enc.proj_b[:] = 0.0
        assert np.array_equal(emissions_of(enc, [self.WORDS]), np.zeros((3, 3)))

    def test_train_mode_deterministic_by_seed(self):
        enc = tiny_encoder(dropout=0.5)
        a = emissions_of(enc, [self.WORDS], rng=np.random.default_rng(123))
        b = emissions_of(enc, [self.WORDS], rng=np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_infer_is_pure(self):
        enc = tiny_encoder()
        a = emissions_of(enc, [self.WORDS])
        b = emissions_of(enc, [self.WORDS])
        assert np.array_equal(a, b)

    def test_empty_sentence_rejected(self):
        # the encoder reads Sentences, which cannot be empty
        with pytest.raises(ValueError, match="at least one token"):
            emissions_of(tiny_encoder(), [[]])
        with pytest.raises(ValueError, match="at least one token"):
            emissions_of(tiny_encoder(), [self.WORDS, []])
        with pytest.raises(ValueError, match="empty batch"):
            emissions_of(tiny_encoder(), [])

    def test_oov_word_uses_unk_row(self):
        enc = tiny_encoder()
        batch = encode_words(enc, [["zzz", "beta"], ["gamma", "beta", "xy"]])
        unk = len(enc.word_table.vocab)
        assert batch.type_rows.tolist() == [unk, enc.word_table.vocab["beta"],
                                            enc.word_table.vocab["gamma"], unk]
        assert batch.type_ids.tolist() == [0, 1, 2, 1, 3]
        assert list(batch.lengths) == [2, 3]
        assert batch.types == ["zzz", "beta", "gamma", "xy"]


class TestEncoderGradients:
    def test_matches_finite_differences(self):
        # scalar functional: emissions weighted by a fixed random array,
        # over a batch of two sentences
        rng = np.random.default_rng(42)
        enc = tiny_encoder(seed=5)
        sentences = [["alpha", "zzz", "beta"], ["gamma", "beta"]]
        weights = rng.normal(size=(5, enc.num_tags))

        _, cache = encode_forward(enc, encode_words(enc, sentences))
        grads = encode_backward(enc, cache, weights)

        step = 1e-5
        for name, array in enc.tensors().items():
            grad = grads[name]
            if isinstance(grad, SparseRows):
                grad = grad.to_dense()
            flat = array.reshape(-1)
            flat_grad = grad.reshape(-1)
            for pos in range(flat.shape[0]):
                original = flat[pos]
                flat[pos] = original + step
                up = float(np.sum(emissions_of(enc, sentences) * weights))
                flat[pos] = original - step
                down = float(np.sum(emissions_of(enc, sentences) * weights))
                flat[pos] = original
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric) + abs(flat_grad[pos]), 1e-3)
                assert abs(numeric - flat_grad[pos]) / denom <= 1e-4, name


class TestSparseWordGradient:
    def per_token(self, enc, words):
        """Sparse gradient for ``words`` and each token's own word-row gradient.

        A batch that makes each token its own type reads the same word
        rows; backprop through its cache with the rows replaced by one
        distinct row per token yields the per-token terms separately.
        """
        def forward(batch):
            rng = np.random.default_rng(3)
            emissions, cache = encode_forward(enc, batch, rng=rng)
            return emissions, cache, rng.normal(size=emissions.shape)

        batch = encode_words(enc, [words])
        emissions, cache, d_emissions = forward(batch)
        grads = encode_backward(enc, cache, d_emissions)
        n = len(words)
        alone = Batch(batch.lengths, list(words), np.arange(n), batch.type_rows[batch.type_ids])
        alone_emissions, alone_cache, _ = forward(alone)
        assert alone_emissions.tobytes() == emissions.tobytes()
        split = dataclasses.replace(alone, type_rows=np.arange(n))
        terms = encode_backward(enc, (split,) + alone_cache[1:], d_emissions)["word_table.matrix"]
        assert list(terms.rows) == list(range(n))
        return alone.type_rows, grads, terms.values

    def test_repeated_word_sums_in_token_order(self):
        enc = tiny_encoder(seed=1, dropout=0.5)
        rows, grads, terms = self.per_token(enc, ["alpha", "beta", "alpha"])
        sparse = grads["word_table.matrix"]
        assert sparse.rows.dtype == np.int64
        assert list(sparse.rows) == [rows[0], rows[1]]
        expected = np.zeros(enc.word_table.dim)
        expected += terms[0]
        expected += terms[2]
        assert sparse.values[0].tobytes() == expected.tobytes()

    def test_oov_token_feeds_unk_only(self):
        enc = tiny_encoder(seed=2)
        rows, grads, terms = self.per_token(enc, ["alpha", "zzz"])
        sparse = grads["word_table.matrix"]
        unk = len(enc.word_table.vocab)
        assert list(rows) == [0, unk]
        assert list(sparse.rows) == [0, unk]
        expected_unk = np.zeros(enc.word_table.dim) + terms[1]
        assert sparse.values[1].tobytes() == expected_unk.tobytes()

    def test_dense_equals_reference(self):
        enc = tiny_encoder(seed=4, dropout=0.5)
        words = ["gamma", "alpha", "zzz", "gamma", "beta", "alpha"]
        rows, grads, terms = self.per_token(enc, words)
        reference = np.zeros_like(enc.word_table.matrix)
        for t, row in enumerate(rows):
            reference[row] += terms[t]
        assert grads["word_table.matrix"].to_dense().tobytes() == reference.tobytes()

    def test_key_order_and_nbytes(self):
        enc = tiny_encoder()
        _, grads, _ = self.per_token(enc, ["beta", "beta"])
        assert list(grads) == list(enc.tensors())
        sparse = grads["word_table.matrix"]
        assert sparse.nbytes == 8 + 8 * enc.word_table.dim


class TestStackedStorage:
    def test_mismatched_gate_shapes_rejected(self):
        zero = zero_bilstm(2, 3)
        with pytest.raises(ValueError):
            BiLstmParams(np.zeros((2, 11, 2)), zero.w_h, zero.p, zero.b)
        with pytest.raises(ValueError):
            BiLstmParams(zero.w_x, zero.w_h, zero.p, np.zeros((2, 11)))
        with pytest.raises(ValueError):  # one direction only
            BiLstmParams(zero.w_x[:1], zero.w_h[:1], zero.p[:1], zero.b[:1])

    def test_in_place_adam_reaches_the_kernel(self):
        rng = np.random.default_rng(2)
        params = BiLstmParams.random(3, 4, rng)
        tensors = params.tensors("x")
        grads = {k: rng.normal(size=v.shape) for k, v in tensors.items()}
        before = params.w_x.copy(), params.w_h.copy(), params.p.copy(), params.b.copy()
        adam_step(AdamState.for_params(tensors), tensors, grads, 0.1)
        for old, new in zip(before, (params.w_x, params.w_h, params.p, params.b)):
            assert not np.any(old == new)
        xs = rng.normal(size=(4, 3))
        rebuilt = BiLstmParams(**{k.split(".")[1]: v.copy() for k, v in tensors.items()})
        assert np.array_equal(bilstm_outputs(params, xs), bilstm_outputs(rebuilt, xs))


def random_char_encoder(seed):
    """tiny_encoder with every tensor, biases and peepholes included, drawn at random."""
    enc = tiny_encoder(seed=seed)
    rng = np.random.default_rng(seed)
    for arr in enc.tensors().values():
        arr[...] = rng.normal(scale=0.7, size=arr.shape)
    return enc


def per_word_char_vector(enc, word):
    """The character BiLSTM summary of one word from a loop of single reference steps."""
    outs = reference_outputs(enc.char_bilstm, enc.char_table.matrix[enc.char_table.ids(word)])
    hidden = enc.char_bilstm.hidden
    return np.concatenate([outs[-1, :hidden], outs[0, hidden:]])


# "abgelmt" is the character vocabulary; "xyzሀ" are out of it
_WORDS = st.lists(st.text(alphabet="abgelmtxyzሀ", min_size=1, max_size=7), min_size=1, max_size=8)


class TestBatchedCharPass:
    @settings(max_examples=60, deadline=None)
    @given(words=_WORDS, seed=st.integers(0, 2**16))
    @example(words=["a"], seed=0)
    @example(words=["m", "a", "t"], seed=1)
    @example(words=["beta", "gate", "lamb"], seed=2)
    @example(words=["beta", "a", "beta"], seed=3)
    @example(words=["xyሀ", "ax", "ሀ"], seed=4)
    def test_matches_per_word_lstm_steps(self, words, seed):
        enc = random_char_encoder(seed)
        batched, _ = _chars_forward(enc.char_table, enc.char_bilstm, words)
        for n, word in enumerate(words):
            expected = per_word_char_vector(enc, word)
            assert np.max(np.abs(batched[n] - expected)) <= 1e-12, word

    @settings(max_examples=40, deadline=None)
    @given(words=_WORDS, seed=st.integers(0, 2**16))
    @example(words=["beta", "a", "beta", "xሀ"], seed=5)
    def test_gradients_equal_sum_of_per_word_passes(self, words, seed):
        enc = random_char_encoder(seed)
        table, params = enc.char_table, enc.char_bilstm
        d_vecs = np.random.default_rng(seed).normal(size=(len(words), 2 * params.hidden))
        _, cache = _chars_forward(table, params, words)
        d_rows, grads = _chars_backward(table, params, cache, d_vecs)
        got = {"rows": d_rows, **grads.tensors("char")}
        want = {name: np.zeros_like(arr) for name, arr in got.items()}
        for n, word in enumerate(words):
            _, one_cache = _chars_forward(table, params, [word])
            one = _chars_backward(table, params, one_cache, d_vecs[n : n + 1])
            for name, arr in {"rows": one[0], **one[1].tensors("char")}.items():
                want[name] += arr
        for name in got:
            assert np.max(np.abs(got[name] - want[name]), initial=0.0) <= 1e-12, name


class TestBatchEncoding:
    SENTENCES = [["alpha", "zzz", "beta", "alpha"], ["gamma"], ["beta", "xy"], ["alpha", "gamma"]]

    def test_rows_match_sentences_encoded_one_at_a_time(self):
        enc = random_char_encoder(7)
        enc.dropout_rate = 0.5
        batched = emissions_of(enc, self.SENTENCES, rng=np.random.default_rng(1))
        rng = np.random.default_rng(1)  # one stream, drawn sentence after sentence
        start = 0
        for words in self.SENTENCES:
            alone = emissions_of(enc, [words], rng=rng)
            assert np.max(np.abs(batched[start : start + len(words)] - alone)) <= 1e-12
            start += len(words)
        assert start == len(batched)

    def test_gradients_equal_sum_over_sentences(self):
        enc = random_char_encoder(8)
        rng = np.random.default_rng(2)
        d_emissions = rng.normal(size=(sum(map(len, self.SENTENCES)), enc.num_tags))
        _, cache = encode_forward(enc, encode_words(enc, self.SENTENCES))
        got = encode_backward(enc, cache, d_emissions)
        want = {name: np.zeros_like(arr) for name, arr in enc.tensors().items()}
        start = 0
        for words in self.SENTENCES:
            _, one_cache = encode_forward(enc, encode_words(enc, [words]))
            one = encode_backward(enc, one_cache, d_emissions[start : start + len(words)])
            start += len(words)
            for name, grad in one.items():
                want[name] += grad.to_dense() if isinstance(grad, SparseRows) else grad
        for name, grad in got.items():
            dense = grad.to_dense() if isinstance(grad, SparseRows) else grad
            assert np.max(np.abs(dense - want[name])) <= 1e-12, name

    def test_type_vectors_are_reused_and_extended(self):
        enc = random_char_encoder(9)
        type_vectors = {}
        first, second = self.SENTENCES[:2], self.SENTENCES[2:]
        for sentences in (first, second):
            batch = encode_words(enc, sentences)
            reused, _ = encode_forward(enc, batch, type_vectors=type_vectors)
            assert np.max(np.abs(reused - emissions_of(enc, sentences))) <= 1e-12
            assert set(batch.types) <= set(type_vectors)
        type_vectors["beta"] = np.zeros(2 * enc.char_bilstm.hidden)  # a stored vector is used as is
        batch = encode_words(enc, [["beta"]])
        assert not np.allclose(encode_forward(enc, batch, type_vectors=type_vectors)[0],
                               emissions_of(enc, [["beta"]]))


TAKE_TAGS = ["O", "B-PER", "I-PER", "B-LOC"]
# few words, so that they repeat; "zzz" and "ab" are out of the word vocabulary
_TAGGED_SENTENCES = st.lists(
    st.lists(st.tuples(st.sampled_from(["alpha", "beta", "gamma", "zzz", "ab"]),
                       st.sampled_from(TAKE_TAGS)), min_size=1, max_size=4),
    min_size=1, max_size=7,
)


class TestBatchTake:
    @settings(max_examples=100, deadline=None)
    @given(raw=_TAGGED_SENTENCES, data=st.data())
    def test_equals_encoding_the_taken_sentences(self, raw, data):
        enc = tiny_encoder()
        index = {tag: idx for idx, tag in enumerate(TAKE_TAGS)}
        sentences = [
            Sentence(tuple(Token(word, tag_from_str(tag, TagScheme.IOB2)) for word, tag in pairs))
            for pairs in raw
        ]
        ids = data.draw(st.lists(st.integers(0, len(sentences) - 1), min_size=1, unique=True))
        got = encode_batch(enc, sentences, index).take(ids)
        want = encode_batch(enc, [sentences[i] for i in ids], index)
        for field in dataclasses.fields(Batch):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name
        assert encode_batch(enc, sentences).take(ids).tags is None
