import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amner.model import (
    BiLstmParams,
    EmbeddingFormatError,
    EmbeddingTable,
    LstmParams,
    SparseRows,
    bilstm_run,
    encode_backward,
    encode_forward,
    encode_sentence,
    encode_word_chars,
    init_encoder,
    load_embeddings,
    lstm_step,
)
from amner.train import AdamState, TrainConfig, adam_step


def zero_lstm(input_dim, hidden):
    return LstmParams(
        np.zeros((4 * hidden, input_dim)), np.zeros((4 * hidden, hidden)),
        np.zeros((3, hidden)), np.zeros(4 * hidden),
    )


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
        with pytest.raises(EmbeddingFormatError) as err:
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
        with pytest.raises(EmbeddingFormatError) as err:
            load_embeddings("2 1\na 1\na 2\n", expected_dim=1)
        assert err.value.line == 3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(EmbeddingFormatError):
            load_embeddings("1 3\na 1 2 3\n", expected_dim=2)

    def test_fasttext_trailing_spaces(self):
        table = load_embeddings("2 3 \r\na 1 0 0 \r\nb\u00a0c 0 1 0 \n", expected_dim=3)
        assert table.vocab == {"a": 0, "b\u00a0c": 1}
        assert np.array_equal(table.matrix[:-1], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_header_row_count_enforced(self):
        with pytest.raises(EmbeddingFormatError):
            load_embeddings("3 2\na 1 2\n", expected_dim=2)

    def test_non_numeric_value(self):
        with pytest.raises(EmbeddingFormatError) as err:
            load_embeddings("1 2\na 1 x\n", expected_dim=2)
        assert err.value.line == 2


class TestLstmStep:
    def test_all_zero(self):
        params = zero_lstm(2, 3)
        h, c = lstm_step(params, np.zeros(2), np.zeros(3), np.zeros(3))
        assert np.array_equal(h, np.zeros(3))
        assert np.array_equal(c, np.zeros(3))

    def test_scalar_hand_example(self):
        # zero weights, large candidate bias: gates sit at 0.5, the
        # candidate saturates, so c = 0.5 * tanh(b_c) and h follows.
        params = zero_lstm(1, 1)
        params.b[2:3] = [8.0]  # gate order f, i, c, o
        h, c = lstm_step(params, np.zeros(1), np.zeros(1), np.zeros(1))
        expected_c = 0.5 * math.tanh(8.0)
        assert abs(c[0] - expected_c) < 1e-12
        assert abs(h[0] - 0.5 * math.tanh(expected_c)) < 1e-12

    def test_wrong_input_width(self):
        with pytest.raises(ValueError):
            lstm_step(zero_lstm(2, 3), np.zeros(5), np.zeros(3), np.zeros(3))

    def test_gates_bounded_and_h_below_one(self):
        from amner.model import _lstm_forward

        rng = np.random.default_rng(0)
        params = LstmParams.random(3, 4, rng)
        h = np.zeros(4)
        c = np.zeros(4)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=3)
            _, hs, cs, gates, _ = _lstm_forward(params, x[None, None], h[None], c[None])
            h, c = hs[1, 0], cs[1, 0]
            f, i, _, o = gates[0, 0]
            for gate in (f, i, o):
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
            assert np.all(np.abs(h) < 1.0)

    def test_cell_carry_through_when_saturated(self):
        params = zero_lstm(1, 1)
        params.b[0:1] = [40.0]   # forget gate ~1
        params.b[1:2] = [-40.0]  # input gate ~0
        c_prev = np.array([0.37])
        _, c = lstm_step(params, np.zeros(1), np.zeros(1), c_prev)
        assert abs(c[0] - c_prev[0]) < 1e-6


class TestBilstm:
    def test_output_shape(self):
        rng = np.random.default_rng(1)
        params = BiLstmParams.random(3, 4, rng)
        outs = bilstm_run(params, [rng.normal(size=3) for _ in range(5)])
        assert len(outs) == 5
        assert all(o.shape == (8,) for o in outs)

    def test_length_one(self):
        rng = np.random.default_rng(2)
        params = BiLstmParams.random(2, 3, rng)
        x = rng.normal(size=2)
        out = bilstm_run(params, [x])[0]
        fh, fc = lstm_step(params.forward, x, np.zeros(3), np.zeros(3))
        bh, bc = lstm_step(params.backward, x, np.zeros(3), np.zeros(3))
        assert np.array_equal(out, np.concatenate([fh, bh]))

    def test_zero_params_zero_output(self):
        params = BiLstmParams(zero_lstm(2, 3), zero_lstm(2, 3))
        outs = bilstm_run(params, [np.ones(2), np.ones(2)])
        assert all(np.array_equal(o, np.zeros(6)) for o in outs)

    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(3)
        shared = LstmParams.random(2, 3, rng)
        params = BiLstmParams(shared, shared)
        half = [rng.normal(size=2) for _ in range(3)]
        xs = half + half[::-1]
        outs = bilstm_run(params, xs)
        length = len(xs)
        for t in range(length):
            mirrored = outs[length - 1 - t]
            assert np.allclose(outs[t][:3], mirrored[3:])
            assert np.allclose(outs[t][3:], mirrored[:3])

    def test_empty_rejected(self):
        params = BiLstmParams(zero_lstm(2, 3), zero_lstm(2, 3))
        with pytest.raises(ValueError):
            bilstm_run(params, [])


class TestCharEncoding:
    def test_single_char_word(self):
        enc = tiny_encoder()
        vec = encode_word_chars(enc.char_table, enc.char_bilstm, "a")
        x = row_of(enc.char_table, "a")
        fh, _ = lstm_step(enc.char_bilstm.forward, x, np.zeros(2), np.zeros(2))
        bh, _ = lstm_step(enc.char_bilstm.backward, x, np.zeros(2), np.zeros(2))
        assert np.array_equal(vec, np.concatenate([fh, bh]))

    def test_deterministic(self):
        enc = tiny_encoder()
        a = encode_word_chars(enc.char_table, enc.char_bilstm, "gamma")
        b = encode_word_chars(enc.char_table, enc.char_bilstm, "gamma")
        assert np.array_equal(a, b)

    def test_shared_prefix_differs(self):
        enc = tiny_encoder(seed=9)
        a = encode_word_chars(enc.char_table, enc.char_bilstm, "beta")
        b = encode_word_chars(enc.char_table, enc.char_bilstm, "bet")
        assert not np.allclose(a, b)

    def test_empty_word_rejected(self):
        enc = tiny_encoder()
        with pytest.raises(ValueError):
            encode_word_chars(enc.char_table, enc.char_bilstm, "")


class TestEncodeSentence:
    WORDS = ["alpha", "beta", "alpha"]

    def test_shape(self):
        enc = tiny_encoder()
        emissions = encode_sentence(enc, self.WORDS)
        assert emissions.shape == (3, 3)

    def test_zero_dropout_train_equals_infer(self):
        enc = tiny_encoder(dropout=0.0)
        train = encode_sentence(enc, self.WORDS, mode="train", rng=0)
        infer = encode_sentence(enc, self.WORDS, mode="infer")
        assert np.array_equal(train, infer)

    def test_zero_projection_zero_scores(self):
        enc = tiny_encoder()
        enc.proj_w[:] = 0.0
        enc.proj_b[:] = 0.0
        assert np.array_equal(encode_sentence(enc, self.WORDS), np.zeros((3, 3)))

    def test_train_mode_deterministic_by_seed(self):
        enc = tiny_encoder(dropout=0.5)
        a = encode_sentence(enc, self.WORDS, mode="train", rng=123)
        b = encode_sentence(enc, self.WORDS, mode="train", rng=123)
        assert np.array_equal(a, b)

    def test_train_mode_needs_rng_when_dropping(self):
        enc = tiny_encoder(dropout=0.5)
        with pytest.raises(ValueError):
            encode_sentence(enc, self.WORDS, mode="train")

    def test_infer_is_pure(self):
        enc = tiny_encoder()
        a = encode_sentence(enc, self.WORDS)
        b = encode_sentence(enc, self.WORDS)
        assert np.array_equal(a, b)

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            encode_sentence(tiny_encoder(), [])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            encode_sentence(tiny_encoder(), self.WORDS, mode="banana")

    def test_oov_word_uses_unk_row(self):
        enc = tiny_encoder()
        # direct check through the cache: the OOV token reads row V
        _, cache = encode_forward(enc, ["zzz", "beta"], train=False)
        assert list(cache[1]) == [len(enc.word_table.vocab), enc.word_table.vocab["beta"]]


class TestEncoderGradients:
    def test_matches_finite_differences(self):
        # scalar functional: sum of emissions weighted by a fixed random matrix
        rng = np.random.default_rng(42)
        enc = tiny_encoder(seed=5)
        words = ["alpha", "zzz", "beta"]
        weights = rng.normal(size=(3, enc.num_tags))

        emissions, cache = encode_forward(enc, words, train=False)
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
                up = float(np.sum(encode_sentence(enc, words) * weights))
                flat[pos] = original - step
                down = float(np.sum(encode_sentence(enc, words) * weights))
                flat[pos] = original
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric) + abs(flat_grad[pos]), 1e-3)
                assert abs(numeric - flat_grad[pos]) / denom <= 1e-4, name


class TestSparseWordGradient:
    def per_token(self, enc, words, train=False):
        """Sparse gradient for ``words`` and each token's own word-row gradient.

        Backprop through a cache whose word rows are replaced by one
        distinct row per position yields the per-token terms separately.
        """
        rng = np.random.default_rng(3)
        emissions, cache = encode_forward(enc, words, train=train, rng=rng)
        d_emissions = rng.normal(size=emissions.shape)
        grads = encode_backward(enc, cache, d_emissions)
        split = (cache[0], list(range(len(words)))) + cache[2:]
        terms = encode_backward(enc, split, d_emissions)["word_table.matrix"]
        assert list(terms.rows) == list(range(len(words)))
        return cache[1], grads, terms.values

    def test_repeated_word_sums_in_token_order(self):
        enc = tiny_encoder(seed=1, dropout=0.5)
        rows, grads, terms = self.per_token(enc, ["alpha", "beta", "alpha"], train=True)
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
        rows, grads, terms = self.per_token(enc, words, train=True)
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
        zero = zero_lstm(2, 3)
        with pytest.raises(ValueError):
            LstmParams(np.zeros((11, 2)), zero.w_h, zero.p, zero.b)
        with pytest.raises(ValueError):
            LstmParams(zero.w_x, zero.w_h, zero.p, np.zeros(11))

    def test_in_place_adam_reaches_the_kernel(self):
        rng = np.random.default_rng(2)
        params = LstmParams.random(3, 4, rng)
        tensors = params.tensors("x")
        grads = {k: rng.normal(size=v.shape) for k, v in tensors.items()}
        before = params.w_x.copy(), params.w_h.copy(), params.p.copy(), params.b.copy()
        adam_step(AdamState.for_params(tensors), tensors, grads, TrainConfig(learning_rate=0.1))
        for old, new in zip(before, (params.w_x, params.w_h, params.p, params.b)):
            assert not np.any(old == new)
        x, h, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=4)
        rebuilt = LstmParams(**{k.split(".")[1]: v.copy() for k, v in tensors.items()})
        assert np.array_equal(lstm_step(params, x, h, c)[0], lstm_step(rebuilt, x, h, c)[0])


def random_char_encoder(seed):
    """tiny_encoder with every tensor, biases and peepholes included, drawn at random."""
    enc = tiny_encoder(seed=seed)
    rng = np.random.default_rng(seed)
    for arr in enc.tensors().values():
        arr[...] = rng.normal(scale=0.7, size=arr.shape)
    return enc


def per_word_char_vector(enc, word):
    """The character BiLSTM of one word as a loop of single lstm_step calls."""
    xs = list(enc.char_table.matrix[enc.char_table.ids(word)])
    hidden = enc.char_bilstm.hidden
    state = {}
    for direction, seq in (("fwd", xs), ("bwd", xs[::-1])):
        h, c = np.zeros(hidden), np.zeros(hidden)
        lstm = enc.char_bilstm.forward if direction == "fwd" else enc.char_bilstm.backward
        for x in seq:
            h, c = lstm_step(lstm, x, h, c)
        state[direction] = h
    return np.concatenate([state["fwd"], state["bwd"]])


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
        from amner.model import _chars_forward

        enc = random_char_encoder(seed)
        batched, _ = _chars_forward(enc.char_table, enc.char_bilstm, words)
        for n, word in enumerate(words):
            expected = per_word_char_vector(enc, word)
            assert np.max(np.abs(batched[n] - expected)) <= 1e-12, word

    @settings(max_examples=40, deadline=None)
    @given(words=_WORDS, seed=st.integers(0, 2**16))
    @example(words=["beta", "a", "beta", "xሀ"], seed=5)
    def test_gradients_equal_sum_of_per_word_passes(self, words, seed):
        from amner.model import _chars_backward, _chars_forward

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
