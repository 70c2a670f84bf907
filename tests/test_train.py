import dataclasses
import math
import tracemalloc

import numpy as np
import parity
import pytest
from helpers import synthetic_corpus
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amner.train as train_mod
from amner.corpus import O_TAG, Sentence, TagScheme, Token, tag_from_str
from amner.model import encode_batch
from amner.serialize import model_from_bytes
from amner.train import (
    AdamState,
    GradCheckResult,
    TrainConfig,
    adam_step,
    build_model,
    clip_global_norm,
    gradient_check,
    holdout_split,
    kfold_split,
    make_batches,
    parse_train_config,
    sentence_loss_and_grads,
    tag_sentences,
    train_model,
)


def textbook_adam(param, m, v, grad, step, learning_rate):
    """The Adam update as whole-array expressions, with Kingma & Ba's
    constants: the reference for adam_step."""
    m *= 0.9
    m += (1.0 - 0.9) * grad
    v *= 0.999
    v += (1.0 - 0.999) * grad * grad
    param -= learning_rate * (m / (1.0 - 0.9 ** step)) / (np.sqrt(v / (1.0 - 0.999 ** step)) + 1e-8)


def tiny_model(corpus, seed=0, dropout=0.0, extra_vocab=()):
    return build_model(
        corpus, word_dim=8, char_dim=3, char_hidden=3, word_hidden=4,
        dropout=dropout, seed=seed, extra_vocab=extra_vocab,
    )


def tagged_batch(model, sentences):
    """``sentences`` encoded for the loss: gold tags included."""
    return encode_batch(model.encoder, sentences, model.tag_index)


def dense_adam_train(sentences, model, config, limit=None):
    """train_model's batch loop with Adam and the word-table gradient over
    the model's whole table: the reference for its training on a view of
    the reachable rows.  Each batch is encoded on its own, which also
    checks train_model's gathering of batches from the encoded corpus.
    Stops before batch ``limit``, counted over all epochs from 0, when
    given.  Returns (loss, grad_norm_mean, grad_norm_max) per completed
    epoch."""
    params = model.tensors()
    state = AdamState.for_params(params)
    word_grad = np.zeros_like(params["word_table.matrix"])
    rng = np.random.default_rng(config.seed)
    logs = []
    done = 0
    for epoch in range(config.max_epochs):
        loss_sum, norms = 0.0, []
        for batch in make_batches(list(sentences), config.batch_size, config.seed + epoch):
            if done == limit:
                return logs
            done += 1
            loss, grads = sentence_loss_and_grads(model, tagged_batch(model, batch), rng=rng)
            norms.append(clip_global_norm(grads, config.clip_norm))
            sparse = grads["word_table.matrix"]
            word_grad[sparse.rows] = sparse.values
            grads["word_table.matrix"] = word_grad
            adam_step(state, params, grads, config.learning_rate)
            word_grad[sparse.rows] = 0.0
            loss_sum += loss
        logs.append((loss_sum, sum(norms) / len(norms), max(norms)))
    return logs


class TestConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 0.001
        assert config.batch_size == 20
        assert config.max_epochs == 50
        assert config.dropout == 0.5
        assert config.clip_norm is None
        assert config.patience is None
        # Adam's other constants are Kingma & Ba's defaults, not settings
        assert (train_mod.BETA1, train_mod.BETA2, train_mod.EPSILON) == (0.9, 0.999, 1e-8)
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "learning_rate", "batch_size", "max_epochs", "dropout", "seed", "clip_norm", "patience"
        ]

    def test_kv_round_trip(self):
        config = TrainConfig(learning_rate=0.01, batch_size=4, seed=7, clip_norm=5.0)
        parsed = parse_train_config(config.to_kv())
        assert parsed == config

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            parse_train_config("warmup 10\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            TrainConfig(seed=-1)

    # each of these trains to NaN tensors, or turns the step into gradient ascent
    @pytest.mark.parametrize("name, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -1.0),
        ("clip_norm", -1.0), ("clip_norm", 0.0), ("clip_norm", math.nan), ("clip_norm", math.inf),
        ("patience", 0), ("patience", -1),
    ])
    def test_settings_that_corrupt_a_model_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_edge_settings_accepted(self):
        TrainConfig(clip_norm=1e-9, patience=1)


class TestAdam:
    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        adam_step(state, params, grads, 0.001)
        assert abs(params["w"][0] + 0.001) < 1e-9  # update ~= -lr * 1/(1 + eps)

    def test_zero_gradient_is_identity(self):
        params = {"w": np.array([1.5, -2.0])}
        state = AdamState.for_params(params)
        adam_step(state, params, {"w": np.zeros(2)}, 0.001)
        assert np.array_equal(params["w"], np.array([1.5, -2.0]))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(0)
        grads_seq = [{"w": rng.normal(size=3)} for _ in range(10)]

        def run():
            params = {"w": np.zeros(3)}
            state = AdamState.for_params(params)
            for grads in grads_seq:
                adam_step(state, params, {"w": grads["w"].copy()}, 0.001)
            return params["w"]

        assert np.array_equal(run(), run())

    def test_non_finite_gradient_names_tensor(self):
        # clip_global_norm is the step's finiteness check; adam_step has none
        with pytest.raises(ValueError, match="bad_tensor"):
            clip_global_norm({"bad_tensor": np.array([np.nan])}, None)

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(2)}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, params, {"w": np.zeros(3)}, 0.001)

    @pytest.mark.parametrize("shape", [(), (1,), (2 * train_mod._ADAM_BLOCK + 7,), (3, 5461)])
    def test_blocked_update_matches_textbook(self, shape):
        rng = np.random.default_rng(len(shape))
        params = {"w": rng.normal(size=shape)}
        state = AdamState.for_params(params)
        ref_p, ref_m, ref_v = params["w"].copy(), np.zeros(shape), np.zeros(shape)
        for step in range(1, 4):
            grad = rng.normal(size=shape)
            adam_step(state, params, {"w": grad}, 0.01)
            textbook_adam(ref_p, ref_m, ref_v, grad, step, 0.01)
        assert params["w"].tobytes() == ref_p.tobytes()
        assert state.m["w"].tobytes() == ref_m.tobytes()
        assert state.v["w"].tobytes() == ref_v.tobytes()

    def test_non_contiguous_parameter_rejected(self):
        params = {"w": np.zeros((3, 2)).T}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="contiguous"):
            adam_step(state, params, {"w": np.ones((2, 3))}, 0.001)

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        clipped = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert clipped == pytest.approx(1.0)

    def test_overflowing_sum_of_squares_is_finite_and_clips_to_zero(self):
        # 1e200 squared overflows: the sum is infinite, every value finite
        grads = {"a": np.full(3, 1e200), "b": np.array([-1e200, 2.0])}
        assert clip_global_norm(grads, None) == math.inf
        assert grads["a"][0] == 1e200
        assert clip_global_norm(grads, 1.0) == math.inf
        for grad in grads.values():
            assert not grad.any()


class TestBatches:
    def test_partition_sizes(self):
        batches = make_batches(list(range(45)), 20, seed=0)
        assert [len(b) for b in batches] == [20, 20, 5]

    def test_batch_one(self):
        batches = make_batches(list(range(5)), 1, seed=0)
        assert [len(b) for b in batches] == [1] * 5

    def test_same_seed_same_order(self):
        a = make_batches(list(range(30)), 7, seed=3)
        b = make_batches(list(range(30)), 7, seed=3)
        assert a == b

    def test_partition_is_complete(self):
        batches = make_batches(list(range(23)), 4, seed=11)
        flat = [x for batch in batches for x in batch]
        assert sorted(flat) == list(range(23))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_batches([], 4, seed=0)


class TestSplits:
    def test_kfold_ten_of_one(self):
        splits = kfold_split(10, 10, seed=0)
        assert all(len(test) == 1 and len(train) == 9 for train, test in splits)

    def test_kfold_sizes(self):
        splits = kfold_split(10, 3, seed=0)
        assert [len(test) for _, test in splits] == [4, 3, 3]

    def test_kfold_disjoint_cover(self):
        flat = [idx for _, test in kfold_split(23, 5, seed=9) for idx in test]
        assert sorted(flat) == list(range(23))

    def test_kfold_train_test(self):
        splits = kfold_split(10, 5, seed=1)
        order = [idx for _, test in splits for idx in test]
        train, test = splits[2]
        assert train == order[:4] + order[6:]
        assert test == order[4:6]

    def test_kfold_k_bounds(self):
        with pytest.raises(ValueError):
            kfold_split(3, 4, seed=0)
        with pytest.raises(ValueError):
            kfold_split(3, 1, seed=0)

    def test_holdout_two_thirds(self):
        train, test = holdout_split(9, 2 / 3, seed=0)
        assert len(train) == 6
        assert len(test) == 3

    def test_holdout_eighty_twenty(self):
        train, test = holdout_split(10, 0.8, seed=0)
        assert len(train) == 8
        assert len(test) == 2

    def test_holdout_disjoint_cover(self):
        train, test = holdout_split(17, 0.6, seed=4)
        assert sorted(train + test) == list(range(17))

    def test_holdout_degenerate_rejected(self):
        with pytest.raises(ValueError):
            holdout_split(2, 0.1, seed=0)


class TestModelAssembly:
    def test_tagset_from_corpus(self):
        corpus = synthetic_corpus(5, seed=1)
        model = tiny_model(corpus)
        assert model.tags[0] == "O"
        assert len(model.tags) == 7

    def test_invalid_corpus_rejected(self):
        from amner.corpus import Sentence, Tag, Token

        bad = [Sentence((Token("a", Tag("I", "PER")),))]
        with pytest.raises(ValueError, match="sentence 0, token 0: invalid under iob2"):
            tiny_model(bad)

    def test_pretrained_rows_copied(self):
        from amner.model import load_embeddings

        corpus = synthetic_corpus(3, seed=2)
        word = corpus[0].tokens[0].surface
        text = f"1 8\n{word} " + " ".join(["0.25"] * 8) + "\n"
        pretrained = load_embeddings(text, expected_dim=8)
        model = build_model(
            corpus, word_dim=8, char_dim=3, char_hidden=3, word_hidden=4,
            dropout=0.0, seed=0, pretrained=pretrained,
        )
        table = model.encoder.word_table
        assert np.allclose(table.matrix[table.vocab[word]], 0.25)
        assert not np.allclose(table.matrix[-1], 0.25)

    def test_loss_positive_at_init(self):
        corpus = synthetic_corpus(4, seed=3)
        model = tiny_model(corpus)
        assert sentence_loss_and_grads(model, tagged_batch(model, corpus[:1]))[0] > 0


class TestTraining:
    def test_zero_epochs_leaves_params(self):
        corpus = synthetic_corpus(4, seed=5)
        model = tiny_model(corpus, seed=5)
        before = {k: v.copy() for k, v in model.tensors().items()}
        logs = train_model(corpus, model, TrainConfig(max_epochs=0, dropout=0.0))
        assert logs == []
        for name, arr in model.tensors().items():
            assert np.array_equal(arr, before[name])

    def test_determinism(self):
        corpus = synthetic_corpus(6, seed=7)
        config = TrainConfig(max_epochs=3, batch_size=3, dropout=0.5, seed=11)

        def run():
            model = tiny_model(corpus, seed=11, dropout=0.5)
            logs = train_model(corpus, model, config)
            return logs, model

        logs_a, model_a = run()
        logs_b, model_b = run()
        assert [(e.epoch, e.loss) for e in logs_a] == [(e.epoch, e.loss) for e in logs_b]
        for name, arr in model_a.tensors().items():
            assert np.array_equal(arr, model_b.tensors()[name]), name

    def test_loss_mostly_decreasing(self):
        corpus = synthetic_corpus(6, seed=9)
        model = tiny_model(corpus, seed=9)
        logs = train_model(corpus, model, TrainConfig(max_epochs=30, batch_size=6, dropout=0.0))
        losses = [entry.loss for entry in logs]
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-9)
        assert drops >= 0.9 * (len(losses) - 1)

    def test_memorizes_tiny_corpus(self):
        corpus = synthetic_corpus(5, seed=13, min_len=3, max_len=6)
        model = tiny_model(corpus, seed=13)

        train_model(
            corpus, model,
            TrainConfig(max_epochs=250, batch_size=1, dropout=0.0, seed=13),
            dev=corpus, on_epoch=lambda entry: entry.dev_f1 == 1.0,
        )
        predicted = tag_sentences(model, corpus)
        assert [list(s.tags) for s in predicted] == [list(s.tags) for s in corpus]

    def test_non_finite_loss_aborts_with_location(self):
        corpus = synthetic_corpus(3, seed=15)
        model = tiny_model(corpus, seed=15)
        model.encoder.proj_w[0, 0] = np.nan
        with pytest.raises(ValueError, match="epoch 0, batch 0"):
            train_model(corpus, model, TrainConfig(max_epochs=1, dropout=0.0))

    def test_epoch_records(self):
        corpus = synthetic_corpus(7, seed=29)
        tokens = sum(len(sentence.tokens) for sentence in corpus)
        for clip_norm, clipped in ((None, 0), (1e-9, 3)):  # 7 sentences in batches of 3
            model = tiny_model(corpus, seed=29)
            config = TrainConfig(max_epochs=2, batch_size=3, dropout=0.0, clip_norm=clip_norm)
            for entry in train_model(corpus, model, config):
                assert entry.tokens == tokens and entry.clipped_batches == clipped
                assert 0.0 < entry.grad_norm_mean <= entry.grad_norm_max
                assert entry.wall_s > 0.0 and entry.tok_s == tokens / entry.wall_s

    def test_non_finite_word_row_gradient_names_tensor(self, monkeypatch):
        corpus = synthetic_corpus(3, seed=27)
        true_fn = train_mod.sentence_loss_and_grads

        def poisoned(model, sentence, rng=None):
            loss, grads = true_fn(model, sentence, rng=rng)
            grads["word_table.matrix"].values[0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(train_mod, "sentence_loss_and_grads", poisoned)
        # with extra words, Adam runs on fewer rows than the table has
        for extra_vocab in ((), ("only-extra0", "only-extra1")):
            model = tiny_model(corpus, seed=27, extra_vocab=extra_vocab)
            with pytest.raises(ValueError, match="epoch 0, batch 0: .*word_table.matrix"):
                train_model(corpus, model, TrainConfig(max_epochs=1, dropout=0.0))

    def test_early_stop_patience(self):
        corpus = synthetic_corpus(4, seed=17)
        model = tiny_model(corpus, seed=17)
        logs = train_model(
            corpus, model,
            TrainConfig(max_epochs=50, batch_size=4, dropout=0.0, patience=2),
            dev=corpus,
        )
        assert len(logs) < 50  # dev F1 saturates quickly on a memorized corpus

    def test_unknown_tag_stops_training_before_any_update(self):
        corpus = synthetic_corpus(12, seed=33)
        model = tiny_model(corpus, seed=33)
        before = {name: arr.copy() for name, arr in model.tensors().items()}
        misc = Sentence((Token("w0", tag_from_str("B-MISC", TagScheme.IOB2)), Token("w1", O_TAG)))
        # the corpus is checked whole, before the batch that holds this sentence
        with pytest.raises(ValueError, match="tag 'B-MISC' not in the model's tag vocabulary"):
            train_model(corpus + [misc], model, TrainConfig(max_epochs=1, batch_size=2, dropout=0.0))
        for name, arr in model.tensors().items():
            assert arr.tobytes() == before[name].tobytes(), name

    @pytest.mark.parametrize("masked", [False, True])
    def test_invalid_iob2_training_set_stops_before_any_update(self, masked):
        corpus = synthetic_corpus(12, seed=35)
        model = build_model(
            corpus, word_dim=8, char_dim=3, char_hidden=3, word_hidden=4,
            dropout=0.0, seed=35, masked_training=masked,
        )
        before = {name: arr.copy() for name, arr in model.tensors().items()}
        stray = Sentence((Token("w0", O_TAG), Token("w1", tag_from_str("I-PER", TagScheme.IOB2))))
        with pytest.raises(ValueError, match="training set: sentence 12, token 1: invalid under iob2"):
            train_model(corpus + [stray], model, TrainConfig(max_epochs=1, batch_size=2, dropout=0.0))
        for name, arr in model.tensors().items():
            assert arr.tobytes() == before[name].tobytes(), name

    @pytest.mark.parametrize("dropout", [0.1, 0.9])
    def test_dropout_other_than_the_models_is_refused(self, dropout):
        corpus = synthetic_corpus(3, seed=17)
        model = tiny_model(corpus, seed=17, dropout=0.5)
        with pytest.raises(ValueError, match="differs from the model's rate 0.5"):
            train_model(corpus, model, TrainConfig(max_epochs=1, dropout=dropout))


class TestTokenBudgetTagging:
    """tag_sentences packs length-sorted sentences greedily into batches of
    at most TAG_TOKENS tokens, a longer sentence alone, and batching
    changes no path.  The budget is patched down to BUDGET tokens so that
    small draws cross batch boundaries."""

    BUDGET = 6
    CORPUS = synthetic_corpus(8, seed=41)
    MODEL = tiny_model(CORPUS, seed=41)
    # two out-of-vocabulary words, one of them of unseen characters
    WORDS = sorted({w for s in CORPUS for w in s.surfaces}) + ["w99", "\u1230\u120b"]

    @settings(max_examples=60, deadline=None)
    @given(raw=st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=9), max_size=8))
    @example(raw=[["w0", "w1"], ["per0", "w2"]])  # under the budget
    @example(raw=[["w0", "w1", "w2"], ["loc1", "loc2", "w3"]])  # exactly at it
    @example(raw=[["w0"] * 4, ["org3"] * 4, ["w5"] * 4])  # over it, lengths tied
    @example(raw=[["w1"] * 9, ["w99"], ["per1"] * 9, ["w2"] * 5])  # longer than it
    def test_paths_equal_tagging_each_sentence_alone(self, raw):
        sentences = [Sentence(tuple(Token(word, O_TAG) for word in words)) for words in raw]
        batches = []

        def recording(params, batch_sentences, tag_index=None):
            batches.append([len(s.tokens) for s in batch_sentences])
            return encode_batch(params, batch_sentences, tag_index)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(train_mod, "TAG_TOKENS", self.BUDGET)
            patch.setattr(train_mod, "encode_batch", recording)
            got = tag_sentences(self.MODEL, sentences)
        alone = [tag_sentences(self.MODEL, [sentence])[0] for sentence in sentences]
        assert got == alone

        assert [n for lengths in batches for n in lengths] == sorted(len(w) for w in raw)
        for lengths in batches:
            assert sum(lengths) <= self.BUDGET or len(lengths) == 1
        for lengths, after in zip(batches, batches[1:]):
            assert sum(lengths) + after[0] > self.BUDGET

    def test_no_sentences(self):
        assert tag_sentences(self.MODEL, []) == []

    def test_skewed_batch_peaks_near_an_even_one(self):
        # 256 one-token sentences and one of 256 tokens fill one batch as 32
        # of 16 tokens do; padding the short ones to the long one's length
        # would hold about 2.4 times the memory
        corpus = synthetic_corpus(50)
        model = build_model(corpus)
        words = sorted({w for s in corpus for w in s.surfaces})

        def sentences(count, length):
            return [
                Sentence(tuple(Token(words[(i + j) % len(words)], O_TAG) for j in range(length)))
                for i in range(count)
            ]

        def peak(batch):
            tracemalloc.start()
            try:
                tag_sentences(model, batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        even = peak(sentences(32, 16))
        assert peak(sentences(256, 1) + sentences(1, 256)) <= 1.5 * even


class TestCompactWordTableAdam:
    """train_model runs Adam on a view whose word table holds only the
    rows training can reach; every other row would get a bitwise-zero
    update from dense Adam."""

    CORPUS = synthetic_corpus(12, seed=31)
    # fillers w26..w39 occur here and not in CORPUS
    HELD_OUT = synthetic_corpus(6, seed=32, filler_words=40)

    @pytest.mark.parametrize("clip_norm", [None, 0.5])
    @pytest.mark.parametrize("train_on", ["corpus", "held-out"])
    def test_matches_dense_adam(self, clip_norm, train_on):
        extra = [t.surface for s in self.HELD_OUT for t in s.tokens]
        sentences = self.CORPUS if train_on == "corpus" else self.HELD_OUT
        # a model built without the held-out words meets them as unknown words
        vocab_extra = extra if train_on == "corpus" else ()
        config = TrainConfig(max_epochs=2, batch_size=5, dropout=0.5, seed=31, clip_norm=clip_norm)
        dense, compact = (
            tiny_model(self.CORPUS, seed=31, dropout=0.5, extra_vocab=vocab_extra)
            for _ in range(2)
        )
        initial = compact.encoder.word_table.matrix.copy()

        expected = dense_adam_train(sentences, dense, config)
        logs = train_model(sentences, compact, config)
        assert [(e.loss, e.grad_norm_mean, e.grad_norm_max) for e in logs] == expected
        if clip_norm is not None:
            assert all(e.clipped_batches > 0 for e in logs)
        for name, array in dense.tensors().items():
            assert compact.tensors()[name].tobytes() == array.tobytes(), name

        table = compact.encoder.word_table
        unknown = len(table.vocab)
        if train_on == "corpus":
            only_extra = table.ids(sorted(set(extra) - set(w for s in self.CORPUS for w in s.surfaces)))
            assert only_extra.size and unknown not in only_extra
            assert table.matrix[only_extra].tobytes() == initial[only_extra].tobytes()
            assert table.matrix[unknown].tobytes() == initial[unknown].tobytes()
        else:
            assert not np.array_equal(table.matrix[unknown], initial[unknown])

    def test_failed_batch_leaves_every_earlier_step(self, monkeypatch):
        # 12 sentences in batches of 5 make 3 batches an epoch: epoch 1,
        # batch 1 is the fifth batch, so the four before it have trained
        extra = [t.surface for s in self.HELD_OUT for t in s.tokens]
        config = TrainConfig(max_epochs=2, batch_size=5, dropout=0.5, seed=31)
        dense, trained = (
            tiny_model(self.CORPUS, seed=31, dropout=0.5, extra_vocab=extra) for _ in range(2)
        )
        dense_adam_train(self.CORPUS, dense, config, limit=4)
        true_fn = train_mod.sentence_loss_and_grads
        calls = []

        def failing_fifth(model, sentences, rng=None):
            loss, grads = true_fn(model, sentences, rng=rng)
            calls.append(loss)
            return (np.nan if len(calls) == 5 else loss), grads

        monkeypatch.setattr(train_mod, "sentence_loss_and_grads", failing_fifth)
        with pytest.raises(ValueError, match="epoch 1, batch 1: non-finite loss"):
            train_model(self.CORPUS, trained, config)
        for name, array in dense.tensors().items():
            assert trained.tensors()[name].tobytes() == array.tobytes(), name

    def test_non_finite_gradient_step_changes_nothing(self, monkeypatch):
        # a NaN in the gradient of the last tensor Adam updates, in the fifth
        # batch: the failed step leaves every tensor as the four before it did
        extra = [t.surface for s in self.HELD_OUT for t in s.tokens]
        config = TrainConfig(max_epochs=2, batch_size=5, dropout=0.5, seed=31, clip_norm=0.5)
        dense, trained = (
            tiny_model(self.CORPUS, seed=31, dropout=0.5, extra_vocab=extra) for _ in range(2)
        )
        assert list(trained.tensors())[-1] == "crf.end"
        dense_adam_train(self.CORPUS, dense, config, limit=4)
        true_fn = train_mod.sentence_loss_and_grads
        calls = []

        def poisoned_fifth(model, sentences, rng=None):
            loss, grads = true_fn(model, sentences, rng=rng)
            calls.append(loss)
            if len(calls) == 5:
                grads["crf.end"][-1] = np.nan
            return loss, grads

        monkeypatch.setattr(train_mod, "sentence_loss_and_grads", poisoned_fifth)
        with pytest.raises(ValueError, match="epoch 1, batch 1: non-finite gradient in tensor crf.end"):
            train_model(self.CORPUS, trained, config)
        for name, array in dense.tensors().items():
            assert trained.tensors()[name].tobytes() == array.tobytes(), name


def relative_gaps(model, reference) -> dict[str, float]:
    """max|p - p_ref| / max|p_ref| per tensor (the plain max where p_ref is all zero)."""
    expected = reference.tensors()
    gaps = {}
    for name, arr in model.tensors().items():
        scale = float(np.max(np.abs(expected[name]), initial=0.0)) or 1.0
        gaps[name] = float(np.max(np.abs(arr - expected[name]), initial=0.0)) / scale
    return gaps


class TestParity:
    """Against files written by tests/parity.py before training and tagging
    ran on padded batches.  A batch GEMM sums in another order than one GEMM
    per sentence, so equality is up to a bound well above the measured gap."""

    @pytest.mark.parametrize("clip_norm", parity.CLIP_NORMS)
    def test_matches_committed_parent_model(self, clip_norm):
        model = parity.parity_model(clip_norm)
        reference, _ = model_from_bytes(parity.model_path(clip_norm).read_bytes())
        assert model.encoder.word_table.vocab == reference.encoder.word_table.vocab
        gaps = relative_gaps(model, reference)
        assert max(gaps.values()) <= 1e-12, gaps

    def test_emissions_match_committed(self):
        tagger, _ = model_from_bytes(parity.TAGGER_PATH.read_bytes())
        expected = np.load(parity.EMISSIONS_PATH)
        got = parity.emissions(tagger)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_tag_output_has_committed_sha256(self):
        tagger, _ = model_from_bytes(parity.TAGGER_PATH.read_bytes())
        expected = parity.TAG_SHA_PATH.read_text(encoding="utf-8").strip()
        assert parity.tag_sha256(tagger) == expected


class TestGradientCheck:
    def test_full_model_within_tolerance(self):
        corpus = synthetic_corpus(2, seed=19, min_len=2, max_len=4)
        model = build_model(
            corpus, word_dim=3, char_dim=2, char_hidden=2, word_hidden=2,
            dropout=0.0, seed=19,
        )
        result = gradient_check(model, corpus[0])
        assert result.passed, result.render()

    def test_masked_model_within_tolerance(self):
        # the analytic and the numeric loss both apply the IOB2 masks; with
        # the masks on one side only, the CRF gradients would disagree
        corpus = synthetic_corpus(2, seed=19, min_len=2, max_len=4)
        dims = dict(word_dim=3, char_dim=2, char_hidden=2, word_hidden=2, dropout=0.0, seed=19)
        model = build_model(corpus, masked_training=True, **dims)
        free_model = build_model(corpus, **dims)
        free = sentence_loss_and_grads(free_model, tagged_batch(free_model, corpus[:1]))[0]
        assert sentence_loss_and_grads(model, tagged_batch(model, corpus[:1]))[0] < free
        result = gradient_check(model, corpus[0])
        assert result.passed, result.render()

    def test_zero_parameter_model(self):
        corpus = synthetic_corpus(2, seed=21, min_len=2, max_len=3)
        model = build_model(
            corpus, word_dim=3, char_dim=2, char_hidden=2, word_hidden=2,
            dropout=0.0, seed=21,
        )
        for arr in model.tensors().values():
            arr[:] = 0.0
        result = gradient_check(model, corpus[0])
        assert result.passed, result.render()
        assert np.isfinite(result.max_error)

    def test_corrupted_gradient_detected(self, monkeypatch):
        corpus = synthetic_corpus(2, seed=23, min_len=2, max_len=4)
        model = build_model(
            corpus, word_dim=3, char_dim=2, char_hidden=2, word_hidden=2,
            dropout=0.0, seed=23,
        )
        true_fn = train_mod.sentence_loss_and_grads

        def corrupted(model, sentence, rng=None):
            loss, grads = true_fn(model, sentence, rng=rng)
            grads["proj.weight"] = grads["proj.weight"] + 0.5
            return loss, grads

        monkeypatch.setattr(train_mod, "sentence_loss_and_grads", corrupted)
        result = gradient_check(model, corpus[0])
        assert not result.passed
        assert result.per_tensor["proj.weight"] > 1e-4

    @pytest.mark.parametrize("step, tolerance", [
        (0.0, 1e-4), (float("nan"), 1e-4), (-1e-5, 1e-4), (1e-5, -1.0), (1e-5, float("inf")),
    ], ids=["step-0", "step-nan", "step-negative", "tolerance-negative", "tolerance-inf"])
    def test_bad_step_or_tolerance_rejected(self, step, tolerance):
        corpus = synthetic_corpus(2, seed=19, min_len=2, max_len=4)
        model = build_model(
            corpus, word_dim=3, char_dim=2, char_hidden=2, word_hidden=2,
            dropout=0.0, seed=19,
        )
        with pytest.raises(ValueError, match="step and tolerance must be finite and positive"):
            gradient_check(model, corpus[0], step=step, tolerance=tolerance)

    def test_render_mentions_verdict(self):
        result = GradCheckResult({"a": 1e-6, "b": 2e-6}, step=1e-5, tolerance=1e-4)
        assert "PASS" in result.render()
