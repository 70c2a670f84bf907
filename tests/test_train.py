import numpy as np
import pytest
from helpers import synthetic_corpus

import amner.train as train_mod
from amner.model import SparseRows
from amner.train import (
    AdamState,
    GradCheckResult,
    TrainConfig,
    TrainingError,
    adam_step,
    build_model,
    clip_global_norm,
    gradient_check,
    holdout_split,
    kfold_split,
    make_batches,
    parse_train_config,
    sentence_loss,
    sentence_loss_and_grads,
    tag_sentences,
    train_model,
)


def textbook_adam(param, m, v, grad, step, config):
    """The Adam update as whole-array expressions: the reference for adam_step."""
    m *= config.beta1
    m += (1.0 - config.beta1) * grad
    v *= config.beta2
    v += (1.0 - config.beta2) * grad * grad
    param -= (
        config.learning_rate * (m / (1.0 - config.beta1 ** step))
        / (np.sqrt(v / (1.0 - config.beta2 ** step)) + config.epsilon)
    )


def dense_reference_train(sentences, model, config):
    """train_model with dense per-sentence gradients summed into the first one."""
    params = model.tensors()
    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    rng = np.random.default_rng(config.seed)
    step = 0
    for epoch in range(config.max_epochs):
        for batch in make_batches(list(sentences), config.batch_size, config.seed + epoch):
            batch_grads = None
            for sentence in batch:
                _, grads = sentence_loss_and_grads(
                    model, sentence, train=config.dropout > 0.0, rng=rng
                )
                grads = {
                    k: g.to_dense() if isinstance(g, SparseRows) else g for k, g in grads.items()
                }
                if batch_grads is None:
                    batch_grads = grads
                else:
                    for name, grad in grads.items():
                        batch_grads[name] += grad
            if config.clip_norm is not None:
                clip_global_norm(batch_grads, config.clip_norm)
            step += 1
            for name, param in params.items():
                textbook_adam(param, m[name], v[name], batch_grads[name], step, config)


def tiny_model(corpus, seed=0, dropout=0.0):
    return build_model(
        corpus, word_dim=8, char_dim=3, char_hidden=3, word_hidden=4,
        dropout=dropout, seed=seed,
    )


class TestConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 0.001
        assert config.batch_size == 20
        assert config.max_epochs == 50
        assert config.dropout == 0.5
        assert (config.beta1, config.beta2, config.epsilon) == (0.9, 0.999, 1e-8)
        assert config.clip_norm is None
        assert config.patience is None

    def test_kv_round_trip(self):
        config = TrainConfig(learning_rate=0.01, batch_size=4, seed=7, clip_norm=5.0)
        parsed = parse_train_config(config.to_kv())
        assert parsed == config

    def test_overrides_base(self):
        base = TrainConfig(seed=3)
        parsed = parse_train_config("max_epochs 9\n", base=base)
        assert parsed.max_epochs == 9
        assert parsed.seed == 3

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            parse_train_config("warmup 10\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)


class TestAdam:
    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        adam_step(state, params, grads, TrainConfig())
        assert abs(params["w"][0] + 0.001) < 1e-9  # update ~= -lr * 1/(1 + eps)

    def test_zero_gradient_is_identity(self):
        params = {"w": np.array([1.5, -2.0])}
        state = AdamState.for_params(params)
        adam_step(state, params, {"w": np.zeros(2)}, TrainConfig())
        assert np.array_equal(params["w"], np.array([1.5, -2.0]))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(0)
        grads_seq = [{"w": rng.normal(size=3)} for _ in range(10)]

        def run():
            params = {"w": np.zeros(3)}
            state = AdamState.for_params(params)
            for grads in grads_seq:
                adam_step(state, params, {"w": grads["w"].copy()}, TrainConfig())
            return params["w"]

        assert np.array_equal(run(), run())

    def test_non_finite_gradient_names_tensor(self):
        params = {"bad_tensor": np.zeros(1)}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="bad_tensor"):
            adam_step(state, params, {"bad_tensor": np.array([np.nan])}, TrainConfig())

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(2)}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, params, {"w": np.zeros(3)}, TrainConfig())

    @pytest.mark.parametrize("shape", [(), (1,), (2 * train_mod._ADAM_BLOCK + 7,), (3, 5461)])
    def test_blocked_update_matches_textbook(self, shape):
        rng = np.random.default_rng(len(shape))
        config = TrainConfig(learning_rate=0.01)
        params = {"w": rng.normal(size=shape)}
        state = AdamState.for_params(params)
        ref_p, ref_m, ref_v = params["w"].copy(), np.zeros(shape), np.zeros(shape)
        for step in range(1, 4):
            grad = rng.normal(size=shape)
            adam_step(state, params, {"w": grad}, config)
            textbook_adam(ref_p, ref_m, ref_v, grad, step, config)
        assert params["w"].tobytes() == ref_p.tobytes()
        assert state.m["w"].tobytes() == ref_m.tobytes()
        assert state.v["w"].tobytes() == ref_v.tobytes()

    def test_non_contiguous_parameter_rejected(self):
        params = {"w": np.zeros((3, 2)).T}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="contiguous"):
            adam_step(state, params, {"w": np.ones((2, 3))}, TrainConfig())

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        clipped = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert clipped == pytest.approx(1.0)


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
        plan = kfold_split(10, 10, seed=0)
        assert all(len(fold) == 1 for fold in plan.folds)

    def test_kfold_sizes(self):
        plan = kfold_split(10, 3, seed=0)
        assert sorted(len(f) for f in plan.folds) == [3, 3, 4]
        assert [len(f) for f in plan.folds] == [4, 3, 3]

    def test_kfold_disjoint_cover(self):
        plan = kfold_split(23, 5, seed=9)
        flat = [idx for fold in plan.folds for idx in fold]
        assert sorted(flat) == list(range(23))

    def test_kfold_train_test(self):
        plan = kfold_split(10, 5, seed=1)
        train, test = plan.fold_train_test(2)
        assert sorted(train + test) == list(range(10))
        assert not set(train) & set(test)

    def test_kfold_k_bounds(self):
        with pytest.raises(ValueError):
            kfold_split(3, 4, seed=0)
        with pytest.raises(ValueError):
            kfold_split(3, 1, seed=0)

    def test_holdout_two_thirds(self):
        plan = holdout_split(9, 2 / 3, seed=0)
        assert len(plan.train) == 6
        assert len(plan.test) == 3

    def test_holdout_eighty_twenty(self):
        plan = holdout_split(10, 0.8, seed=0)
        assert len(plan.train) == 8
        assert len(plan.test) == 2

    def test_holdout_disjoint_cover(self):
        plan = holdout_split(17, 0.6, seed=4)
        assert sorted(plan.train + plan.test) == list(range(17))

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
        with pytest.raises(ValueError, match="invalid IOB2"):
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
        row = model.encoder.word_table.index_of(word)
        assert np.allclose(model.encoder.word_table.matrix[row], 0.25)

    def test_loss_positive_at_init(self):
        corpus = synthetic_corpus(4, seed=3)
        model = tiny_model(corpus)
        assert sentence_loss(model, corpus[0]) > 0


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
        with pytest.raises(TrainingError, match="epoch 0, batch 0"):
            train_model(corpus, model, TrainConfig(max_epochs=1, dropout=0.0))

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_bit_identical_to_dense_reference(self, clip_norm):
        corpus = synthetic_corpus(24, seed=25)
        extra = [f"extra{i}" for i in range(2000)]
        config = TrainConfig(max_epochs=2, batch_size=5, dropout=0.5, seed=25, clip_norm=clip_norm)

        def fresh():
            return build_model(
                corpus, word_dim=10, char_dim=3, char_hidden=3, word_hidden=4,
                dropout=0.5, seed=25, extra_vocab=extra,
            )

        model, reference = fresh(), fresh()
        train_model(corpus, model, config)
        dense_reference_train(corpus, reference, config)
        expected = reference.tensors()
        for name, arr in model.tensors().items():
            assert arr.tobytes() == expected[name].tobytes(), name

    def test_non_finite_word_row_gradient_names_tensor(self, monkeypatch):
        corpus = synthetic_corpus(3, seed=27)
        model = tiny_model(corpus, seed=27)
        true_fn = train_mod.sentence_loss_and_grads

        def poisoned(model, sentence, train=False, rng=None):
            loss, grads = true_fn(model, sentence, train=train, rng=rng)
            grads["word_table.matrix"].values[0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(train_mod, "sentence_loss_and_grads", poisoned)
        with pytest.raises(TrainingError, match="epoch 0, batch 0: .*word_table.matrix"):
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


class TestGradientCheck:
    def test_full_model_within_tolerance(self):
        corpus = synthetic_corpus(2, seed=19, min_len=2, max_len=4)
        model = build_model(
            corpus, word_dim=3, char_dim=2, char_hidden=2, word_hidden=2,
            dropout=0.0, seed=19,
        )
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

        def corrupted(model, sentence, train=False, rng=None):
            loss, grads = true_fn(model, sentence, train=train, rng=rng)
            grads["proj.weight"] = grads["proj.weight"] + 0.5
            return loss, grads

        monkeypatch.setattr(train_mod, "sentence_loss_and_grads", corrupted)
        result = gradient_check(model, corpus[0])
        assert not result.passed
        assert result.per_tensor["proj.weight"] > 1e-4

    def test_render_mentions_verdict(self):
        result = GradCheckResult({"a": 1e-6, "b": 2e-6}, step=1e-5, tolerance=1e-4)
        assert "PASS" in result.render()
