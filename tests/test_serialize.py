import numpy as np
import pytest
from helpers import synthetic_corpus

from amner.serialize import (
    ModelFormatError,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_model,
)
from amner.train import build_model, sentence_loss


def small_model(seed=0, masked=False):
    corpus = synthetic_corpus(4, seed=seed)
    model = build_model(
        corpus, word_dim=6, char_dim=3, char_hidden=2, word_hidden=3,
        dropout=0.25, seed=seed, masked_training=masked,
    )
    return corpus, model


class TestRoundTrip:
    def test_bit_exact_tensors(self):
        _, model = small_model()
        loaded, _ = model_from_bytes(model_to_bytes(model))
        original = model.tensors()
        for name, arr in loaded.tensors().items():
            assert np.array_equal(arr, original[name]), name

    def test_vocab_and_tags_preserved(self):
        _, model = small_model()
        loaded, _ = model_from_bytes(model_to_bytes(model))
        assert loaded.tags == model.tags
        assert loaded.encoder.word_table.vocab == model.encoder.word_table.vocab
        assert loaded.encoder.char_table.vocab == model.encoder.char_table.vocab
        assert loaded.encoder.dropout_rate == model.encoder.dropout_rate

    def test_save_is_deterministic(self):
        _, model = small_model()
        config = {"seed": "7", "learning_rate": "0.001"}
        assert model_to_bytes(model, config) == model_to_bytes(model, config)

    def test_resave_identical_bytes(self):
        _, model = small_model()
        data = model_to_bytes(model)
        loaded, config = model_from_bytes(data)
        assert model_to_bytes(loaded, config) == data

    def test_loss_identical_after_reload(self):
        corpus, model = small_model()
        loaded, _ = model_from_bytes(model_to_bytes(model))
        assert sentence_loss(loaded, corpus[0]) == sentence_loss(model, corpus[0])

    def test_file_round_trip(self, tmp_path):
        _, model = small_model()
        path = tmp_path / "tagger.model"
        save_model(path, model, {"seed": "3"})
        loaded, config = load_model(path)
        assert config["seed"] == "3"
        assert loaded.tags == model.tags

    def test_masked_training_flag_restores_masks(self):
        _, model = small_model(masked=True)
        data = model_to_bytes(model, {"masked_training": "true"})
        loaded, _ = model_from_bytes(data)
        assert np.array_equal(loaded.crf.trans_mask, model.crf.trans_mask)
        assert not loaded.crf.trans_mask.all()

    def test_header_lookalike_words(self):
        from amner.corpus import Sentence, Tag, Token

        corpus = synthetic_corpus(3) + [
            Sentence((Token("[blob]", Tag("O")), Token("[tensors 2]", Tag("O"))))
        ]
        model = build_model(corpus, word_dim=4, char_dim=2, char_hidden=2, word_hidden=2)
        data = model_to_bytes(model)
        loaded, _ = model_from_bytes(data)
        assert loaded.encoder.word_table.vocab == model.encoder.word_table.vocab
        assert model_to_bytes(loaded) == data

    def test_config_preserved_verbatim(self):
        _, model = small_model()
        config = {"seed": "42", "note": "two words here"}
        _, loaded_config = model_from_bytes(model_to_bytes(model, config))
        assert loaded_config["seed"] == "42"
        assert loaded_config["note"] == "two words here"


class TestErrors:
    def test_not_a_model_file(self):
        with pytest.raises(ModelFormatError, match="blob marker"):
            model_from_bytes(b"just some bytes")

    def test_bad_magic(self):
        _, model = small_model()
        data = model_to_bytes(model).replace(b"amner-model 1", b"other-model 9", 1)
        with pytest.raises(ModelFormatError, match="magic"):
            model_from_bytes(data)

    def test_truncated_blob(self):
        _, model = small_model()
        data = model_to_bytes(model)
        with pytest.raises(ModelFormatError, match="past the end"):
            model_from_bytes(data[:-16])
