import dataclasses
import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import synthetic_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from amner.model import encode_batch
from amner.cli import main
from amner.serialize import (
    _BLOB_MARKER,
    ModelFormatError,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_model,
)
from amner.train import build_model, sentence_loss_and_grads


DATA = Path(__file__).resolve().parent / "data"


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

    @pytest.mark.parametrize(
        "path", sorted(DATA.glob("parity-*.model")), ids=lambda path: path.name
    )
    def test_committed_models_resave_identically(self, path):
        # trained models: non-zero peepholes and biases in both directions
        data = path.read_bytes()
        loaded, config = model_from_bytes(data)
        assert model_to_bytes(loaded, config) == data

    def test_loss_identical_after_reload(self):
        corpus, model = small_model()
        loaded, _ = model_from_bytes(model_to_bytes(model))
        batch = encode_batch(model.encoder, corpus[:1], model.tag_index)
        assert sentence_loss_and_grads(loaded, batch)[0] == sentence_loss_and_grads(model, batch)[0]

    def test_file_round_trip(self, tmp_path):
        _, model = small_model()
        path = tmp_path / "tagger.model"
        save_model(path, model, {"seed": "3"})
        loaded, config = load_model(path)
        assert config["seed"] == "3"
        assert loaded.tags == model.tags

    def test_masked_training_flag_restores_masks(self):
        # the flag is written from the model, not from a caller config, and
        # loading restores it; the masks follow from the tags
        for masked in (False, True):
            _, model = small_model(masked=masked)
            data = model_to_bytes(model)
            assert f"\nmasked_training {str(masked).lower()}\n".encode() in data
            loaded, config = model_from_bytes(data)
            assert loaded.masked_training is masked
            assert "masked_training" not in config
            assert model_to_bytes(loaded) == data

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

    def test_loaded_tensors_are_writable_copies(self):
        # training a loaded model updates its tensors in place
        _, model = small_model()
        data = model_to_bytes(model)
        file_bytes = np.frombuffer(data, dtype=np.uint8)
        for name, arr in model_from_bytes(data)[0].tensors().items():
            assert arr.flags.writeable and not np.shares_memory(arr, file_bytes), name

    def test_tensor_table_is_model_tensors(self):
        # the file holds the model's own tensors: its names, shapes and order
        _, model = small_model()
        header = model_to_bytes(model).split(b"\n[blob]\n")[0].decode()
        lines = header.split("\n[tensors ")[1].split("\n")[1:]
        table = [(name, tuple(int(d) for d in dims)) for name, _, *dims in map(str.split, lines)]
        assert table == [(name, array.shape) for name, array in model.tensors().items()]

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
        data = model_to_bytes(model).replace(b"amner-model 2", b"other-model 9", 1)
        with pytest.raises(ModelFormatError, match="magic"):
            model_from_bytes(data)

    def test_format_1_refused(self, tmp_path, capsys):
        # the per-gate layout of format 1 is no longer read, by the API or by `amner tag`
        _, model = small_model()
        data = model_to_bytes(model).replace(b"amner-model 2", b"amner-model 1", 1)
        with pytest.raises(ModelFormatError, match="model file format 1 is no longer read"):
            model_from_bytes(data)
        path = tmp_path / "old.model"
        path.write_bytes(data)
        corpus = tmp_path / "in.tsv"
        corpus.write_text("a\tO\n\n", encoding="utf-8")
        assert main(["tag", "--model", str(path), str(corpus), str(tmp_path / "out.tsv")]) == 1
        assert "error: model file format 1 is no longer read" in capsys.readouterr().err
        assert not (tmp_path / "out.tsv").exists()

    def test_truncated_blob(self):
        _, model = small_model()
        data = model_to_bytes(model)
        with pytest.raises(ModelFormatError, match="past the end"):
            model_from_bytes(data[:-16])

    def test_trailing_blob_bytes(self):
        _, model = small_model()
        with pytest.raises(ModelFormatError, match="trailing bytes"):
            model_from_bytes(model_to_bytes(model) + bytes(8))

    def test_overlapping_offsets(self):
        _, model = small_model()
        data = model_to_bytes(model)
        line = next(l for l in data.split(b"\n") if l.startswith(b"crf.end "))
        name, offset, dims = line.split(b" ", 2)
        moved = b" ".join([name, str(int(offset) - 8).encode(), dims])
        with pytest.raises(ModelFormatError, match="starts at blob byte"):
            model_from_bytes(data.replace(line, moved, 1))

    @pytest.mark.parametrize("key", ["dropout_rate", "masked_training"])
    def test_model_keys_in_caller_config_refused(self, key):
        _, model = small_model()
        with pytest.raises(ModelFormatError, match=f"config key '{key}' is written from the model"):
            model_to_bytes(model, {key: "true"})

    @pytest.mark.parametrize("lines, message", [
        ([b"masked_training false"], "config lacks dropout_rate"),
        ([b"dropout_rate 0.25"], "config lacks masked_training"),
        ([b"dropout_rate x", b"masked_training false"], "bad dropout_rate"),
        *(([b"dropout_rate 0.25", b"masked_training " + value], "bad masked_training")
          for value in (b"True", b"yes", b"1", b"")),
    ])
    def test_model_config_keys_are_strict(self, lines, message):
        _, model = small_model()
        data = model_to_bytes(model)
        written = b"[config 2]\ndropout_rate 0.25\nmasked_training false\n"
        assert written in data
        edited = b"\n".join([b"[config %d]" % len(lines), *lines]) + b"\n"
        with pytest.raises(ModelFormatError, match=message):
            model_from_bytes(data.replace(written, edited, 1))

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_tags_that_are_not_iob2_refused(self, masked):
        # the tag list is checked whether or not the file trains masked
        _, model = small_model(masked=masked)
        data = model_to_bytes(model)
        assert b"\nB-LOC\n" in data.split(b"\n[chars ")[0]
        with pytest.raises(ModelFormatError, match="I-LOC without B-LOC"):
            model_from_bytes(data.replace(b"\nB-LOC\n", b"\nB-LOX\n", 1))

    def test_file_cut_inside_its_header(self):
        from amner.corpus import Sentence, Tag, Token

        # a word "[blob]" puts the blob marker inside the header, so the cut
        # file passes the marker check and runs out of header lines
        corpus = synthetic_corpus(3) + [Sentence((Token("[blob]", Tag("O")),))]
        model = build_model(corpus, word_dim=4, char_dim=2, char_hidden=2, word_hidden=2)
        data = model_to_bytes(model)
        cut = data[: data.index(_BLOB_MARKER) + len(_BLOB_MARKER) + 1]
        assert cut.count(_BLOB_MARKER) == 1 and len(cut) < data.index(b"\n[tensors ")
        with pytest.raises(ModelFormatError, match="truncated header"):
            model_from_bytes(cut)

    def test_non_numeric_section_count(self):
        _, model = small_model()
        data = model_to_bytes(model).replace(b"\n[tags ", b"\n[tags x", 1)
        with pytest.raises(ModelFormatError, match=r"\[tags N\]"):
            model_from_bytes(data)


def with_tensors(model, edit):
    """Model file bytes whose tensor table is ``edit(model.tensors())``."""
    tensors = edit(model.tensors())
    with mock.patch.object(model, "tensors", lambda: tensors):
        return model_to_bytes(model)


class TestTensorTable:
    def test_renamed_tensor(self):
        _, model = small_model()
        data = with_tensors(
            model, lambda t: {("proj.offset" if k == "proj.bias" else k): v for k, v in t.items()}
        )
        with pytest.raises(ModelFormatError, match="missing tensor proj.bias"):
            model_from_bytes(data)

    def test_dropped_tensor(self):
        _, model = small_model()
        data = with_tensors(model, lambda t: {k: v for k, v in t.items() if k != "crf.end"})
        with pytest.raises(ModelFormatError, match="missing tensor crf.end"):
            model_from_bytes(data)

    def test_extra_tensor(self):
        _, model = small_model()
        data = with_tensors(model, lambda t: {**t, "proj.scale": np.ones(2)})
        with pytest.raises(ModelFormatError, match="unexpected tensors: proj.scale"):
            model_from_bytes(data)

    def test_repeated_tensor(self):
        _, model = small_model()
        data = model_to_bytes(model)
        data = data.replace(b"\ncrf.end ", b"\ncrf.start ", 1)
        with pytest.raises(ModelFormatError, match="crf.start is listed twice"):
            model_from_bytes(data)

    @pytest.mark.parametrize(
        "name, reshape",
        [
            ("proj.weight", lambda a: a.T),
            ("crf.start", lambda a: np.append(a, 0.0)),
            ("word.w_x", lambda a: a[:, :-1]),
        ],
    )
    def test_changed_shape(self, name, reshape):
        _, model = small_model()
        data = with_tensors(model, lambda t: {k: reshape(v) if k == name else v for k, v in t.items()})
        with pytest.raises(ModelFormatError, match="inconsistent model"):
            model_from_bytes(data)

    @pytest.mark.parametrize("name, reshape, message", [
        ("char.p", lambda a: a.sum(), "bad tensor line 'char.p "),
        ("proj.weight", lambda a: a.sum(), "bad tensor line 'proj.weight "),
        ("proj.weight", lambda a: a[:, 0], "projection input width mismatch"),
    ], ids=["char.p-0d", "proj.weight-0d", "proj.weight-1d"])
    def test_wrong_rank(self, name, reshape, message):
        # a format error, not an IndexError from a shape check
        _, model = small_model()
        data = with_tensors(model, lambda t: {k: reshape(v) if k == name else v for k, v in t.items()})
        with pytest.raises(ModelFormatError, match=message):
            model_from_bytes(data)

    def test_char_width_checked_against_char_lstm(self):
        # a narrower character table but unchanged char LSTMs
        _, model = small_model()
        data = with_tensors(
            model, lambda t: {k: v[:, :-1] if k == "char_table.matrix" else v for k, v in t.items()}
        )
        with pytest.raises(ModelFormatError, match="char BiLSTM expects width"):
            model_from_bytes(data)


class TestGolden:
    def test_fresh_model_bytes(self):
        # SHA-256 of the format-2 file; the format-1 file of the same tensors,
        # drawn in the same init order, hashed f40c60ce8842f485...
        _, model = small_model()
        digest = hashlib.sha256(model_to_bytes(model)).hexdigest()
        assert digest == "420b4fb8842d0b18588f0380809c084d2fb4d21a6c5ce2eaf6a2ac3d5671bded"


_SMALL_FILE = model_to_bytes(small_model(masked=True)[1], {"seed": "0"})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_corrupt_or_truncated_file_loads_or_raises_format_error(data):
    if data.draw(st.booleans(), label="truncate"):
        blob = _SMALL_FILE[: data.draw(st.integers(0, len(_SMALL_FILE) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(_SMALL_FILE) - 1), label="pos")
        value = data.draw(st.integers(0, 255).filter(lambda b: b != _SMALL_FILE[pos]), label="byte")
        blob = _SMALL_FILE[:pos] + bytes([value]) + _SMALL_FILE[pos + 1 :]
    try:
        model_from_bytes(blob)
    except ModelFormatError:
        pass


@settings(max_examples=150, deadline=None)
@given(
    words=st.lists(st.text(max_size=6), unique=True, max_size=6),
    chars=st.lists(st.text(min_size=1, max_size=2), unique=True, max_size=4),
)
def test_any_vocabulary_round_trips(words, chars):
    from amner.corpus import O_TAG, Sentence, Tag, Token
    from amner.model import EmbeddingTable

    # a model of tags O, B-X and I-X, whose tables then take the drawn vocabularies
    tokens = Token("x", Tag("B", "X")), Token("y", Tag("I", "X")), Token("z", O_TAG)
    built = build_model([Sentence(tokens)], word_dim=2, char_dim=2, char_hidden=1, word_hidden=1)
    rng = np.random.default_rng(0)
    encoder = dataclasses.replace(
        built.encoder,
        char_table=EmbeddingTable.random(chars, 2, rng), word_table=EmbeddingTable.random(words, 2, rng),
    )
    model = dataclasses.replace(built, encoder=encoder)
    if any("\n" in token or "\r" in token for token in words + chars):
        with pytest.raises(ModelFormatError, match="line break"):
            model_to_bytes(model)
        return
    loaded, _ = model_from_bytes(model_to_bytes(model))
    assert loaded.encoder.word_table.vocab == encoder.word_table.vocab
    assert loaded.encoder.char_table.vocab == encoder.char_table.vocab
    for name, array in model.tensors().items():
        assert loaded.tensors()[name].tobytes() == array.tobytes(), name
