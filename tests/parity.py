"""Fixed training and tagging runs whose results are committed under tests/data.

    PYTHONPATH=src python tests/parity.py    # rewrites tests/data/parity-*

The committed files were written by this script running the code of
commit 81c89f2, the last to train and tag one sentence at a time.  Code that
changes only the order of float operations must reproduce them within a
stated tolerance (see tests/test_train.py); a file rewritten by later
code is no longer a reference for that code.  The emissions were then
computed one sentence at a time; this script now encodes the sentences
as one batch, whose (R, K) emissions hold each sentence's rows in order.

Each model is built from one synthetic corpus and trained (dims
30/5/6/12, dropout 0.5) on a second corpus whose vocabulary is larger,
so that out-of-vocabulary tokens train the unknown row.  The two parity
models add 2,000 extra words that never occur in training and run 2
epochs, once without and once with gradient clipping.  The tagger model
runs 20 epochs at a higher learning rate, so that its output on the
400-sentence tagging set uses every tag; the emissions and the SHA-256
of its `tag` output on that set are committed too.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
from helpers import synthetic_corpus

from amner.corpus import TagScheme, write_corpus
from amner.model import encode_batch, encode_forward
from amner.serialize import model_to_bytes
from amner.train import TrainConfig, build_model, tag_sentences, train_model

DATA = Path(__file__).resolve().parent / "data"
CLIP_NORMS = (None, 1.0)
EXTRA_VOCAB = [f"extra{i}" for i in range(2000)]
EMISSION_SENTENCES = 10


def vocab_corpus():
    return synthetic_corpus(24, seed=25)


def train_corpus():
    """per8, loc8, org8 and w26..w29 are not in vocab_corpus()."""
    return synthetic_corpus(24, seed=25, entity_words_per_type=9, filler_words=30)


def tag_corpus():
    """400 sentences; per9, loc9, org9 and w30..w33 are unseen in training as well."""
    return synthetic_corpus(400, seed=40, entity_words_per_type=10, filler_words=34)


def model_path(clip_norm) -> Path:
    return DATA / f"parity-clip-{clip_norm}.model"


TAGGER_PATH = DATA / "parity-tagger.model"
EMISSIONS_PATH = DATA / "parity-emissions.npy"
TAG_SHA_PATH = DATA / "parity-tag.sha256"


def _train(extra_vocab, **config):
    model = build_model(
        vocab_corpus(), word_dim=30, char_dim=5, char_hidden=6, word_hidden=12,
        dropout=0.5, seed=25, extra_vocab=extra_vocab,
    )
    train_model(train_corpus(), model, TrainConfig(batch_size=5, dropout=0.5, seed=25, **config))
    return model


def parity_model(clip_norm):
    return _train(EXTRA_VOCAB, max_epochs=2, clip_norm=clip_norm)


def tagger_model():
    return _train((), max_epochs=20, learning_rate=0.01)


def emissions(model) -> np.ndarray:
    """Emission rows of the first tag_corpus() sentences, stacked in order."""
    batch = encode_batch(model.encoder, tag_corpus()[:EMISSION_SENTENCES])
    return encode_forward(model.encoder, batch)[0]


def tag_sha256(model) -> str:
    tagged = tag_sentences(model, tag_corpus())
    return hashlib.sha256(write_corpus(tagged, TagScheme.IOB2).encode("utf-8")).hexdigest()


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for clip_norm in CLIP_NORMS:
        model_path(clip_norm).write_bytes(model_to_bytes(parity_model(clip_norm)))
    tagger = tagger_model()
    TAGGER_PATH.write_bytes(model_to_bytes(tagger))
    np.save(EMISSIONS_PATH, emissions(tagger))
    TAG_SHA_PATH.write_text(tag_sha256(tagger) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
