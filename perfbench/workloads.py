"""Deterministic input generators for the benchmark workloads.

Every generator takes the workload seed and a directory and writes plain
files in the formats the toolkit reads (IOB2 TSV corpora, `V D` word
vectors, feature-row files).  The program under test only ever sees those
files.  Equal seeds give byte-identical files.

Surfaces are built from Ethiopic syllables, as in Amharic text: two to
six characters per word.  Entity types follow the paper's corpus, whose
token counts are PER 3,809 / LOC 7,199 / ORG 7,596 / O 164,087.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path

import numpy as np

WORD_DIM = 300
ENTITY_TYPES = ("PER", "LOC", "ORG")
PAPER_COUNTS = {"PER": 3809, "LOC": 7199, "ORG": 7596, "O": 164087}
ENTITY_WEIGHTS = np.array([PAPER_COUNTS[t] for t in ENTITY_TYPES], dtype=float)
ENTITY_WEIGHTS /= ENTITY_WEIGHTS.sum()
ENTITY_START_PROB = 0.06  # gives about 11% entity tokens, near the paper's 10.2%

# Ethiopic syllables: the first 200 are the "common" script seen in
# training; the rest only appear in rare words of the tagging corpus,
# where the model meets them as unseen characters.
_SYLLABLES = [chr(c) for c in range(0x1200, 0x1380) if unicodedata.category(chr(c)) == "Lo"]
COMMON_CHARS = _SYLLABLES[:200]
RARE_CHARS = _SYLLABLES[200:]

TRAIN_SENTENCES = 1000
# Training sentences have 4 to 8 tokens, the lengths of
# tests/helpers.synthetic_corpus that the profile in ROADMAP.md used, so
# the numbers compare with it.  No sentence statistics of the paper's
# corpus are available.  On train-open-vocab the vocabulary-sized costs are
# paid per sentence and the LSTM work per token, so the share of training
# time that row-sparse gradients can save falls as sentences get longer
# (NOTES.md gives the measured split).
TRAIN_LEN = (4, 8)
# Sentences per training batch.  Every batch of train.tsv and dev.tsv holds
# each length of TRAIN_LEN equally often, so every batch has 120 tokens
# and the per-batch rate does not swing with how many short sentences a
# batch happened to draw.
TRAIN_BATCH = 20
DEV_SENTENCES = 40
EXTRA_VOCAB = 20_000
TAG_DOCS = 150
TAG_DOC_SENTENCES = 20
SMOTE_SCALE = 25  # paper class counts divided by this
SMOTE_WIDTH = 300

WORKLOADS = ("train-closed-vocab", "train-open-vocab", "tag-eval", "smote-balance")


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _words(rng: np.random.Generator, count: int, chars, taken: set[str]) -> list[str]:
    """``count`` distinct new words (not in ``taken``), which is updated.

    Lengths cycle through 2..6 by position, so a lexicon's length profile,
    and with it the char-BiLSTM work per token, is the same for every seed.
    """
    out = []
    while len(out) < count:
        length = 2 + len(out) % 5
        word = "".join(chars[int(i)] for i in rng.integers(len(chars), size=length))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


class Lexicon:
    """Per-class word lists; rank r is drawn with weight 1 / r**zipf."""

    def __init__(self, words: dict[str, list[str]], zipf: float = 0.0):
        self.words = words
        self.cdf = {}
        for label, items in words.items():
            cdf = np.cumsum(1.0 / np.arange(1, len(items) + 1) ** zipf)
            self.cdf[label] = cdf / cdf[-1]

    def draw(self, rng: np.random.Generator, label: str) -> str:
        cdf = self.cdf[label]
        return self.words[label][min(int(np.searchsorted(cdf, rng.random())), len(cdf) - 1)]


def _tags(rng: np.random.Generator, length: int) -> list[str]:
    """One IOB2 tag sequence; entity spans are one to three tokens long."""
    tags: list[str] = []
    while len(tags) < length:
        if len(tags) + 1 < length and rng.random() < ENTITY_START_PROB:
            etype = ENTITY_TYPES[int(rng.choice(3, p=ENTITY_WEIGHTS))]
            span = int(rng.integers(1, min(3, length - len(tags)) + 1))
            tags += ["B-" + etype] + ["I-" + etype] * (span - 1)
        else:
            tags.append("O")
    return tags


def _sentences(rng, lexicon: Lexicon, lengths):
    """IOB2 sentences of the given lengths, as lists of (surface, tag) pairs."""
    out = []
    for length in lengths:
        tags = _tags(rng, length)
        out.append([(lexicon.draw(rng, tag[2:] or "O"), tag) for tag in tags])
    return out


def _random_lengths(rng, count: int, min_len: int, max_len: int):
    # drawn lazily, one before each sentence's tags and words
    return (int(rng.integers(min_len, max_len + 1)) for _ in range(count))


def _batch_lengths(rng, count: int) -> list[int]:
    """Lengths where each TRAIN_BATCH block holds every TRAIN_LEN length equally often."""
    lengths = np.arange(TRAIN_LEN[0], TRAIN_LEN[1] + 1)
    profile = np.repeat(lengths, TRAIN_BATCH // len(lengths))
    return [int(n) for _ in range(count // TRAIN_BATCH) for n in rng.permutation(profile)]


def _write_corpus(path: Path, sentences) -> None:
    text = "".join(
        "".join(f"{surface}\t{tag}\n" for surface, tag in sentence) + "\n"
        for sentence in sentences
    )
    path.write_text(text, encoding="utf-8")


def _value_table() -> np.ndarray:
    # decimal renderings of k/1000 for k in -999..999; rows are drawn as
    # indices into this table, so formatting millions of values stays cheap
    return np.array([f"{k / 1000:.3f}" for k in range(-999, 1000)])


def _training_lexicon(rng) -> Lexicon:
    taken: set[str] = set()
    words = {etype: _words(rng, 40, COMMON_CHARS, taken) for etype in ENTITY_TYPES}
    words["O"] = _words(rng, 150, COMMON_CHARS, taken)
    return Lexicon(words)


def gen_train(seed: int, out: Path, open_vocab: bool) -> None:
    """train.tsv and dev.tsv; with ``open_vocab`` also heldout.tsv and vectors.txt.

    The training corpus has a closed 270-word vocabulary.  The open-vocab
    variant adds a held-out split whose 20,000 word types become the
    model's extra vocabulary, and a vector file covering every word.
    """
    workload = "train-open-vocab" if open_vocab else "train-closed-vocab"
    rng = _rng(seed, workload)
    lexicon = _training_lexicon(rng)
    _write_corpus(out / "train.tsv", _sentences(rng, lexicon, _batch_lengths(rng, TRAIN_SENTENCES)))
    if not open_vocab:
        _write_corpus(out / "dev.tsv", _sentences(rng, lexicon, _batch_lengths(rng, DEV_SENTENCES)))
        return

    taken = {w for items in lexicon.words.values() for w in items}
    fresh = _words(rng, EXTRA_VOCAB, COMMON_CHARS, taken)
    # each held-out word type occurs exactly once; ~11% of them are entities
    heldout, cursor = [], 0
    while cursor < len(fresh):
        length = int(rng.integers(TRAIN_LEN[0], TRAIN_LEN[1] + 1))
        tags = _tags(rng, min(length, len(fresh) - cursor))
        heldout.append(list(zip(fresh[cursor : cursor + len(tags)], tags)))
        cursor += len(tags)
    _write_corpus(out / "heldout.tsv", heldout)

    vocab = sorted(taken)
    table = _value_table()
    with open(out / "vectors.txt", "w", encoding="utf-8") as handle:
        handle.write(f"{len(vocab)} {WORD_DIM}\n")
        for word in vocab:
            row = table[rng.integers(len(table), size=WORD_DIM)]
            handle.write(word + " " + " ".join(row) + "\n")


def gen_tag_eval(seed: int, out: Path) -> None:
    """train.tsv (the model's vocabulary) and doc_NNN.tsv documents to tag.

    Documents draw words from Zipfian lexicons (exponent 1), so frequent
    types repeat within a document.  The model vocabulary holds only the
    top 40% of each lexicon by rank; the rest are out-of-vocabulary, and
    a tenth of the filler types use syllables the model never saw.
    """
    rng = _rng(seed, "tag-eval")
    taken: set[str] = set()
    words = {etype: _words(rng, 300, COMMON_CHARS, taken) for etype in ENTITY_TYPES}
    common = _words(rng, 2700, COMMON_CHARS, taken)
    rare = _words(rng, 300, RARE_CHARS, taken)
    known = int(0.4 * 3000)
    # rare-script words land in the tail, never among the known top ranks
    tail = common[known:] + rare
    words["O"] = common[:known] + [tail[int(i)] for i in rng.permutation(len(tail))]
    full = Lexicon(words, zipf=1.0)
    seen = Lexicon({label: items[: int(0.4 * len(items))] for label, items in words.items()}, zipf=1.0)

    _write_corpus(out / "train.tsv", _sentences(rng, seen, _random_lengths(rng, 600, 4, 12)))
    for doc in range(TAG_DOCS):
        lengths = _random_lengths(rng, TAG_DOC_SENTENCES, 8, 30)
        _write_corpus(out / f"doc_{doc:03d}.tsv", _sentences(rng, full, lengths))


def gen_smote(seed: int, out: Path) -> None:
    """rows.tsv: width-300 labeled rows at the paper's class ratio / 25.

    Each class is a Gaussian cluster around its own centre, so nearest
    neighbours are not degenerate.
    """
    rng = _rng(seed, "smote-balance")
    table = _value_table()
    lines = [str(SMOTE_WIDTH)]
    labels = []
    for label, count in PAPER_COUNTS.items():
        labels += [label] * (count // SMOTE_SCALE)
    labels = [labels[i] for i in rng.permutation(len(labels))]
    centres = {label: rng.integers(300, 1700, size=SMOTE_WIDTH) for label in PAPER_COUNTS}
    for label in labels:
        idx = np.clip(centres[label] + rng.integers(-300, 301, size=SMOTE_WIDTH), 0, len(table) - 1)
        lines.append(label + "\t" + " ".join(table[idx]))
    (out / "rows.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> None:
    if workload == "train-closed-vocab":
        gen_train(seed, out, open_vocab=False)
    elif workload == "train-open-vocab":
        gen_train(seed, out, open_vocab=True)
    elif workload == "tag-eval":
        gen_tag_eval(seed, out)
    elif workload == "smote-balance":
        gen_smote(seed, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")
