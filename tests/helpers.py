"""Shared test utilities: deterministic synthetic IOB2 corpora, number
fields for the parsers of the text vector and feature-row files,
malformed variants of a valid input file, vector files and traced peaks."""

import tracemalloc

import numpy as np
from hypothesis import strategies as st

from amner.corpus import Sentence, Tag, Token

ENTITY_TYPES = ("PER", "LOC", "ORG")


def synthetic_corpus(
    n_sentences: int,
    seed: int = 0,
    entity_words_per_type: int = 8,
    filler_words: int = 26,
    min_len: int = 4,
    max_len: int = 9,
) -> list[Sentence]:
    """Random IOB2 sentences over a small closed vocabulary.

    Entity tokens are drawn from per-type word lists and fillers from a
    separate list, so token identity carries the tag signal and a
    correct model can memorize the corpus.  Vocabulary size is
    3 * entity_words_per_type + filler_words; the tagset has 7 tags.
    """
    rng = np.random.default_rng(seed)
    entity_vocab = {
        etype: [f"{etype.lower()}{i}" for i in range(entity_words_per_type)]
        for etype in ENTITY_TYPES
    }
    fillers = [f"w{i}" for i in range(filler_words)]

    sentences = []
    for _ in range(n_sentences):
        length = int(rng.integers(min_len, max_len))
        tokens = []
        position = 0
        while position < length:
            if position + 1 < length and rng.random() < 0.35:
                etype = ENTITY_TYPES[int(rng.integers(len(ENTITY_TYPES)))]
                span_len = int(rng.integers(1, min(3, length - position) + 1))
                words = entity_vocab[etype]
                tokens.append(Token(words[int(rng.integers(len(words)))], Tag("B", etype)))
                for _ in range(span_len - 1):
                    tokens.append(Token(words[int(rng.integers(len(words)))], Tag("I", etype)))
                position += span_len
            else:
                tokens.append(Token(fillers[int(rng.integers(len(fillers)))], Tag("O")))
                position += 1
        sentences.append(Sentence(tuple(tokens)))
    return sentences


# Strings that Python's float() reads or rejects, for comparing a parser with it
NUMBER_FIELDS = st.one_of(
    st.floats().map(repr),
    st.sampled_from([
        "nan", "-nan", "NaN", "inf", "-Infinity", "1e400", "-1e400", "1_000", "1__0", "_1",
        "1_", "", "0x10", "\u0661\u0662", "1e5_0", "+.5", "5.", ".", "nan(1)", "1d5", "\t2",
        "2\u00a0", "1,5", "--1", "1e", "e1", "\x00",
    ]),
    st.text(alphabet="0123456789.eE+-_naifINFx\u0661\t\u00a0", max_size=8),
)


def float_or_none(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def same_float(a: float, b: float) -> bool:
    """Equal, or both NaN."""
    return a == b or (a != a and b != b)


@st.composite
def malformed(draw, valid: bytes):
    """Arbitrary bytes, or the valid file with bytes replaced, inserted or cut."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        piece = draw(st.sampled_from([b"", b"\t", b"\n", b"\r", b" ", b"#", b"-", b"0", b"9e999",
                                      b"\xff", "ሀ".encode(), b"nan", b"[", b"B-"]))
        cut = draw(st.integers(0, 3))
        data[pos : pos + cut] = piece
    return bytes(data)


def vector_file(rows: int, dim: int, seed: int = 0) -> bytes:
    """A `V D` vector file of ``rows`` tokens w0, w1, ..., each value
    written as repr() writes a normal draw."""
    values = np.random.default_rng(seed).normal(size=(rows, dim)).tolist()
    body = "".join(f"w{i} " + " ".join(map(repr, row)) + "\n" for i, row in enumerate(values))
    return f"{rows} {dim}\n{body}".encode()


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
