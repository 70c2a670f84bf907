"""Tagged-corpus handling: parsing, validation, scheme conversion, stats.

Three annotation standards are supported; :func:`tag_violation` states
their legality rules and :func:`corpus_spans` their one span rule:

* ``stanford`` -- one entity-type tag per token, no boundary markers, so
  a ``B`` position is illegal and adjacent same-type entities are
  indistinguishable.
* ``iob1`` -- ``I-X`` marks entity tokens; ``B-X`` is legal only directly
  after ``I-X`` or ``B-X``, where an entity follows another of its type.
* ``iob2`` -- every entity opens with ``B-X``; ``I-X`` is legal only
  directly after ``B-X`` or ``I-X``.

In a legal sequence of any of them, a span opens at a ``B`` tag or at an
entity tag whose previous token is not an entity of the same type.

File format: UTF-8, one token per line as ``surface<TAB>tag``, a blank
line ends a sentence, lines starting with ``#`` are comments.  Stanford
tags are stored internally with an ``I`` position marker because the
format carries no boundary information.

Every text input of the toolkit (corpus, transliteration table, word
vectors, feature rows, training config) is read through
:func:`text_lines`, and a malformed one raises :class:`FormatError`,
which names the offending line where there is one.
"""

from __future__ import annotations

import codecs
import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

OUTSIDE = "O"


class TagScheme(enum.Enum):
    STANFORD = "stanford"
    IOB1 = "iob1"
    IOB2 = "iob2"

    @classmethod
    def from_name(cls, name: str) -> "TagScheme":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown tagging scheme {name!r}; expected one of "
                f"{[s.value for s in cls]}"
            ) from None


class FormatError(ValueError):
    """Malformed text input; carries the 1-based line number, if one applies."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_CHUNK = 1 << 20  # text_lines decodes and splits about this many bytes or characters at a time


def text_lines(data: str | bytes) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` pairs of UTF-8 text, 1-based, with the
    trailing carriage returns of each line removed.  Only ``\\n`` ends a
    line.  Bytes that are not UTF-8 raise :class:`FormatError` before the
    first line.

    The lines are those of ``data.split("\\n")``, decoded and split about
    ``_CHUNK`` bytes or characters at a time, so no whole decoded copy or
    whole list of lines is held.
    """
    if isinstance(data, bytes) and len(data) > _CHUNK:
        _check_utf8(data)
    lines = itertools.chain.from_iterable(_split(data))
    for lineno, line in enumerate(lines, start=1):
        yield lineno, line.rstrip("\r")


def _split(data: str | bytes) -> Iterator[list[str]]:
    """``data.split("\\n")`` in consecutive lists, each decoded from a piece
    of at most ``_CHUNK`` that ends at a newline, unless one line is longer.
    Input of one chunk or less is decoded whole."""
    newline = "\n" if isinstance(data, str) else b"\n"
    start = 0
    while len(data) - start > _CHUNK:
        cut = data.rfind(newline, start, start + _CHUNK)
        if cut < 0:
            cut = data.find(newline, start + _CHUNK)
            if cut < 0:
                break
        yield _decode(data[start:cut]).split("\n")
        start = cut + 1
    yield _decode(data[start:]).split("\n")


def _decode(data: str | bytes) -> str:
    try:
        return data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"invalid UTF-8: {exc}") from exc


def _check_utf8(data: bytes) -> None:
    """Raise the error ``_decode(data)`` would, decoding a chunk at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    for start in range(0, len(data), _CHUNK):
        chunk = data[start : start + _CHUNK]
        try:
            decoder.decode(chunk, final=start + _CHUNK >= len(data))
        except UnicodeDecodeError as exc:
            # exc.object is the bytes the decoder held back from earlier chunks, then chunk
            offset = start + len(chunk) - len(exc.object)
            whole = UnicodeDecodeError(
                "utf-8", data, exc.start + offset, exc.end + offset, exc.reason
            )
            raise FormatError(f"invalid UTF-8: {whole}") from whole


def all_finite(a: np.ndarray) -> bool:
    """True if ``a``, empty or not, holds no NaN or infinity.  min and max
    propagate NaN, and an infinity is one of them: two reductions, no copy."""
    return not a.size or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


@dataclass(frozen=True)
class Tag:
    """A position marker (B, I or O) plus an entity type for B/I."""

    position: str
    etype: str | None = None

    def __post_init__(self):
        if self.position not in ("B", "I", "O"):
            raise ValueError(f"bad tag position {self.position!r}")
        if self.position != "O":
            self.check_etype(self.etype)
        elif self.etype is not None:
            raise ValueError("O tag must not carry an entity type")

    @staticmethod
    def check_etype(etype: str) -> None:
        """The entity-type rule: non-empty, not ``O``, and holding no character
        for which ``str.isspace()`` is true (U+00A0 and U+3000 included), so
        ``PER`` and ``PER `` are never two types and a kv key stays one word."""
        if not etype or etype == OUTSIDE or any(c.isspace() for c in etype):
            raise ValueError(f"entity type {etype!r} must be non-empty, not {OUTSIDE!r}, "
                             "and hold no whitespace")


O_TAG = Tag("O")


@dataclass(frozen=True)
class Token:
    surface: str
    tag: Tag

    def __post_init__(self):
        if not self.surface:
            raise ValueError("token surface must be non-empty")
        if "\t" in self.surface or "\n" in self.surface or "\r" in self.surface:
            raise ValueError("token surface may not contain tabs or line breaks")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")
        object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def tags(self) -> tuple[Tag, ...]:
        return tuple(t.tag for t in self.tokens)

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(t.surface for t in self.tokens)


@dataclass(frozen=True, order=True)
class EntitySpan:
    """Half-open token range [start, end) carrying an entity type."""

    start: int
    end: int
    etype: str

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad span bounds ({self.start}, {self.end})")
        Tag.check_etype(self.etype)

    def overlaps(self, other: "EntitySpan") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class TagViolation:
    index: int
    message: str


def tag_to_str(tag: Tag, scheme: TagScheme) -> str:
    if tag.position == "O":
        return OUTSIDE
    if scheme is TagScheme.STANFORD:
        return tag.etype  # type: ignore[return-value]
    return f"{tag.position}-{tag.etype}"


def tag_from_str(text: str, scheme: TagScheme) -> Tag:
    if text == OUTSIDE:
        return O_TAG
    try:
        if scheme is TagScheme.STANFORD:
            return Tag("I", text)
        if len(text) > 2 and text[1] == "-" and text[0] in ("B", "I"):
            return Tag(text[0], text[2:])
    except ValueError as exc:
        raise ValueError(f"bad {scheme.value} tag {text!r}: {exc}") from None
    raise ValueError(f"bad {scheme.value} tag {text!r}; expected O, B-TYPE or I-TYPE")


def parse_corpus(text: str | bytes, scheme: TagScheme | None) -> list[Sentence]:
    """Parse ``surface<TAB>tag`` lines into sentences.

    A blank line ends the current sentence; ``#``-prefixed lines are
    comments.  With ``scheme`` None the input is untagged: a line is a
    surface, optionally followed by one ignored column, and every token
    is tagged O.  Raises :class:`FormatError` on malformed input.
    """
    allowed_columns = (1, 2) if scheme is None else (2,)
    tags: dict[str, Tag] = {}  # each distinct tag text is read once
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    for lineno, line in text_lines(text):
        if line.startswith("#"):
            continue
        if not line.strip():
            if tokens:
                sentences.append(Sentence(tuple(tokens)))
                tokens = []
            continue
        columns = line.split("\t")
        if len(columns) not in allowed_columns:
            raise FormatError(
                f"expected {' or '.join(map(str, allowed_columns))} tab-separated columns, "
                f"got {len(columns)}",
                lineno,
            )
        try:
            if scheme is not None and columns[1] not in tags:
                tags[columns[1]] = tag_from_str(columns[1], scheme)
            tokens.append(Token(columns[0], O_TAG if scheme is None else tags[columns[1]]))
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from exc
    if tokens:
        sentences.append(Sentence(tuple(tokens)))
    return sentences


def write_corpus(sentences: Sequence[Sentence], scheme: TagScheme) -> str:
    """Render sentences in the two-column format; inverse of parse_corpus.

    Every sentence must validate under ``scheme``.  Surfaces starting
    with ``#`` are rejected because they would be re-read as comments.
    """
    check_valid(sentences, scheme)
    pieces: list[str] = []
    for s_idx, sentence in enumerate(sentences):
        for t_idx, token in enumerate(sentence.tokens):
            if token.surface.startswith("#"):
                raise ValueError(
                    f"sentence {s_idx}, token {t_idx}: surface starts with '#', "
                    "which the format reserves for comments"
                )
            pieces.append(f"{token.surface}\t{tag_to_str(token.tag, scheme)}\n")
        pieces.append("\n")
    return "".join(pieces)


def tag_violation(prev: Tag, tag: Tag, scheme: TagScheme) -> str | None:
    """Why ``tag`` may not directly follow ``prev`` under ``scheme``, or None
    if it may; ``prev`` is :data:`O_TAG` before the first token."""
    if scheme is TagScheme.STANFORD:
        if tag.position == "B":
            return "B positions are not representable in the stanford scheme"
        return None
    # the position that only continues a same-type entity, and its other predecessor
    bound, other = ("I", "B") if scheme is TagScheme.IOB2 else ("B", "I")
    if tag.position != bound or prev.etype == tag.etype:
        return None
    return f"{bound}-{tag.etype} may only follow {other}-{tag.etype} or {bound}-{tag.etype}"


def validate_tags(sentence: Sentence, scheme: TagScheme) -> list[TagViolation]:
    """Every token that :func:`tag_violation` refuses; an empty list means valid."""
    violations: list[TagViolation] = []
    prev: Tag = O_TAG
    for idx, token in enumerate(sentence.tokens):
        tag = token.tag
        if tag.position != "O":  # an O never violates
            message = tag_violation(prev, tag, scheme)
            if message:
                violations.append(TagViolation(idx, message))
        prev = tag
    return violations


def corpus_violations(sentences: Sequence[Sentence], scheme: TagScheme) -> Iterator[str]:
    """Each violation, in order, as ``sentence i, token j: invalid under SCHEME: message``."""
    for s_idx, sentence in enumerate(sentences):
        for v in validate_tags(sentence, scheme):
            yield f"sentence {s_idx}, token {v.index}: invalid under {scheme.value}: {v.message}"


def check_valid(sentences: Sequence[Sentence], scheme: TagScheme) -> None:
    """Raise ValueError with the first of :func:`corpus_violations`, if any."""
    for violation in corpus_violations(sentences, scheme):
        raise ValueError(violation)


def corpus_spans(sentences: Sequence[Sentence], scheme: TagScheme) -> list[list[EntitySpan]]:
    """The maximal entity spans of each sentence of a valid corpus, sorted by start."""
    check_valid(sentences, scheme)
    out: list[list[EntitySpan]] = []
    for sentence in sentences:
        spans: list[EntitySpan] = []
        start, etype = 0, None
        # the O past the end closes the last span
        for idx, tag in enumerate((*sentence.tags, O_TAG)):
            if tag.position == "B" or tag.etype != etype:
                if etype is not None:
                    spans.append(EntitySpan(start, idx, etype))
                start, etype = idx, tag.etype
        out.append(spans)
    return out


def spans_to_tags(spans: Sequence[EntitySpan], length: int, scheme: TagScheme) -> list[Tag]:
    """Render disjoint spans as a per-token tag list of the given length."""
    ordered = sorted(spans)
    for span in ordered:
        if span.end > length:
            raise ValueError(f"span {span} exceeds sentence length {length}")
    for left, right in zip(ordered, ordered[1:]):
        if left.overlaps(right):
            raise ValueError(f"overlapping spans {left} and {right}")
    tags: list[Tag] = [O_TAG] * length
    prev_end: tuple[int, str] | None = None  # (end, etype) of the previous span
    for span in ordered:
        if scheme is TagScheme.IOB2:
            first = "B"
        elif scheme is TagScheme.IOB1:
            adjacent_same = prev_end == (span.start, span.etype)
            first = "B" if adjacent_same else "I"
        else:
            first = "I"
        tags[span.start] = Tag(first, span.etype)
        for idx in range(span.start + 1, span.end):
            tags[idx] = Tag("I", span.etype)
        prev_end = (span.end, span.etype)
    return tags


def _retag(sentence: Sentence, tags: Sequence[Tag]) -> Sentence:
    return Sentence(tuple(Token(tok.surface, tag) for tok, tag in zip(sentence.tokens, tags)))


def convert_scheme(
    sentences: Sequence[Sentence], from_scheme: TagScheme, to_scheme: TagScheme
) -> list[Sentence]:
    """Re-express a corpus in another scheme via span extraction.

    iob1 <-> iob2 is lossless.  stanford input merges adjacent same-type
    entities into one span (the boundary is not recoverable); converting
    into stanford likewise collapses adjacent same-type entities.
    """
    return [
        _retag(sentence, spans_to_tags(spans, len(sentence), to_scheme))
        for sentence, spans in zip(sentences, corpus_spans(sentences, from_scheme))
    ]


def count_adjacent_same_type(sentences: Sequence[Sentence], scheme: TagScheme) -> int:
    """Entity boundaries that a conversion into stanford would erase."""
    return sum(
        left.end == right.start and left.etype == right.etype
        for spans in corpus_spans(sentences, scheme)
        for left, right in zip(spans, spans[1:])
    )


def count_multi_token_runs(sentences: Sequence[Sentence]) -> int:
    """Stanford runs of >= 2 tokens, each emitted as a single entity.

    Any of these could in truth be several adjacent same-type entities;
    the stanford format cannot tell them apart.
    """
    return sum(
        span.end - span.start >= 2
        for spans in corpus_spans(sentences, TagScheme.STANFORD)
        for span in spans
    )


# ---------------------------------------------------------------------------
# Transliteration


@dataclass(frozen=True)
class TranslitTable:
    """Character-to-Latin mapping; many-to-one collapses variants."""

    mapping: dict[str, str]

    def __post_init__(self):
        for char, latin in self.mapping.items():
            self.check_entry(char, latin)

    @staticmethod
    def check_entry(char: str, latin: str) -> None:
        """The table rule: a key is one character, and its replacement is
        non-empty and holds no tab, CR or LF, the characters a token surface
        may not hold, so no mapped surface is dropped or split."""
        if len(char) != 1:
            raise ValueError(f"table key {char!r} is not a single character")
        if not latin or "\t" in latin or "\n" in latin or "\r" in latin:
            raise ValueError(f"replacement {latin!r} for {char!r} must be non-empty "
                             "and hold no tab or line break")


def load_translit_table(text: str | bytes) -> TranslitTable:
    """Parse a ``char<TAB>latin`` table; ``#`` comments and blanks allowed."""
    mapping: dict[str, str] = {}
    for lineno, line in text_lines(text):
        if not line.strip() or line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 2:
            raise FormatError(
                f"expected 2 tab-separated columns, got {len(columns)}", lineno
            )
        char, latin = columns
        try:
            TranslitTable.check_entry(char, latin)
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from exc
        if char in mapping and mapping[char] != latin:
            raise FormatError(f"conflicting duplicate entry for {char!r}", lineno)
        mapping[char] = latin
    return TranslitTable(mapping)


def transliterate_corpus(
    sentences: Sequence[Sentence], table: TranslitTable
) -> tuple[list[Sentence], int, int]:
    """Replace each mapped character of every token surface by its Latin
    string; returns (corpus, mapped, unmapped).

    Unmapped characters pass through unchanged; both kinds are counted
    so no character is ever silently dropped.
    """
    translation = str.maketrans(table.mapping)
    out = [
        Sentence(tuple(Token(t.surface.translate(translation), t.tag) for t in s.tokens))
        for s in sentences
    ]
    chars = "".join(t.surface for s in sentences for t in s.tokens)
    mapped = sum(map(table.mapping.__contains__, chars))
    return out, mapped, len(chars) - mapped


# ---------------------------------------------------------------------------
# Corpus statistics


@dataclass(frozen=True)
class CorpusStats:
    sentence_count: int
    total_tokens: int
    type_counts: dict[str, int]  # entity type -> token count (B and I alike)
    outside_count: int

    def percent(self, count: int) -> float:
        return 100.0 * count / self.total_tokens if self.total_tokens else 0.0


def corpus_stats(sentences: Sequence[Sentence], scheme: TagScheme) -> CorpusStats:
    """Per-type token counts over a valid corpus; a B/I token counts toward its type."""
    check_valid(sentences, scheme)
    type_counts: dict[str, int] = {}
    outside = 0
    total = 0
    for sentence in sentences:
        for token in sentence.tokens:
            total += 1
            if token.tag.position == "O":
                outside += 1
            else:
                etype = token.tag.etype
                type_counts[etype] = type_counts.get(etype, 0) + 1
    ordered = dict(sorted(type_counts.items()))
    return CorpusStats(len(sentences), total, ordered, outside)


def render_stats(stats: CorpusStats, fmt: str = "text") -> str:
    """Line-oriented report; ``kv`` gives machine-readable key/value pairs."""
    lines: list[str] = []
    if fmt == "kv":
        lines.append(f"sentences {stats.sentence_count}")
        lines.append(f"tokens.total {stats.total_tokens}")
        for etype, count in stats.type_counts.items():
            lines.append(f"tokens.{etype} {count}")
            lines.append(f"percent.{etype} {stats.percent(count):.2f}")
        lines.append(f"tokens.{OUTSIDE} {stats.outside_count}")
        lines.append(f"percent.{OUTSIDE} {stats.percent(stats.outside_count):.2f}")
    elif fmt == "text":
        lines.append(f"sentences: {stats.sentence_count}")
        lines.append(f"tokens:    {stats.total_tokens}")
        width = max([len(OUTSIDE)] + [len(t) for t in stats.type_counts])
        for etype, count in stats.type_counts.items():
            lines.append(f"  {etype:<{width}}  {count:>9,}  {stats.percent(count):6.2f}%")
        lines.append(
            f"  {OUTSIDE:<{width}}  {stats.outside_count:>9,}  "
            f"{stats.percent(stats.outside_count):6.2f}%"
        )
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"
