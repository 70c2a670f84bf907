"""Single-file tagger serialization with a bit-exact round trip.

Layout: a UTF-8 text header, then raw tensor data.

    amner-model 2
    [config N]     N `key value` lines (run metadata, dropout_rate, masked_training)
    [tags N]       tag vocabulary, one per line, in model order
    [chars N]      character vocabulary in row order
    [words N]      word vocabulary in row order
    [tensors N]    `name offset dim0 dim1 ...` per tensor
    [blob]
    <little-endian float64, row-major, at the listed byte offsets>

Section headers carry entry counts, so vocabulary entries are read by
count and may contain any character except a line break.  Writing is
deterministic: identical models and config produce identical bytes.

``masked_training`` is ``ModelParams.masked_training``, written and read
as is.  No mask is stored: the IOB2 masks follow from the tag list, which
loading refuses unless it is an IOB2 tag set.

The tensor table lists ``ModelParams.tensors()``, the tensors training,
Adam and ``gradcheck`` use, under their names and in their order, each
with its in-memory shape: an embedding table is one (V + 1, D) matrix
whose last row is the unknown token's, a BiLSTM its four stacked tensors
(see :mod:`amner.model`).  Loading copies each into the model as is.
Format 1 stored each BiLSTM as per-gate blocks and each table's unknown
row apart; it is refused.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .crf import CrfParams
from .model import BiLstmParams, EmbeddingTable, EncoderParams, ModelParams

MAGIC = "amner-model 2"
_BLOB_MARKER = b"\n[blob]\n"


class ModelFormatError(ValueError):
    pass


def model_to_bytes(model: ModelParams, config: dict[str, str] | None = None) -> bytes:
    """Serialize; ``config`` records run metadata (seed included) verbatim.
    ``dropout_rate`` and ``masked_training`` are written from the model and
    taken out of the config that loading returns, so ``config`` may not
    hold them."""
    config = dict(config or {})
    for key in ("dropout_rate", "masked_training"):
        if key in config:
            raise ModelFormatError(f"config key {key!r} is written from the model")
    config["dropout_rate"] = repr(float(model.encoder.dropout_rate))
    config["masked_training"] = "true" if model.masked_training else "false"

    tensors = model.tensors()
    lines = [MAGIC, f"[config {len(config)}]"]
    for key, value in config.items():
        if any(c in key for c in " \n") or "\n" in str(value):
            raise ModelFormatError(f"bad config entry {key!r}")
        lines.append(f"{key} {value}")
    for section, entries in (
        ("tags", model.tags),
        ("chars", model.encoder.char_table.tokens()),
        ("words", model.encoder.word_table.tokens()),
    ):
        lines.append(f"[{section} {len(entries)}]")
        for entry in entries:
            if "\n" in entry or "\r" in entry:
                raise ModelFormatError(f"{section} entry contains a line break")
            lines.append(entry)

    lines.append(f"[tensors {len(tensors)}]")
    # byte views, not copies: the join below is the one copy of the data
    blobs = [np.ascontiguousarray(a, dtype="<f8").reshape(-1).view(np.uint8) for a in tensors.values()]
    offsets = itertools.accumulate(map(len, blobs), initial=0)
    for (name, array), offset in zip(tensors.items(), offsets):
        lines.append(" ".join([name, str(offset), *map(str, array.shape)]))
    header = "\n".join(lines).encode("utf-8")
    return b"".join([header, _BLOB_MARKER, *blobs])


def save_model(path, model: ModelParams, config: dict[str, str] | None = None) -> None:
    with open(path, "wb") as handle:
        handle.write(model_to_bytes(model, config))


class _Reader:
    """Reads header lines off the front of a model file; ``pos`` is the
    byte offset just past the last line read."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def next_line(self) -> str:
        end = self.data.find(b"\n", self.pos)
        if end < 0:
            raise ModelFormatError("truncated header")
        raw = self.data[self.pos : end]
        self.pos = end + 1
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"header is not UTF-8: {exc}") from exc

    def section(self, name: str) -> list[str]:
        header = self.next_line()
        parts = header.strip("[]").split()
        if len(parts) != 2 or parts[0] != name or not parts[1].isdecimal():
            raise ModelFormatError(f"expected [{name} N] section, got {header!r}")
        return [self.next_line() for _ in range(int(parts[1]))]


def _read_tensors(tensor_lines: list[str], blob: memoryview) -> dict[str, np.ndarray]:
    """Read-only views of each tensor in the blob, after checking that every
    name appears once and the tensors tile the blob with no bytes left over."""
    entries = []
    for line in tensor_lines:
        parts = line.split()
        # every model tensor has at least one dimension
        if len(parts) < 3 or not all(p.isdecimal() for p in parts[1:]):
            raise ModelFormatError(f"bad tensor line {line!r}")
        entries.append((int(parts[1]), parts[0], tuple(int(d) for d in parts[2:])))
    tensors: dict[str, np.ndarray] = {}
    end = 0
    for offset, name, shape in sorted(entries):
        size = 8 * math.prod(shape)
        if name in tensors:
            raise ModelFormatError(f"tensor {name} is listed twice")
        if offset + size > len(blob):
            raise ModelFormatError(f"tensor {name} extends past the end of the file")
        if offset != end:
            raise ModelFormatError(f"tensor {name} starts at blob byte {offset}, expected {end}")
        tensors[name] = np.frombuffer(blob[offset : offset + size], dtype="<f8").reshape(shape)
        end = offset + size
    if end != len(blob):
        raise ModelFormatError(f"{len(blob) - end} trailing bytes after the last tensor")
    return tensors


def model_from_bytes(data: bytes) -> tuple[ModelParams, dict[str, str]]:
    if _BLOB_MARKER not in data:
        raise ModelFormatError("missing blob marker; not a model file")
    reader = _Reader(data)
    magic = reader.next_line()
    if magic == "amner-model 1":
        raise ModelFormatError("model file format 1 is no longer read; retrain the model")
    if magic != MAGIC:
        raise ModelFormatError("unknown magic line; not a model file")
    config = dict(line.partition(" ")[::2] for line in reader.section("config"))
    tags = reader.section("tags")
    chars = reader.section("chars")
    words = reader.section("words")
    tensor_lines = reader.section("tensors")
    # the blob starts after the counted sections; a vocabulary entry may
    # itself read "[blob]"
    if reader.next_line() != "[blob]":
        raise ModelFormatError("missing blob marker after the tensor table")
    tensors = _read_tensors(tensor_lines, memoryview(data)[reader.pos :])
    try:
        dropout = float(config.pop("dropout_rate", "0.0"))
    except ValueError:
        raise ModelFormatError("bad dropout_rate in config") from None

    def take(name: str) -> np.ndarray:  # a writable copy of the read-only blob view
        return tensors.pop(name).astype(np.float64)

    def table(prefix: str, tokens: list[str]) -> EmbeddingTable:
        return EmbeddingTable({token: i for i, token in enumerate(tokens)}, take(f"{prefix}.matrix"))

    def bilstm(prefix: str) -> BiLstmParams:
        return BiLstmParams(**{field: take(f"{prefix}.{field}") for field in ("w_x", "w_h", "p", "b")})

    # the constructors check each shape against the vocabularies, tags and other
    # tensors, and that the tags form an IOB2 tag set
    try:
        encoder = EncoderParams(
            char_table=table("char_table", chars),
            char_bilstm=bilstm("char"),
            word_table=table("word_table", words),
            word_bilstm=bilstm("word"),
            proj_w=take("proj.weight"),
            proj_b=take("proj.bias"),
            dropout_rate=dropout,
        )
        crf = CrfParams(take("crf.transitions"), take("crf.start"), take("crf.end"))
        model = ModelParams(tags, encoder, crf, config.pop("masked_training", "false") == "true")
    except KeyError as exc:
        raise ModelFormatError(f"missing tensor {exc.args[0]}") from None
    except ValueError as exc:
        raise ModelFormatError(f"inconsistent model: {exc}") from exc
    if tensors:
        raise ModelFormatError(f"unexpected tensors: {', '.join(sorted(tensors))}")
    return model, config


def load_model(path) -> tuple[ModelParams, dict[str, str]]:
    with open(path, "rb") as handle:
        return model_from_bytes(handle.read())
