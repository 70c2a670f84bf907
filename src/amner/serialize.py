"""Single-file tagger serialization with a bit-exact round trip.

Layout: a UTF-8 text header, then raw tensor data.

    amner-model 1
    [config N]     N `key value` lines (effective config, seed, flags)
    [tags N]       tag vocabulary, one per line, in model order
    [chars N]      character vocabulary in row order
    [words N]      word vocabulary in row order
    [tensors N]    `name offset dim0 dim1 ...` per tensor
    [blob]
    <little-endian float64, row-major, at the listed byte offsets>

Section headers carry entry counts, so vocabulary entries are read by
count and may contain any character except a line break.  Writing is
deterministic: identical models and config produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .crf import CrfParams, build_iob2_mask
from .model import BiLstmParams, EmbeddingTable, EncoderParams, LstmParams, ModelParams

MAGIC = "amner-model 1"
_BLOB_MARKER = b"\n[blob]\n"


class ModelFormatError(ValueError):
    pass


def model_to_bytes(model: ModelParams, config: dict[str, str] | None = None) -> bytes:
    """Serialize; ``config`` records run metadata (seed included) verbatim."""
    config = dict(config or {})
    config.setdefault("dropout_rate", repr(float(model.encoder.dropout_rate)))
    config.setdefault("masked_training", "false")

    tensors = model.tensors()
    lines = [MAGIC]
    lines.append(f"[config {len(config)}]")
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
    offset = 0
    blobs = []
    for name, array in tensors.items():
        dims = " ".join(str(d) for d in array.shape)
        lines.append(f"{name} {offset} {dims}".rstrip())
        raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
        blobs.append(raw)
        offset += len(raw)
    header = "\n".join(lines).encode("utf-8")
    return header + _BLOB_MARKER + b"".join(blobs)


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
        if len(parts) != 2 or parts[0] != name:
            raise ModelFormatError(f"expected [{name} N] section, got {header!r}")
        count = int(parts[1])
        return [self.next_line() for _ in range(count)]


def _lstm_from(tensors: dict[str, np.ndarray], prefix: str) -> LstmParams:
    fields = {}
    for name in ("w_fx", "w_ix", "w_cx", "w_ox", "w_fh", "w_ih", "w_ch", "w_oh",
                 "p_f", "p_i", "p_o", "b_f", "b_i", "b_c", "b_o"):
        key = f"{prefix}.{name}"
        if key not in tensors:
            raise ModelFormatError(f"missing tensor {key}")
        fields[name] = tensors[key]
    return LstmParams(**fields)


def model_from_bytes(data: bytes) -> tuple[ModelParams, dict[str, str]]:
    if _BLOB_MARKER not in data:
        raise ModelFormatError("missing blob marker; not a model file")
    reader = _Reader(data)
    if reader.next_line() != MAGIC:
        raise ModelFormatError("unknown magic line; not a model file")
    config: dict[str, str] = {}
    for line in reader.section("config"):
        key, _, value = line.partition(" ")
        config[key] = value
    tags = reader.section("tags")
    chars = reader.section("chars")
    words = reader.section("words")
    tensor_lines = reader.section("tensors")
    # the blob starts after the counted sections; a vocabulary entry may
    # itself read "[blob]"
    if reader.next_line() != "[blob]":
        raise ModelFormatError("missing blob marker after the tensor table")
    blob = memoryview(data)[reader.pos :]

    tensors: dict[str, np.ndarray] = {}
    for line in tensor_lines:
        parts = line.split()
        if len(parts) < 2:
            raise ModelFormatError(f"bad tensor line {line!r}")
        name, offset = parts[0], int(parts[1])
        shape = tuple(int(d) for d in parts[2:])
        count = int(np.prod(shape)) if shape else 1
        raw = blob[offset : offset + 8 * count]
        if len(raw) != 8 * count:
            raise ModelFormatError(f"tensor {name} extends past the end of the file")
        tensors[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)

    try:
        dropout = float(config.get("dropout_rate", "0.0"))
    except ValueError:
        raise ModelFormatError("bad dropout_rate in config") from None
    encoder = EncoderParams(
        char_table=EmbeddingTable(
            {c: i for i, c in enumerate(chars)},
            tensors["char_table.matrix"], tensors["char_table.unk"],
        ),
        char_bilstm=BiLstmParams(_lstm_from(tensors, "char_fwd"), _lstm_from(tensors, "char_bwd")),
        word_table=EmbeddingTable(
            {w: i for i, w in enumerate(words)},
            tensors["word_table.matrix"], tensors["word_table.unk"],
        ),
        word_bilstm=BiLstmParams(_lstm_from(tensors, "word_fwd"), _lstm_from(tensors, "word_bwd")),
        proj_w=tensors["proj.weight"],
        proj_b=tensors["proj.bias"],
        dropout_rate=dropout,
    )
    crf = CrfParams(tensors["crf.transitions"], tensors["crf.start"], tensors["crf.end"])
    if config.get("masked_training", "false") == "true":
        crf = crf.with_masks(*build_iob2_mask(tags))
    return ModelParams(tags, encoder, crf), config


def load_model(path) -> tuple[ModelParams, dict[str, str]]:
    with open(path, "rb") as handle:
        return model_from_bytes(handle.read())
