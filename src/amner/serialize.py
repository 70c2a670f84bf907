"""Single-file tagger serialization with a bit-exact round trip.

Layout: a UTF-8 text header, then raw tensor data.

    amner-model 1
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

Two kinds of tensor are stored in a layout other than the one the
model, training and ``gradcheck`` use; these file layouts exist only
here:

* each BiLSTM ``X`` as 30 per-gate tensors: ``X_fwd.w_fx`` ..
  ``X_fwd.b_o`` (see ``_GATE_NAMES``), the row blocks of direction 0 of
  its four stacked tensors, followed by the same blocks of direction 1
  as ``X_bwd.w_fx`` .. ``X_bwd.b_o``;
* each embedding table, (V + 1, D) in memory with the unknown token's
  row last, as ``X.matrix`` (V, D) followed by ``X.unk`` (D,).

Writing splits the in-memory tensors into these pieces and reading joins
them again.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .crf import CrfParams
from .model import BiLstmParams, EmbeddingTable, EncoderParams, ModelParams

MAGIC = "amner-model 1"
_BLOB_MARKER = b"\n[blob]\n"

# the file names of an LSTM's gate blocks, per stacked tensor, in gate order
_GATE_NAMES = {
    "w_x": ("w_fx", "w_ix", "w_cx", "w_ox"),
    "w_h": ("w_fh", "w_ih", "w_ch", "w_oh"),
    "p": ("p_f", "p_i", "p_o"),
    "b": ("b_f", "b_i", "b_c", "b_o"),
}
# the file prefixes of a BiLSTM's directions, in the order of its direction axis
_DIRECTIONS = ("fwd", "bwd")


class ModelFormatError(ValueError):
    pass


def _gate_blocks(prefix: str, tensors: dict[str, np.ndarray]):
    """(file name, block) of every gate block of BiLSTM ``prefix``: the
    forward direction's, then the reverse direction's, each in the order
    of ``_GATE_NAMES``."""
    for direction, file_prefix in enumerate(_DIRECTIONS):
        for field, gates in _GATE_NAMES.items():
            stacked = tensors[f"{prefix}.{field}"][direction]
            # p holds one row per gate; the other stacks hold H-row blocks
            blocks = stacked if field == "p" else np.split(stacked, len(gates))
            for gate, block in zip(gates, blocks):
                yield f"{prefix}_{file_prefix}.{gate}", block


def file_tensors(model: ModelParams) -> dict[str, np.ndarray]:
    """``model.tensors()`` under the file's names, in file order: each
    BiLSTM's four stacked tensors are replaced by its gate blocks and
    each embedding table by its vocabulary rows and unknown row."""
    tensors = model.tensors()
    out: dict[str, np.ndarray] = {}
    for name, array in tensors.items():
        prefix, _, field = name.rpartition(".")
        if field == "matrix":
            out[name], out[f"{prefix}.unk"] = array[:-1], array[-1]
        elif field == "w_x":  # a BiLSTM's first tensor stands for all four
            out.update(_gate_blocks(prefix, tensors))
        elif field not in _GATE_NAMES:
            out[name] = array
    return out


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

    tensors = file_tensors(model)
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
        if len(parts) < 2 or not all(p.isdecimal() for p in parts[1:]):
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
    if reader.next_line() != MAGIC:
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

    def table(prefix: str, tokens: list[str]) -> EmbeddingTable:  # joining copies the rows
        rows = tensors.pop(f"{prefix}.matrix"), tensors.pop(f"{prefix}.unk")[None]
        vocab = {token: i for i, token in enumerate(tokens)}
        return EmbeddingTable(vocab, np.concatenate(rows, dtype=np.float64))

    def bilstm(prefix: str) -> BiLstmParams:  # stacking copies the gate blocks
        stacked = {}
        for field, gates in _GATE_NAMES.items():
            names = [f"{prefix}_{direction}.{gate}" for direction in _DIRECTIONS for gate in gates]
            blocks = np.stack([tensors.pop(name) for name in names], dtype=np.float64)
            # p holds one row per gate; the other stacks join H-row blocks
            stacked[field] = blocks.reshape(2, -1, *blocks.shape[1 if field == "p" else 2 :])
        return BiLstmParams(**stacked)

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
