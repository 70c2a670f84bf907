"""SMOTE oversampling for labeled fixed-width feature rows.

Synthetic minority samples are drawn on the line segment between a
minority row and one of its k nearest minority neighbors.  All
randomness comes from a single seeded generator consumed in a fixed
order (sub-sample selection if the amount is below 100%, then per source
row: neighbor index, then gap), so equal seeds give identical output
including provenance.

The per-row draws are read in one array pass from the raw 64-bit words of
numpy's PCG64 stream, under the rules below by which ``Generator`` reads
them.  A call in which any pick is rejected, at a chance below
rows * k / 2**32, is drawn again with the generator's own calls instead:

- ``integers(k)``, for 2 <= k <= 2**32, reads one 32-bit draw u and returns
  ``(u * k) >> 32`` (Lemire 2019, arXiv:1805.10941).  It draws again while
  ``(u * k) mod 2**32 < (2**32 - k) mod k``, which happens with probability
  below k / 2**32.  ``integers(1)`` draws nothing and returns 0.
- A 32-bit draw returns the low half of a fresh 64-bit word and keeps the
  high half for the next 32-bit draw; ``state["has_uint32"]`` and
  ``state["uinteger"]`` hold the kept half, which a permutation can leave.
- ``random()`` reads a fresh 64-bit word w, leaving any kept half, and
  returns ``(w >> 11) * 2**-53``.  With no kept half, two rows read three
  words.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .corpus import FormatError, text_lines

MATCH_MAJORITY = "match-majority"


@dataclass(frozen=True)
class FeatureRow:
    """Fixed-width numeric vector plus its class label."""

    values: np.ndarray
    label: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"feature row must be 1-D, got shape {values.shape}")
        _check_rows(np.isfinite(values).all(), (self.label,))
        object.__setattr__(self, "values", values)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, labels: Sequence[str]) -> list[FeatureRow]:
        """One row per row of the 2-D ``matrix``, each ``values`` a view of it.

        The matrix is checked once, with the messages a row raises, so
        building the rows costs no per-row validation.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"feature row matrix must be 2-D, got shape {matrix.shape}")
        if len(labels) != len(matrix):
            raise ValueError(f"{len(labels)} labels for {len(matrix)} feature rows")
        finite = not matrix.size or np.isfinite(matrix.min()) and np.isfinite(matrix.max())
        _check_rows(finite, labels)
        new = object.__new__
        rows = []
        for values, label in zip(matrix, labels):
            row = new(cls)  # no __post_init__: the matrix is checked above
            vars(row).update(values=values, label=label)
            rows.append(row)
        return rows

    @property
    def width(self) -> int:
        return self.values.shape[0]


def _check_rows(finite: bool, labels: Sequence[str]) -> None:
    """The checks every feature row passes: finite values and a non-empty label."""
    if not finite:
        raise ValueError("feature row contains non-finite values")
    if not all(labels):
        raise ValueError("feature row needs a label")


@dataclass(frozen=True)
class SmoteConfig:
    n_percent: int
    k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_percent <= 0:
            raise ValueError("n_percent must be positive")
        if self.n_percent >= 100 and self.n_percent % 100:
            raise ValueError(f"n_percent {self.n_percent} is over 100 but not a multiple of 100")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class Provenance:
    """Which source row, neighbor and gap produced a synthetic row."""

    source: int
    neighbor: int
    gap: float


@dataclass
class SyntheticSet:
    rows: list[FeatureRow] = field(default_factory=list)
    provenance: list[Provenance] = field(default_factory=list)


# elements per temporary of the blocked kNN and of the interpolation
_BLOCK_ELEMENTS = 1 << 18


def _as_matrix(samples: Sequence[FeatureRow]) -> np.ndarray:
    widths = {row.width for row in samples}
    if len(widths) > 1:
        raise ValueError(f"feature rows have mixed widths {sorted(widths)}")
    return np.stack([row.values for row in samples])


def knn_minority(matrix: np.ndarray, k: int) -> np.ndarray:
    """The k nearest rows of ``matrix`` (T, D) to each row, self excluded, as (T, k).

    Distance is Euclidean; ties break toward the lower index.  A blocked
    GEMM bounds every squared distance: ``|a|^2 + |b|^2 - 2 a.b`` lies within
    ``4 (D + 4) u (|a|^2 + |b|^2)`` (u the unit roundoff), plus as many
    smallest subnormals for underflowed products, of the sum over
    ``(a - b)^2`` that ranks the rows.  Only the rows whose lower bound can
    reach the k-th smallest upper bound are ranked, by that sum and a stable
    sort, so the result is the full per-row search's.  A NaN or overflowed
    bound keeps its row a candidate.
    """
    count, width = matrix.shape
    if k >= count:
        raise ValueError(f"k={k} must be smaller than the sample count {count}")
    sq_norm = np.einsum("ij,ij->i", matrix, matrix)
    rounding = 4 * (width + 4) * np.finfo(np.float64).eps / 2
    underflow = 4 * (width + 4) * np.finfo(np.float64).smallest_subnormal
    out = np.empty((count, k), dtype=np.intp)
    block = max(1, _BLOCK_ELEMENTS // count)
    pair_step = max(1, _BLOCK_ELEMENTS // max(1, width))
    for start in range(0, count, block):
        stop = min(start + block, count)
        diagonal = (np.arange(stop - start), np.arange(start, stop))
        with np.errstate(over="ignore", invalid="ignore"):
            upper = -2.0 * (matrix[start:stop] @ matrix.T)
            slack = sq_norm[start:stop, None] + sq_norm
            upper += slack
            slack *= rounding
            slack += underflow
            lower = upper - slack
            upper += slack
            upper[upper == -np.inf] = np.inf  # only an overflowed a.b gives -inf
            upper[diagonal] = np.inf
            cut = np.partition(upper, k - 1, axis=1)[:, k - 1, None]
            candidates = ~(lower > cut)
            candidates[diagonal] = False
            rows, near = np.nonzero(candidates)  # every row holds at least k candidates
            dist = np.empty(len(rows))
            for part in range(0, len(rows), pair_step):  # at most _BLOCK_ELEMENTS differences
                pairs = slice(part, part + pair_step)
                diffs = matrix[near[pairs]]
                diffs -= matrix[rows[pairs] + start]
                dist[pairs] = np.einsum("ij,ij->i", diffs, diffs)
        order = np.lexsort((dist, rows))  # by row, then distance, then index: stable
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        out[start:stop] = near[order[first[:, None] + np.arange(k)]]
    return out


def _draw_picks_and_gaps(
    rng: np.random.Generator, k: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` rounds of ``(rng.integers(k), rng.random())``, as two arrays.

    Reads the rounds' 64-bit words in one ``random_raw`` call and applies the
    stream rules of the module docstring, which hold for k up to 2**32, then
    sets the kept half the calls would leave.  If any pick is rejected, the
    generator is put back and every round is drawn with its own calls.
    """
    bits = rng.bit_generator
    state = bits.state
    kept = state["has_uint32"]
    rounds = np.arange(count)
    # a fresh round's pick reads a new word; the others take the kept half
    fresh = (rounds + kept) % 2 == 0 if k > 1 else np.zeros(count, dtype=bool)
    gap_word = rounds + np.cumsum(fresh)  # the pick word, if any, precedes the gap word
    words = bits.random_raw(count + np.count_nonzero(fresh))
    gap = (words[gap_word] >> 11) * 2.0**-53
    pick_words = words[gap_word[fresh] - 1]
    halves = np.stack([pick_words & 0xFFFFFFFF, pick_words >> 32], axis=1).ravel()
    halves = np.concatenate([np.full(kept, state["uinteger"], dtype=np.uint64), halves])
    pick, used = np.zeros(count, dtype=np.int64), 0
    if k > 1:
        wide = halves[:count] * np.uint64(k)
        if ((wide & 0xFFFFFFFF) < (2**32 - k) % k).any():
            bits.state = state
            for n in range(count):
                pick[n], gap[n] = rng.integers(k), rng.random()
            return pick, gap
        pick[:], used = wide >> 32, count
    state = bits.state
    state["has_uint32"] = int(len(halves) > used)
    state["uinteger"] = int(halves[-1]) if len(halves) else state["uinteger"]
    bits.state = state
    return pick, gap


def populate_synthetic(
    matrix: np.ndarray, source: np.ndarray, neighbor: np.ndarray, gap: np.ndarray
) -> np.ndarray:
    """Rows ``matrix[source] + gap * (matrix[neighbor] - matrix[source])``, one per gap.

    Every index must lie in [0, T) for the T rows of ``matrix``.
    """
    if not len(source) == len(neighbor) == len(gap):
        raise ValueError(f"lengths differ: {len(source)}, {len(neighbor)}, {len(gap)}")
    outside = ~((gap >= 0.0) & (gap < 1.0))
    if outside.any():
        raise ValueError(f"gap {gap[outside][0]} outside [0, 1)")
    for index in (source, neighbor):
        if len(index) and not (0 <= index.min() and index.max() < len(matrix)):
            raise ValueError(f"row index outside [0, {len(matrix)})")
    matrix = np.asarray(matrix, dtype=np.float64)
    out = np.empty((len(gap), matrix.shape[1]))
    step = max(1, _BLOCK_ELEMENTS // max(1, matrix.shape[1]))
    # an overflowed row comes out non-finite, which the caller refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(gap), step):
            part = slice(start, start + step)
            base = out[part]
            # the float operations of base + gap * (neighbour - base), without temporaries;
            # mode="clip" skips the buffered copy mode="raise" makes, the indices being checked
            np.take(matrix, source[part], axis=0, out=base, mode="clip")
            scratch = matrix[neighbor[part]]
            scratch -= base
            scratch *= gap[part, None]
            base += scratch
    return out


def smote(minority: Sequence[FeatureRow], config: SmoteConfig) -> SyntheticSet:
    """Generate floor(N/100) * T synthetic rows from T minority rows.

    If the requested amount N is below 100%, a uniform random subset of
    floor(N * T / 100) rows is oversampled once each instead.  Neighbor
    indices in the provenance refer to positions in ``minority``.
    """
    if not minority:
        raise ValueError("minority sample set is empty")
    labels = {row.label for row in minority}
    if len(labels) > 1:
        raise ValueError(f"minority rows carry mixed labels {sorted(labels)}")
    matrix = _as_matrix(minority)  # checks the widths up front

    rng = np.random.default_rng(config.seed)
    n_percent = config.n_percent
    selected = np.arange(len(minority))
    if n_percent < 100:
        keep = n_percent * len(minority) // 100
        if keep < 1:
            raise ValueError(f"n_percent={n_percent} selects no rows from T={len(minority)}")
        selected = rng.permutation(len(minority))[:keep]
        matrix = matrix[selected]
        n_percent = 100

    per_sample = n_percent // 100
    neighbors = knn_minority(matrix, config.k)
    source = np.repeat(np.arange(len(selected)), per_sample)
    pick, gap = _draw_picks_and_gaps(rng, config.k, len(source))
    neighbor = neighbors[source, pick]
    values = populate_synthetic(matrix, source, neighbor, gap)
    source, neighbor = selected[source].tolist(), selected[neighbor].tolist()
    return SyntheticSet(
        rows=FeatureRow.from_matrix(values, [minority[0].label] * len(values)),
        provenance=[Provenance(s, n, g) for s, n, g in zip(source, neighbor, gap.tolist())],
    )


def class_counts(rows: Sequence[FeatureRow]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in rows:
        counts[row.label] = counts.get(row.label, 0) + 1
    return dict(sorted(counts.items()))


def balance_token_dataset(
    rows: Sequence[FeatureRow],
    target: int | str,
    config: SmoteConfig,
) -> list[FeatureRow]:
    """Bring every class to exactly ``target`` rows.

    ``target`` is a count or ``"match-majority"``.  Classes below the
    target are oversampled with the smallest SMOTE amount (a multiple of
    100%) that reaches it, then truncated uniformly; classes above it
    are uniformly under-sampled.  The result is shuffled, all driven by
    ``config.seed``.
    """
    if not rows:
        raise ValueError("dataset is empty")
    counts = class_counts(rows)
    if target == MATCH_MAJORITY:
        goal = max(counts.values())
    else:
        goal = int(target)
        if goal < 1:
            raise ValueError(f"target must be positive, got {goal}")

    for label, count in counts.items():
        if count < goal and count < config.k + 1:
            raise ValueError(
                f"class {label!r} has {count} rows; expanding it with k={config.k} "
                f"needs at least {config.k + 1}"
            )

    rng = np.random.default_rng(config.seed)
    seeds = np.random.SeedSequence(config.seed).spawn(len(counts))
    out: list[FeatureRow] = []
    for class_idx, (label, count) in enumerate(counts.items()):
        members = [row for row in rows if row.label == label]
        if count > goal:
            chosen = rng.choice(count, size=goal, replace=False)
            out.extend(members[idx] for idx in np.sort(chosen).tolist())
            continue
        out.extend(members)
        deficit = goal - count
        if deficit == 0:
            continue
        n_percent = 100 * -(-deficit // count)  # smallest multiple of 100 covering the deficit
        class_seed = int(seeds[class_idx].generate_state(1)[0])
        synthetic = smote(members, replace(config, n_percent=n_percent, seed=class_seed))
        keep = rng.choice(len(synthetic.rows), size=deficit, replace=False)
        out.extend(synthetic.rows[idx] for idx in np.sort(keep).tolist())

    order = rng.permutation(len(out))
    return [out[idx] for idx in order.tolist()]


# ---------------------------------------------------------------------------
# Feature-row file format: header line with the attribute count, then
# one `label<TAB>v1 v2 ... vn` line per row.


def write_feature_rows(rows: Sequence[FeatureRow]) -> str:
    """Render rows in the file format; inverse of parse_feature_rows.

    Rows narrower than 1 value, which the reader refuses, and labels
    starting with ``#`` (re-read as comments) or holding a tab or a line
    break are rejected.
    """
    if not rows:
        raise ValueError("nothing to write: no feature rows")
    width = rows[0].width
    if width < 1:
        raise ValueError(f"attribute count must be at least 1, got {width}")
    lines = [str(width)]
    for idx, row in enumerate(rows):
        if row.width != width:
            raise ValueError(f"row width {row.width} != declared {width}")
        if row.label.startswith("#") or any(c in row.label for c in "\t\r\n"):
            raise ValueError(
                f"row {idx}: label {row.label!r} starts with '#' or holds a tab or line break"
            )
        lines.append(row.label + "\t" + " ".join(map(repr, row.values.tolist())))
    return "\n".join(lines) + "\n"


def parse_feature_rows(text: str | bytes) -> list[FeatureRow]:
    """Read the feature-row format that write_feature_rows writes.

    The first line is the attribute count, at least 1; every other line
    is blank, a ``#`` comment or ``label<TAB>values``, with exactly that
    many values split on whitespace and read as ``float()`` reads them.
    UTF-8 text or bytes, LF or CRLF line ends.

    One bulk parse reads the values into one checked matrix, and the rows'
    values are views of it.  A file that parse refuses is read line by line:
    a malformed one raises FormatError naming its first bad line, and one
    that spells a value as only ``float()`` reads it (``1_0``) gives the
    same rows, each with its own array.
    """
    try:
        return _parse_matrix(text)
    except ValueError:  # the line reader decides, naming the first bad line
        return _parse_lines(text)


def _parse_matrix(text: str | bytes) -> list[FeatureRow]:
    """Every data line's values in one loadtxt call; ValueError where it refuses.

    loadtxt splits on the whitespace str.split() splits on and reads the
    ASCII spellings float() reads, to the same float.  It refuses the
    spellings only float() reads (``1_0``, non-ASCII digits) and skips
    blank lines, so those files go to the line reader.
    """
    lines = text_lines(text)
    width = _header_width(lines)
    labels: list[str] = []

    def values_texts():
        for _, label, values_text in _data_lines(lines):
            if not values_text or values_text.isspace():
                raise ValueError("no values")
            labels.append(label)
            yield values_text

    texts = values_texts()
    first = next(texts, None)  # loadtxt warns on no data
    if first is None:
        return []
    matrix = np.loadtxt(chain([first], texts), dtype=np.float64, comments=None, ndmin=2)
    if matrix.shape != (len(labels), width):
        raise ValueError(f"read shape {matrix.shape}, expected {(len(labels), width)}")
    return FeatureRow.from_matrix(matrix, labels)


def _parse_lines(text: str | bytes) -> list[FeatureRow]:
    """The reference reader: one line at a time, the first bad line raising."""
    lines = text_lines(text)
    width = _header_width(lines)
    rows: list[FeatureRow] = []
    for lineno, label, values_text in _data_lines(lines):
        parts = values_text.split()
        if len(parts) != width:
            raise FormatError(f"expected {width} values, got {len(parts)}", lineno)
        try:  # one call per line; numpy reads each string as float() does
            values = np.array(parts, dtype=np.float64)
        except ValueError:
            raise FormatError("non-numeric value", lineno) from None
        try:
            rows.append(FeatureRow(values, label))
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
    return rows


def _header_width(lines: Iterator[tuple[int, str]]) -> int:
    header = next(lines)[1].strip()
    try:
        width = int(header)
    except ValueError:
        raise FormatError(f"expected the attribute count, got {header!r}", 1) from None
    if width < 1:
        raise FormatError(f"attribute count must be at least 1, got {width}", 1)
    return width


def _data_lines(lines: Iterator[tuple[int, str]]) -> Iterator[tuple[int, str, str]]:
    """``(line number, label, values text)`` per line that is not blank or a comment."""
    for lineno, line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 2:
            raise FormatError("expected `label<TAB>values`", lineno)
        yield lineno, *columns
