"""SMOTE oversampling for labeled fixed-width feature rows.

Synthetic minority samples are drawn on the line segment between a
minority row and one of its k nearest minority neighbors.  All
randomness comes from a single seeded generator consumed in a fixed
order (sub-sample selection if the amount is below 100%, then per source
row: neighbor index, then gap), so equal seeds give identical output
including provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

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
        if not np.all(np.isfinite(values)):
            raise ValueError("feature row contains non-finite values")
        if not self.label:
            raise ValueError("feature row needs a label")
        object.__setattr__(self, "values", values)

    @property
    def width(self) -> int:
        return self.values.shape[0]


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


def _as_matrix(samples: Sequence[FeatureRow]) -> np.ndarray:
    widths = {row.width for row in samples}
    if len(widths) > 1:
        raise ValueError(f"feature rows have mixed widths {sorted(widths)}")
    return np.stack([row.values for row in samples])


def knn_minority(matrix: np.ndarray, i: int, k: int) -> list[int]:
    """Indices of the k nearest rows of ``matrix`` (T, D) to row i (self excluded).

    Distance is Euclidean; ties break toward the lower index.
    """
    if k >= len(matrix):
        raise ValueError(f"k={k} must be smaller than the sample count {len(matrix)}")
    diffs = matrix - matrix[i]
    sq_dist = np.einsum("ij,ij->i", diffs, diffs)
    order = np.argsort(sq_dist, kind="stable")
    return [int(idx) for idx in order if idx != i][:k]


def populate_synthetic(sample: FeatureRow, neighbor: FeatureRow, gap: float) -> FeatureRow:
    """Interpolate sample + gap * (neighbor - sample); label is preserved."""
    if sample.width != neighbor.width:
        raise ValueError(f"width mismatch: {sample.width} vs {neighbor.width}")
    if sample.label != neighbor.label:
        raise ValueError(f"label mismatch: {sample.label!r} vs {neighbor.label!r}")
    if not 0.0 <= gap < 1.0:
        raise ValueError(f"gap {gap} outside [0, 1)")
    values = sample.values + gap * (neighbor.values - sample.values)
    return FeatureRow(values, sample.label)


def smote(minority: Sequence[FeatureRow], config: SmoteConfig) -> SyntheticSet:
    """Generate floor(N/100) * T synthetic rows from T minority rows.

    If the requested amount N is below 100%, a uniform random subset of
    floor(N/100 * T) rows is oversampled once each instead.  Neighbor
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
    selected = list(range(len(minority)))
    if n_percent < 100:
        keep = int((n_percent / 100) * len(minority))
        if keep < 1:
            raise ValueError(f"n_percent={n_percent} selects no rows from T={len(minority)}")
        selected = [int(idx) for idx in rng.permutation(len(minority))[:keep]]
        n_percent = 100

    if config.k >= len(selected):
        raise ValueError(
            f"k={config.k} must be smaller than the effective sample count {len(selected)}"
        )

    per_sample = n_percent // 100
    subset = [minority[idx] for idx in selected]
    subset_matrix = matrix[selected]
    out = SyntheticSet()
    for local_i, orig_i in enumerate(selected):
        neighbors = knn_minority(subset_matrix, local_i, config.k)
        for _ in range(per_sample):
            nn_local = neighbors[int(rng.integers(config.k))]
            gap = float(rng.random())
            row = populate_synthetic(subset[local_i], subset[nn_local], gap)
            out.rows.append(row)
            out.provenance.append(Provenance(orig_i, selected[nn_local], gap))
    return out


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
            out.extend(members[int(idx)] for idx in np.sort(chosen))
            continue
        out.extend(members)
        deficit = goal - count
        if deficit == 0:
            continue
        n_percent = 100 * -(-deficit // count)  # smallest multiple of 100 covering the deficit
        class_seed = int(seeds[class_idx].generate_state(1)[0])
        synthetic = smote(members, replace(config, n_percent=n_percent, seed=class_seed))
        keep = rng.choice(len(synthetic.rows), size=deficit, replace=False)
        out.extend(synthetic.rows[int(idx)] for idx in np.sort(keep))

    order = rng.permutation(len(out))
    return [out[int(idx)] for idx in order]


# ---------------------------------------------------------------------------
# Feature-row file format: header line with the attribute count, then
# one `label<TAB>v1 v2 ... vn` line per row.


def write_feature_rows(rows: Sequence[FeatureRow]) -> str:
    """Render rows in the file format; inverse of parse_feature_rows.

    Labels starting with ``#`` (re-read as comments) or holding a tab or
    a line break are rejected.
    """
    if not rows:
        raise ValueError("nothing to write: no feature rows")
    width = rows[0].width
    lines = [str(width)]
    for idx, row in enumerate(rows):
        if row.width != width:
            raise ValueError(f"row width {row.width} != declared {width}")
        if row.label.startswith("#") or any(c in row.label for c in "\t\r\n"):
            raise ValueError(
                f"row {idx}: label {row.label!r} starts with '#' or holds a tab or line break"
            )
        lines.append(row.label + "\t" + " ".join(repr(float(v)) for v in row.values))
    return "\n".join(lines) + "\n"


def parse_feature_rows(text: str | bytes) -> list[FeatureRow]:
    lines = text_lines(text)
    header = next(lines)[1].strip()
    try:
        width = int(header)
    except ValueError:
        raise FormatError(f"expected the attribute count, got {header!r}", 1) from None
    rows: list[FeatureRow] = []
    for lineno, line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 2:
            raise FormatError("expected `label<TAB>values`", lineno)
        label, values_text = columns
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
