"""A fixed feature-row file whose `amner smote` output is pinned by SHA-256.

    python tests/smote_anchor.py ROWS.tsv    # writes the rows file

The committed `tests/data/smote-balance.sha256` is the SHA-256 of the file

    amner smote --target match-majority --seed 7 ROWS.tsv OUT.tsv

writes, as written by commit 37eae54, the last to run one neighbour search
and one interpolation per SMOTE row.  The rows are multiples of 1/4, so
every squared distance is an exact sum and the neighbour ranking, ties
included, does not depend on the order in which numpy adds.
"""

from __future__ import annotations

import sys
from pathlib import Path

SHA_PATH = Path(__file__).resolve().parent / "data" / "smote-balance.sha256"
CLASSES = (("O", 48), ("ORG", 14), ("LOC", 11), ("PER", 7))
WIDTH = 6


def rows_text() -> str:
    lines = [str(WIDTH)]
    row = 0
    for label, count in CLASSES:
        for _ in range(count):
            values = [((row * 37 + col * 11 + row * col % 7) % 17 - 8) / 4 for col in range(WIDTH)]
            lines.append(label + "\t" + " ".join(repr(v) for v in values))
            row += 1
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(rows_text(), encoding="utf-8")
