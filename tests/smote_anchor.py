"""A fixed feature-row file whose `amner smote` output is pinned by SHA-256.

`rows_text()` returns the file's text.  The committed
`tests/data/smote-balance.sha256` is the SHA-256 of the file

    amner smote --target match-majority --seed 7 ROWS.tsv OUT.tsv

writes, as written by commit 37eae54, the last to run one neighbour search
and one interpolation per SMOTE row.  The rows are multiples of 1/4, so
every squared distance is an exact sum and the neighbour ranking, ties
included, does not depend on the order in which numpy adds.

The committed `tests/data/smote-amount.sha256` holds, in `sha256sum -c`
form, the SHA-256 of the files the two amount-mode runs in `AMOUNT_RUNS`
write, as written by the last commit to draw each row's neighbour and gap
with one `rng.integers(k)` and one `rng.random()` call.  With seed 7 the
permutation that picks half of the 48 O rows leaves half a 64-bit word
behind, so the first run's draws start from it.
"""

from __future__ import annotations

from pathlib import Path

SHA_PATH = Path(__file__).resolve().parent / "data" / "smote-balance.sha256"
AMOUNT_SHA_PATH = SHA_PATH.with_name("smote-amount.sha256")
# output file name -> `amner smote` flags, each run on the rows with --seed 7
AMOUNT_RUNS = {
    "amount-50.tsv": ["--smote-n", "50", "--label", "O"],
    "amount-300.tsv": ["--smote-n", "300", "--label", "PER"],
}
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


def amount_sha256() -> dict[str, str]:
    """The committed hash of each amount-mode run's output, by file name."""
    pairs = (line.split() for line in AMOUNT_SHA_PATH.read_text(encoding="utf-8").splitlines())
    return {name: digest for digest, name in pairs}

