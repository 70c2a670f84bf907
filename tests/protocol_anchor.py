"""A fixed corpus and vector file whose `scripts/reproduce.py` stdout is pinned by SHA-256.

    python tests/protocol_anchor.py DIR    # writes DIR/c.tsv and DIR/v.txt

The committed `tests/data/protocol-anchor.sha256` holds, in `sha256sum -c`
form, the SHA-256 of the stdout of each run in `RUNS`, made with DIR as
the working directory (stdout names the corpus by the path it was given):

    reproduce.py --corpus c.tsv --embeddings v.txt --protocol all --folds 3 \\
        --epochs 4 --lr 0.05 --word-dim 4 --smote-k 1 --allow-stats-mismatch > all.out
    reproduce.py --corpus c.tsv --max-sentences 20 --folds 2 --epochs 4 \\
        --lr 0.05 --word-dim 4 > subsample.out

The first runs every protocol and both SMOTE modes; the second covers the
subsample line and the skipped token mode.  Both print every F1 line, so a
change to any score changes a hash.  Each gives the same bytes with one
and with two BLAS threads.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from helpers import synthetic_corpus

from amner.corpus import TagScheme, write_corpus

SHA_PATH = Path(__file__).resolve().parent / "data" / "protocol-anchor.sha256"
RUNS = {
    "all.out": [
        "--corpus", "c.tsv", "--embeddings", "v.txt", "--protocol", "all", "--folds", "3",
        "--epochs", "4", "--lr", "0.05", "--word-dim", "4", "--smote-k", "1",
        "--allow-stats-mismatch",
    ],
    "subsample.out": [
        "--corpus", "c.tsv", "--max-sentences", "20", "--folds", "2", "--epochs", "4",
        "--lr", "0.05", "--word-dim", "4",
    ],
}


def write_inputs(directory: Path) -> None:
    corpus = synthetic_corpus(30, seed=6)
    (directory / "c.tsv").write_text(write_corpus(corpus, TagScheme.IOB2), encoding="utf-8")
    # vectors for every other word, so token rows also read the unknown row
    words = sorted({t.surface for s in corpus for t in s.tokens})[::2]
    rng = np.random.default_rng(6)
    lines = [f"{len(words)} 4"] + [
        " ".join([word, *(repr(float(v)) for v in rng.normal(size=4))]) for word in words
    ]
    (directory / "v.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def expected_sha256() -> dict[str, str]:
    """The committed hash of each run's stdout, by output file name."""
    pairs = (line.split() for line in SHA_PATH.read_text(encoding="utf-8").splitlines())
    return {name: digest for digest, name in pairs}


if __name__ == "__main__":
    write_inputs(Path(sys.argv[1]))
