"""`amner` and `scripts/reproduce.py` as processes under `-W error`, in a temporary directory.

No row may print a traceback, and a row that fails may leave no file it
names other than its inputs."""

import hashlib
import os
import re
import subprocess
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import protocol_anchor
import pytest
import smote_anchor

from amner.serialize import load_model, save_model
from amner.train import TAG_TOKENS as N

ROOT = Path(__file__).resolve().parents[1]
PYTHON = [sys.executable, "-W", "error"]
PROGRAMS = {"amner": [*PYTHON, "-m", "amner.cli"],
            "reproduce.py": [*PYTHON, str(ROOT / "scripts" / "reproduce.py")]}
TINY = "--word-dim 4 --char-dim 2 --word-hidden 2 --char-hidden 2"
ABCDE = "a\tO\nb\tO\nc\tO\nd\tO\ne\tO\n"
REPEAT = ["a\tB-PER\nb\tO\na\tB-PER\n\n", "bz\tB-LOC\na\tB-PER\nbz\tB-LOC\nc\tO\na\tB-PER\n\n",
          "d\tB-ORG\nd\tB-ORG\n\n", "e\tO\n\n"]
INPUTS = {
    "invalid.tsv": "a\tB-LOC\n\nb\tI-LOC\n\n",
    "masked.tsv": "a\tB-LOC\nb\tI-LOC\nc\tO\n\nd\tB-PER\ne\tO\n\n",
    **{f"repeat-{n}.tsv": text for n, text in enumerate(REPEAT, 1)},
    "repeat.tsv": "".join(REPEAT),
    "identity.tsv": "a\tB-PER\nb\tO\nc\tO\n\nb\tO\nbz\tB-LOC\nd\tB-ORG\n\ne\tO\na\tB-PER\nbz\tB-LOC\n\n"
    "d\tB-ORG\ne\tO\nc\tO\nb\tO\n\nc\tO\nd\tB-ORG\na\tB-PER\n\nbz\tB-LOC\ne\tO\n\n",
    # one sentence longer than a tagging chunk, or one that no longer fits a chunk
    "long.tsv": "\n".join(ABCDE * k for k in [N // 5 + 1] + [3] * (N // 15 + 1)),
    "skewed.tsv": "\n".join(["a\tO\n"] * (N - 5 * (N // 10 + 1)) + [ABCDE * (N // 10 + 1)]),
    "ragged.tsv": "a\tB-PER\n\nb\tB-LOC\nc\tO\n\nd\tO\ne\tB-ORG\nf\tI-ORG\ng\tO\nh\tB-LOC\n\n",
    "overflow.tsv": "2\nO\t0 0\nO\t1 1\nO\t2 2\nPER\t1e308 -1e308\nPER\t-1e308 1e308\n",
    "underscore.tsv": "2\nO\t0 0\nO\t1 1\nO\t2 2\nO\t3 3\nPER\t1_0 1\nPER\t2 2\n",
    "plain.tsv": "2\nO\t0 0\nO\t1 1\nO\t2 2\nO\t3 3\nPER\t10 1\nPER\t2 2\n",
    "nope.tsv": "2\nO\t0 0\nO\t1 1\nO\t2 2\nPER\tnope 1\nPER\t2 2\n",
    "header-only.tsv": "2\n", "zero-width.tsv": "0\nPER\t\nO\t\n",
    "beta1.cfg": "beta1 0.9\n", "duplicate.cfg": "seed 1\nseed 2\n",
    "huge-header.vec": "99999999999 4\na 1 2 3 4\n", "bad.tsv": "a\tB-LOC\nb\n\n",
    "smote-rows.tsv": smote_anchor.rows_text(),
}
TRAININGS = [
    f"amner train masked.tsv --model masked.model --masked-train --epochs 1 {TINY}",
    "amner train identity.tsv --model identity.model --dropout 0 --lr 0.05 --epochs 40"
    " --word-dim 4 --char-dim 2 --word-hidden 4 --char-hidden 2",
    f"amner train ragged.tsv --model ragged.model --epochs 2 --batch 3 {TINY}",
]
# masked.model with these tensors set to 1e308, and the error tagging with it gives
OVERFLOWS = {"overflow-lstm": ("word.w_x word_table.matrix", "error: non-finite LSTM input projection"),
             "overflow-crf": ("crf.transitions", "error: non-finite scores in Viterbi decoding")}


class Case(NamedTuple):
    argv: str
    status: int = 0
    err: str | None = None  # pattern stderr must match
    out: str | None = None  # pattern stdout must match


SMOTE = "amner smote --target match-majority"
TRAIN = "amner train masked.tsv --model"
CASES = [
    Case("amner gradcheck --seed 3"),
    Case("amner validate invalid.tsv", 1, out="sentence 1, token 0: invalid under iob2:"),
    Case("amner convert --from iob2 --to iob1 invalid.tsv converted.tsv", 1,
         "error: sentence 1, token 0: invalid under iob2:"),
    *(Case(f"amner tag --model {model}.model repeat{n}.tsv repeat{n}-{out}.tsv")
      for model, out in (("masked", "tagged"), ("identity", "identity"))
      for n in ("", "-1", "-2", "-3", "-4")),
    *(Case(argv) for stem, model in (
        ("masked", "masked"), ("long", "masked"), ("skewed", "masked"), ("ragged", "ragged"))
      for argv in (f"amner tag --model {model}.model {stem}.tsv {stem}-tagged.tsv",
                   f"amner eval {stem}.tsv {stem}-tagged.tsv")),
    Case("amner validate --scheme iob3 masked.tsv", 2),
    *(Case(f"reproduce.py --corpus masked.tsv {flags}", 2) for flags in (
        "--scheme iob3", "--max-sentences 0", "--smote-k 0", "--folds 1", "--batch 0", "--seed -1")),
    Case(f"{TRAIN} nan.model --lr nan", 2),
    *(Case(f"amner gradcheck {flags}", 2) for flags in ("--step 0", "--seed -1")),
    Case(f"{SMOTE} --smote-k 0 overflow.tsv overflow-k0-balanced.tsv", 2),
    Case(f"{SMOTE} --smote-k 1 overflow.tsv overflow-balanced.tsv", 1,
         "error: feature row contains non-finite values"),
    Case(f"{SMOTE} --smote-k 1 underscore.tsv underscore-balanced.tsv"),
    Case(f"{SMOTE} --smote-k 1 plain.tsv plain-balanced.tsv"),
    Case(f"{SMOTE} --smote-k 1 nope.tsv nope-balanced.tsv", 1, "error: line 5: non-numeric value"),
    Case("amner smote --smote-n 100 header-only.tsv header-only-out.tsv", 1, "error: dataset is empty"),
    Case(f"{SMOTE} zero-width.tsv zero-width-balanced.tsv", 1,
         "error: line 1: attribute count must be at least 1, got 0"),
    Case(f"{TRAIN} beta1.model --config beta1.cfg", 1, "error: line 1: unknown option 'beta1'"),
    *(Case(f"amner tag --model {stem}.model masked.tsv {stem}-tagged.tsv", 1, error)
      for stem, (_, error) in OVERFLOWS.items()),
    Case(f"{TRAIN} diverged.model --lr 1e300 --epochs 3 {TINY}", 1,
         "error: epoch .*: non-finite LSTM input projection"),
    Case(f"{TRAIN} duplicate.model --config duplicate.cfg", 1, "error: line 2: duplicate option 'seed'"),
    Case(f"{TRAIN} huge-header.model --embeddings huge-header.vec --epochs 1 {TINY}", 1,
         "error: header declares 99999999999 rows, file has 1"),
    Case("amner stats late-invalid.tsv", 1, "error: invalid UTF-8: .* position 1200000: invalid start byte"),
    Case("reproduce.py --corpus bad.tsv", 1, "error: line 2:"),
    Case(f"{SMOTE} --seed 7 smote-rows.tsv smote-balanced.tsv"),
    *(Case(f"amner smote {' '.join(flags)} --seed 7 smote-rows.tsv {name}")
      for name, flags in smote_anchor.AMOUNT_RUNS.items()),
    *(Case(" ".join(["reproduce.py", *argv])) for argv in protocol_anchor.RUNS.values()),
]
# each file's bytes against the concatenation of the others'
CMP = [
    ("repeat-tagged.tsv", [f"repeat-{n}-tagged.tsv" for n in range(1, 5)]),
    *((f"repeat{n}-identity.tsv", [f"repeat{n}.tsv"]) for n in ("", "-1", "-2", "-3", "-4")),
    ("underscore-balanced.tsv", ["plain-balanced.tsv"]),
]
# SHA-256 of each output file, or of the stdout of a `protocol_anchor.RUNS` row
DIGESTS = {
    "smote-balanced.tsv": smote_anchor.SHA_PATH.read_text(encoding="utf-8").strip(),
    **smote_anchor.amount_sha256(),
    **{" ".join(["reproduce.py", *protocol_anchor.RUNS[name]]): digest
       for name, digest in protocol_anchor.expected_sha256().items()},
}


def run(workdir: Path, argv: str, earlier: list[Future]) -> subprocess.CompletedProcess:
    """Runs one row in `workdir`, once the rows in `earlier` have finished."""
    for future in earlier:
        future.result()
    program, *args = argv.split()
    return subprocess.run([*PROGRAMS[program], *args], cwd=workdir, capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


@pytest.fixture(scope="module")
def console(tmp_path_factory) -> tuple[Path, set[str], dict[str, subprocess.CompletedProcess]]:
    """The rows' directory, its input files and each row's process.  Rows run two at a
    time, each after the earlier rows whose last argument (the file they write) it names."""
    path = tmp_path_factory.mktemp("console")
    for name, text in INPUTS.items():
        (path / name).write_bytes(text.encode("utf-8"))
    (path / "late-invalid.tsv").write_bytes(b"a\tO\n" * 300000 + b"\xff\tO\n")
    protocol_anchor.write_inputs(path)
    for argv in TRAININGS:
        proc = run(path, argv, [])
        assert proc.returncode == 0 and b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert b"masked_training true" in (path / "masked.model").read_bytes()
    for stem, (tensors, _) in OVERFLOWS.items():
        model, config = load_model(path / "masked.model")
        for tensor in tensors.split():
            model.tensors()[tensor].fill(1e308)
        save_model(path / f"{stem}.model", model, config)
    inputs = {p.name for p in path.iterdir()}
    futures, writers = {}, {}
    with ThreadPoolExecutor(2) as pool:
        for case in CASES:
            args = case.argv.split()
            earlier = [writers[arg] for arg in args if arg in writers]
            futures[case.argv] = writers[args[-1]] = pool.submit(run, path, case.argv, earlier)
    return path, inputs, {argv: future.result() for argv, future in futures.items()}


@pytest.mark.parametrize("case", CASES, ids=[case.argv for case in CASES])
def test_case(case, console):
    workdir, inputs, procs = console
    proc = procs[case.argv]
    out, err = proc.stdout.decode(), proc.stderr.decode()
    assert proc.returncode == case.status, err
    assert "Traceback" not in err, err
    assert case.err is None or re.search(case.err, err), err
    assert case.out is None or re.search(case.out, out), out
    written = [arg for arg in case.argv.split() if arg not in inputs and (workdir / arg).exists()]
    assert case.status == 0 or written == []


@pytest.mark.parametrize("name, parts", CMP)
def test_cmp(name, parts, console):
    assert (console[0] / name).read_bytes() == b"".join((console[0] / p).read_bytes() for p in parts)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_digest(name, console):
    workdir, _, procs = console
    data = procs[name].stdout if name in procs else (workdir / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]
