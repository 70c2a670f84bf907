"""scripts/reproduce.py end to end on a tiny synthetic corpus and vector file."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import protocol_anchor
import pytest
from helpers import synthetic_corpus

from amner.corpus import TagScheme, write_corpus
from amner.model import EmbeddingTable
from amner.protocol import token_rows
from amner.resample import FeatureRow

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_protocols_run(tmp_path, capsys):
    corpus = synthetic_corpus(24, seed=6)
    (tmp_path / "corpus.tsv").write_text(write_corpus(corpus, TagScheme.IOB2), encoding="utf-8")
    # vectors for half of the corpus words, so token rows also read the unknown row
    words = sorted({t.surface for s in corpus for t in s.tokens})[::2]
    rng = np.random.default_rng(6)
    lines = [f"{len(words)} 4"] + [
        " ".join([word, *(repr(float(v)) for v in rng.normal(size=4))]) for word in words
    ]
    (tmp_path / "vectors.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    status = load_script().main([
        "--corpus", str(tmp_path / "corpus.tsv"), "--embeddings", str(tmp_path / "vectors.txt"),
        "--protocol", "all", "--folds", "2", "--epochs", "1", "--word-dim", "4",
        "--smote-k", "1", "--allow-stats-mismatch",
    ])
    out = capsys.readouterr().out
    assert status == 0
    assert f"loaded {len(words)} pretrained vectors" in out
    for prefix in (
        "kfold/random-init: F1", "kfold/pretrained: F1", "two-thirds split: F1",
        "smote/sentence-oversample: F1", "smote/token-classifier (type runs): F1",
    ):
        assert any(line.startswith(prefix) for line in out.splitlines()), prefix


def test_unknown_scheme_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(write_corpus(synthetic_corpus(2, seed=6), TagScheme.IOB2), encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        load_script().main(["--corpus", str(corpus), "--scheme", "iob3"])
    assert exit_info.value.code == 2
    assert "argument --scheme: unknown tagging scheme 'iob3'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_max_sentences_below_one_is_a_usage_error(tmp_path, capsys, value):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(write_corpus(synthetic_corpus(5, seed=6), TagScheme.IOB2), encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        load_script().main([
            "--corpus", str(corpus), "--max-sentences", value, "--protocol", "two-thirds",
            "--epochs", "1", "--word-dim", "4",
        ])
    assert exit_info.value.code == 2
    assert f"argument --max-sentences: must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_smote_k_below_one_is_a_usage_error(tmp_path, capsys, value):
    # refused while parsing, not after the sentence-oversample run has trained
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(write_corpus(synthetic_corpus(6, seed=6), TagScheme.IOB2), encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        load_script().main([
            "--corpus", str(corpus), "--smote-k", value, "--protocol", "smote",
            "--epochs", "1", "--word-dim", "4", "--allow-stats-mismatch",
        ])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --smote-k: must be at least 1, got {value}" in captured.err
    assert "F1" not in captured.out


@pytest.mark.parametrize("value", ["1", "0"])
def test_folds_below_two_is_a_usage_error(tmp_path, capsys, value):
    # refused while parsing, before the corpus is read
    with pytest.raises(SystemExit) as exit_info:
        load_script().main(["--corpus", str(tmp_path / "missing.tsv"), "--folds", value])
    assert exit_info.value.code == 2
    assert f"argument --folds: must be at least 2, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("case, message", [
    ("no-tag-column", "error: line 2: "),
    ("missing-corpus", "error: [Errno 2] No such file or directory"),
    ("many-folds", "error: need 2 <= k <= n, got k=5"),
])
def test_bad_input_is_a_data_error(tmp_path, capsys, case, message):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(write_corpus(synthetic_corpus(4, seed=6), TagScheme.IOB2), encoding="utf-8")
    argv = ["--corpus", str(corpus), "--allow-stats-mismatch", "--epochs", "1", "--word-dim", "4"]
    if case == "no-tag-column":
        corpus.write_text("a\tB-LOC\nb\n\n", encoding="utf-8")
    elif case == "missing-corpus":
        corpus.unlink()
    else:
        argv += ["--protocol", "kfold", "--folds", "5"]
    assert load_script().main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(message), err
    assert "Traceback" not in err


@pytest.mark.parametrize("run", sorted(protocol_anchor.RUNS))
def test_stdout_has_committed_sha256(tmp_path, monkeypatch, capsys, run):
    protocol_anchor.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)  # stdout names the corpus by its relative path
    assert load_script().main(protocol_anchor.RUNS[run]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == protocol_anchor.expected_sha256()[run], out


@pytest.mark.parametrize("flag, value, message", [
    ("--batch", "0", "batch_size must be at least 1"),
    ("--epochs", "-1", "max_epochs must be non-negative"),
    ("--lr", "0", "learning_rate must be finite and positive"),
    ("--dropout", "1.5", "dropout must be in [0, 1)"),
    ("--word-dim", "0", "must be at least 1, got 0"),
    ("--seed", "-1", "must be at least 0, got -1"),
])
def test_bad_training_flag_is_a_usage_error(tmp_path, capsys, flag, value, message):
    # refused while parsing, before the corpus is read
    with pytest.raises(SystemExit) as exit_info:
        load_script().main(["--corpus", str(tmp_path / "missing.tsv"), flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_stats_mismatch_is_a_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(write_corpus(synthetic_corpus(4, seed=6), TagScheme.IOB2), encoding="utf-8")
    assert load_script().main(["--corpus", str(corpus), "--epochs", "1", "--word-dim", "4"]) == 1
    captured = capsys.readouterr()
    assert "stats check: MISMATCH" in captured.out
    assert "F1" not in captured.out  # stopped before any protocol ran
    assert captured.err.startswith("error: "), captured.err
    assert "--allow-stats-mismatch" in captured.err
    assert "Traceback" not in captured.err


def test_token_rows_equal_rows_built_one_at_a_time():
    corpus = synthetic_corpus(12, seed=4)
    # vectors for half of the corpus words, so the rest read the unknown row
    words = sorted({t.surface for s in corpus for t in s.tokens})[::2]
    table = EmbeddingTable.random(words, 5, np.random.default_rng(4))
    tokens = [token for sentence in corpus for token in sentence.tokens]
    want = [
        FeatureRow(table.matrix[table.ids([token.surface])[0]],
                   token.tag.etype if token.tag.position != "O" else "O")
        for token in tokens
    ]
    got = token_rows(corpus, table)
    assert [row.label for row in got] == [row.label for row in want]
    assert {"O", "PER", "LOC", "ORG"} == {row.label for row in got}
    assert b"".join(row.values.tobytes() for row in got) == b"".join(
        row.values.tobytes() for row in want
    )
