"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-9 gate the build at the stated tolerances and runtime
budgets.  Criterion 10 (full-corpus reproduction) is non-gating: the
script's presence and interface are checked here; the full run needs
the released corpus and embeddings (see README)."""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from acceptance_data import overfit_corpus
from helpers import path_score

from amner.corpus import (
    Sentence,
    TagScheme,
    Token,
    convert_scheme,
    corpus_spans,
    spans_to_tags,
    tag_from_str,
    write_corpus,
)
from amner.crf import CrfParams, nll_loss_and_grad, viterbi_decode
from amner.metrics import AgreementTable, cohen_kappa, f1_from_pr, interpret_kappa
from amner.resample import FeatureRow, SmoteConfig, smote
from amner.train import TrainConfig, build_model, gradient_check, train_model

IOB1, IOB2 = TagScheme.IOB1, TagScheme.IOB2

# the same sentence annotated in IOB1 and IOB2 (ORG run, four locations,
# the last two adjacent)
IOB1_ROW = ["O", "O", "I-ORG", "I-ORG", "I-ORG", "O", "I-LOC", "O", "I-LOC",
            "I-LOC", "O", "I-LOC", "B-LOC", "O"]
IOB2_ROW = ["O", "O", "B-ORG", "I-ORG", "I-ORG", "O", "B-LOC", "O", "B-LOC",
            "I-LOC", "O", "B-LOC", "B-LOC", "O"]


def report(number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def random_crf_instance(rng):
    length = int(rng.integers(1, 5))
    k = int(rng.integers(1, 6))
    emissions = rng.uniform(-3, 3, size=(length, k))
    params = CrfParams(
        rng.uniform(-3, 3, size=(k, k)),
        rng.uniform(-3, 3, size=k),
        rng.uniform(-3, 3, size=k),
    )
    return params, emissions


def enumerate_paths(params, emissions):
    for path in itertools.product(range(params.num_tags), repeat=emissions.shape[0]):
        yield list(path), path_score(params, emissions, path)


def test_criterion_1_partition_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        params, emissions = random_crf_instance(rng)
        paths = list(enumerate_paths(params, emissions))
        expected = np.logaddexp.reduce([s for _, s in paths])
        # log Z is the loss of a gold path plus that path's score
        gold, gold_score = paths[0]
        loss = nll_loss_and_grad(params, emissions, gold, [len(emissions)])[0]
        worst = max(worst, abs(loss + gold_score - expected))
    elapsed = time.perf_counter() - start
    report(1, "CRF partition matches exhaustive enumeration",
           worst <= 1e-8 and elapsed <= 10.0,
           f"max abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_viterbi_oracle():
    rng = np.random.default_rng(2024)  # same instance stream as criterion 1
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        params, emissions = random_crf_instance(rng)
        best_path, best_score = None, -np.inf
        for path, score in enumerate_paths(params, emissions):
            if score > best_score or (score == best_score and path < best_path):
                best_path, best_score = path, score
        (path,), (score,) = viterbi_decode(params, emissions, [len(emissions)])
        ok = ok and path == best_path and abs(score - best_score) < 1e-9
    elapsed = time.perf_counter() - start
    report(2, "Viterbi matches enumerated argmax with tie-breaks",
           ok and elapsed <= 10.0, f"{elapsed:.1f}s")


def test_criterion_3_gradient_suite():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        vocab = [f"t{i}" for i in range(4)]
        sentences = []
        for _ in range(2):
            length = int(rng.integers(1, 4))
            tokens = []
            inside = False
            for pos in range(length):
                word = vocab[int(rng.integers(len(vocab)))]
                roll = rng.random()
                if pos == 0 or not inside:
                    text = "B-X" if roll < 0.6 else "O"
                else:
                    text = "I-X" if roll < 0.5 else ("B-X" if roll < 0.75 else "O")
                inside = text != "O"
                tokens.append(Token(word, tag_from_str(text, IOB2)))
            sentences.append(Sentence(tuple(tokens)))
        model = build_model(
            sentences,
            word_dim=int(rng.integers(2, 5)), char_dim=2,
            char_hidden=int(rng.integers(2, 4)), word_hidden=int(rng.integers(2, 4)),
            dropout=0.0, seed=int(rng.integers(10_000)),
        )
        check_sentence = sentences[0]
        if trial % 3 == 0:  # exercise the unknown-token rows as well
            tokens = list(check_sentence.tokens) + [Token("oov-word", tag_from_str("O", IOB2))]
            check_sentence = Sentence(tuple(tokens))
        result = gradient_check(model, check_sentence, step=1e-5, tolerance=1e-4)
        worst = max(worst, result.max_error)
    elapsed = time.perf_counter() - start
    report(3, "full-network gradients match central differences",
           worst <= 1e-4 and elapsed <= 120.0,
           f"max rel err {worst:.2e} over 20 models, {elapsed:.1f}s")


def test_criterion_4_overfit_oracle():
    corpus = overfit_corpus()
    vocab = {t.surface for s in corpus for t in s.tokens}
    tags = {(t.tag.position, t.tag.etype) for s in corpus for t in s.tokens}
    assert len(corpus) == 20 and len(vocab) == 50 and len(tags) == 7

    start = time.perf_counter()
    model = build_model(corpus, dropout=0.0, seed=0)  # default reference dims
    perfect_epoch = []

    def stop(entry):
        if entry.dev_f1 == 1.0:
            perfect_epoch.append(entry.epoch)
            return True
        return False

    train_model(
        corpus, model,
        TrainConfig(learning_rate=0.001, batch_size=20, max_epochs=200, dropout=0.0, seed=0),
        dev=corpus, on_epoch=stop,
    )
    elapsed = time.perf_counter() - start
    report(4, "tagger reaches 100.00 train F1 within 200 epochs",
           bool(perfect_epoch) and elapsed <= 300.0,
           f"epoch {perfect_epoch[0] if perfect_epoch else 'n/a'}, {elapsed:.0f}s")


def test_criterion_5_pinned_f1_arithmetic():
    first = f1_from_pr(91.42, 95.01)
    second = f1_from_pr(72.92, 75.37)
    report(5, "harmonic-mean F1 reproduces the published table rows",
           abs(first - 93.18) <= 0.005 and abs(second - 74.12) <= 0.005,
           f"{first:.4f} vs 93.18, {second:.4f} vs 74.12")


def test_criterion_6_kappa_band():
    table = AgreementTable(["no", "yes"], np.array([[4, 1], [1, 4]]))
    kappa = cohen_kappa(table)
    band = interpret_kappa(0.7321)
    report(6, "kappa value and interpretation band",
           abs(kappa - 0.6) < 1e-12 and f"{kappa:.4f}" == "0.6000"
           and band == "Substantial agreement",
           f"kappa {kappa:.4f}, 0.7321 -> {band!r}")


def test_criterion_7_smote_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    ok = True
    details = []
    for t_count, n_percent, k in ((4, 200, 1), (4, 50, 1), (10, 300, 5)):
        minority = [FeatureRow(rng.normal(size=3), "PER") for _ in range(t_count)]
        result = smote(minority, SmoteConfig(n_percent=n_percent, k=k, seed=5))
        if n_percent < 100:
            expected = int((n_percent / 100) * t_count)  # one row per surviving sample
        else:
            expected = (n_percent // 100) * t_count
        ok = ok and len(result.rows) == expected
        details.append(f"T={t_count},N={n_percent},k={k} -> {len(result.rows)}")
        for row, prov in zip(result.rows, result.provenance):
            lo = np.minimum(minority[prov.source].values, minority[prov.neighbor].values)
            hi = np.maximum(minority[prov.source].values, minority[prov.neighbor].values)
            ok = ok and bool(np.all(row.values >= lo - 1e-12) and np.all(row.values <= hi + 1e-12))
    elapsed = time.perf_counter() - start
    report(7, "SMOTE output counts and segment bound",
           ok and elapsed <= 1.0, "; ".join(details) + f", {elapsed:.2f}s")


def random_iob2_row(rng, length):
    row, prev = [], None
    for _ in range(length):
        roll = int(rng.integers(0, 3 if prev else 2))
        if roll == 0:
            row.append("O")
            prev = None
        elif roll == 1:
            prev = ["PER", "LOC", "ORG", "TTL"][int(rng.integers(4))]
            row.append(f"B-{prev}")
        else:
            row.append(f"I-{prev}")
    return row


def test_criterion_8_scheme_round_trips():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(1000):
        row = random_iob2_row(rng, int(rng.integers(1, 15)))
        sentence = Sentence(tuple(
            Token(f"w{i}", tag_from_str(t, IOB2)) for i, t in enumerate(row)
        ))
        via_iob1 = convert_scheme(convert_scheme([sentence], IOB2, IOB1), IOB1, IOB2)[0]
        spans = corpus_spans([sentence], IOB2)[0]
        via_spans = spans_to_tags(spans, len(sentence), IOB2)
        ok = ok and list(via_iob1.tags) == list(sentence.tags)
        ok = ok and via_spans == list(sentence.tags)

    figure_source = Sentence(tuple(
        Token(f"w{i:02d}", tag_from_str(t, IOB1)) for i, t in enumerate(IOB1_ROW)
    ))
    converted = convert_scheme([figure_source], IOB1, IOB2)[0]
    figure_ok = [str(t.position) + ("-" + t.etype if t.etype else "") for t in converted.tags] == IOB2_ROW
    report(8, "1000 random sentences and the documented row survive round trips",
           ok and figure_ok)


def test_criterion_9_train_determinism(tmp_path, monkeypatch):
    corpus = overfit_corpus()[:8]
    args = [
        "train", "train.tsv", "--model", "tagger.model",
        "--word-dim", "6", "--char-dim", "2", "--word-hidden", "3", "--char-hidden", "2",
        "--epochs", "2", "--batch", "4", "--dropout", "0.5", "--seed", "17",
    ]
    from amner.cli import main

    outputs = []
    for run in ("a", "b"):
        workdir = tmp_path / run
        workdir.mkdir()
        (workdir / "train.tsv").write_bytes(write_corpus(corpus, IOB2).encode("utf-8"))
        monkeypatch.chdir(workdir)
        assert main(args) == 0
        outputs.append(
            ((workdir / "tagger.model").read_bytes(),
             (workdir / "tagger.model.log").read_bytes())
        )
    same_model = outputs[0][0] == outputs[1][0]
    same_log = outputs[0][1] == outputs[1][1]
    report(9, "identical seeds give byte-identical model files and logs",
           same_model and same_log)


def test_criterion_10_reproduction_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True, text=True, timeout=120,
    )
    interface_ok = proc.returncode == 0 and "--protocol" in proc.stdout
    corpus = os.environ.get("AMNER_CORPUS")
    if corpus:
        cmd = [sys.executable, str(script), "--corpus", corpus, "--protocol", "two-thirds"]
        embeddings = os.environ.get("AMNER_EMBEDDINGS")
        if embeddings:
            cmd += ["--embeddings", embeddings]
        full = subprocess.run(cmd, capture_output=True, text=True)
        interface_ok = interface_ok and full.returncode == 0
        detail = "full run executed"
    else:
        detail = "interface checked; full run needs AMNER_CORPUS (non-gating)"
    report(10, "reproduction script available", interface_ok, detail)
