"""Full-corpus evaluation protocols for the Amharic NER tagger.

Given the released Amharic NER corpus (IOB2 TSV) and 300-d pretrained
word vectors, this script runs the three evaluation protocols and prints
CoNLL entity F1 next to the published reference values:

  kfold        10-fold cross-validation, random-init and pretrained word
               vectors (reference F1: 70.18 random init, 74.12 pretrained)
  two-thirds   single 2/3 train / 1/3 test split with pretrained vectors
  smote        80/20 split with minority oversampling applied to the
               training side only (reference F1: 93.18); reported in two
               modes because the published setup does not fix one:
                 sentence -- duplicate training sentences containing
                             minority entities until token counts balance,
                             then train the BiLSTM-CRF tagger as usual
                 token    -- SMOTE-balance per-token embedding-vector rows
                             and train a softmax token classifier on them;
                             scored on maximal type runs

Numbers are indicative, not a gate: they depend on the exact corpus
release, embedding file, and the unpublished oversampling amounts.  The
corpus statistics check against the published distribution (Person
3,809 / Location 7,199 / Organization 7,596 / O 164,087 of 182,691
tokens) is hard: a mismatch aborts unless --allow-stats-mismatch is set.

Example:
    python3 scripts/reproduce.py --corpus amharic-ner.tsv --embeddings am300.vec
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .cli import int_at_least, run_command, tag_scheme, train_setting
from .corpus import (
    Sentence, TagScheme, Token, convert_scheme, corpus_stats, parse_corpus, render_stats,
    tag_from_str, tag_to_str,
)
from .metrics import conll_evaluate
from .model import EmbeddingTable, load_embeddings
from .resample import MATCH_MAJORITY, FeatureRow, SmoteConfig, balance_token_dataset
from .train import (
    AdamState, TrainConfig, adam_step, build_model, clip_global_norm, holdout_split, kfold_split,
    make_batches, tag_sentences, train_model,
)

REFERENCE_STATS = {"PER": 3809, "LOC": 7199, "ORG": 7596}
REFERENCE_O = 164_087
REFERENCE_TOTAL = 182_691
REFERENCE_F1 = {"random-init": 70.18, "pretrained": 74.12, "smote-train-only": 93.18}


def log(message: str) -> None:
    print(message, flush=True)


def check_stats(sentences, allow_mismatch: bool) -> None:
    stats = corpus_stats(sentences, TagScheme.IOB2)
    log("corpus statistics:")
    log(render_stats(stats, "text").rstrip())
    matches = (
        stats.type_counts == dict(sorted(REFERENCE_STATS.items()))
        and stats.outside_count == REFERENCE_O
        and stats.total_tokens == REFERENCE_TOTAL
    )
    if matches:
        log("stats check: PASS (matches the published distribution)")
        return
    log("stats check: MISMATCH with the published distribution "
        f"(expected PER 3,809 / LOC 7,199 / ORG 7,596 / O {REFERENCE_O:,} "
        f"of {REFERENCE_TOTAL:,} tokens)")
    if not allow_mismatch:
        raise ValueError("corpus statistics differ from the published distribution; "
                         "pass --allow-stats-mismatch to run on a different corpus")


def train_and_score(train_set, test_set, args, pretrained) -> float:
    config = TrainConfig(learning_rate=args.lr, batch_size=args.batch, max_epochs=args.epochs,
                         dropout=args.dropout, seed=args.seed)
    model = build_model(
        train_set,
        word_dim=args.word_dim, dropout=config.dropout, seed=config.seed, pretrained=pretrained,
        extra_vocab=[t.surface for s in test_set for t in s.tokens],
    )
    train_model(train_set, model, config)
    predicted = tag_sentences(model, test_set)
    return conll_evaluate(test_set, predicted).overall.f1


def protocol_kfold(sentences, args, pretrained) -> None:
    splits = kfold_split(len(sentences), args.folds, args.seed)
    variants = [("random-init", None)]
    if pretrained is not None:
        variants.append(("pretrained", pretrained))
    for name, table in variants:
        scores = []
        for fold, (train_idx, test_idx) in enumerate(splits):
            f1 = train_and_score(
                [sentences[i] for i in train_idx], [sentences[i] for i in test_idx],
                args, table,
            )
            scores.append(100.0 * f1)
            log(f"  fold {fold}: F1 {scores[-1]:.2f}")
        mean = float(np.mean(scores))
        std = float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0
        log(f"kfold/{name}: F1 {mean:.2f} +- {std:.2f} "
            f"(reference {REFERENCE_F1.get(name, float('nan')):.2f})")


def protocol_two_thirds(sentences, args, pretrained) -> None:
    train_idx, test_idx = holdout_split(len(sentences), 2.0 / 3.0, args.seed)
    f1 = train_and_score(
        [sentences[i] for i in train_idx], [sentences[i] for i in test_idx], args, pretrained
    )
    log(f"two-thirds split: F1 {100.0 * f1:.2f}")


def minority_sentence_oversample(train_set, seed: int) -> list[Sentence]:
    """Duplicate sentences containing the rarest entity type until the
    per-type token counts roughly balance; the sequence-level stand-in
    for feature-space oversampling."""
    rng = np.random.default_rng(seed)
    out = list(train_set)
    tally = corpus_stats(out, TagScheme.IOB2).type_counts
    target = max(tally.values(), default=0)
    for etype in sorted(tally):  # each type in the tally has a sentence holding it
        holders = [s for s in train_set if any(t.tag.etype == etype for t in s.tokens)]
        while tally[etype] < target:
            pick = holders[int(rng.integers(len(holders)))]
            out.append(pick)
            for token in pick.tokens:
                if token.tag.position != "O":
                    tally[token.tag.etype] = tally.get(token.tag.etype, 0) + 1
    return out


def token_rows(sentences, table: EmbeddingTable) -> list[FeatureRow]:
    tokens = [token for sentence in sentences for token in sentence.tokens]
    vectors = table.matrix[table.ids(token.surface for token in tokens)]
    labels = [tag_to_str(token.tag, TagScheme.STANFORD) for token in tokens]
    return FeatureRow.from_matrix(vectors, labels)


def softmax_token_classifier(train_rows, test_sentences, table, args) -> float:
    """Train a softmax head on balanced rows; score maximal type runs."""
    labels = sorted({row.label for row in train_rows})
    label_idx = {label: i for i, label in enumerate(labels)}
    dim = train_rows[0].width
    rng = np.random.default_rng(args.seed)
    params = {"w": rng.normal(scale=0.01, size=(dim, len(labels))), "b": np.zeros(len(labels))}
    state = AdamState.for_params(params)
    x = np.stack([row.values for row in train_rows])
    y = np.array([label_idx[row.label] for row in train_rows])
    for epoch in range(min(args.epochs, 20)):
        for chunk in make_batches(range(len(y)), 512, args.seed + epoch):
            logits = x[chunk] @ params["w"] + params["b"]
            logits -= logits.max(axis=1, keepdims=True)
            probs = np.exp(logits)
            probs /= probs.sum(axis=1, keepdims=True)
            probs[np.arange(len(chunk)), y[chunk]] -= 1.0
            grads = {"w": x[chunk].T @ probs / len(chunk), "b": probs.mean(axis=0)}
            clip_global_norm(grads, None)  # the finiteness check adam_step leaves to it
            adam_step(state, params, grads, args.lr)

    def classify(sentence: Sentence) -> Sentence:
        rows = table.ids(token.surface for token in sentence.tokens)
        logits = table.matrix[rows] @ params["w"] + params["b"]
        tokens = []
        for token, best in zip(sentence.tokens, np.argmax(logits, axis=1)):
            tokens.append(Token(token.surface, tag_from_str(labels[int(best)], TagScheme.STANFORD)))
        return Sentence(tuple(tokens))

    predicted = [classify(s) for s in test_sentences]
    gold = convert_scheme(test_sentences, TagScheme.IOB2, TagScheme.STANFORD)
    return conll_evaluate(gold, predicted, TagScheme.STANFORD).overall.f1


def protocol_smote(sentences, args, pretrained) -> None:
    train_idx, test_idx = holdout_split(len(sentences), 0.8, args.seed)
    train_set = [sentences[i] for i in train_idx]
    test_set = [sentences[i] for i in test_idx]
    reference = f"(reference {REFERENCE_F1['smote-train-only']:.2f})"

    oversampled = minority_sentence_oversample(train_set, args.seed)
    log(f"smote/sentence mode: {len(train_set)} -> {len(oversampled)} training sentences")
    f1 = train_and_score(oversampled, test_set, args, pretrained)
    log(f"smote/sentence-oversample: F1 {100.0 * f1:.2f} {reference}")

    if pretrained is None:
        log("smote/token mode skipped: needs --embeddings for token feature rows")
        return
    rows = token_rows(train_set, pretrained)
    balanced = balance_token_dataset(
        rows, MATCH_MAJORITY, SmoteConfig(n_percent=100, k=args.smote_k, seed=args.seed)
    )
    log(f"smote/token mode: {len(rows)} -> {len(balanced)} balanced feature rows")
    f1 = softmax_token_classifier(balanced, test_set, pretrained, args)
    log(f"smote/token-classifier (type runs): F1 {100.0 * f1:.2f} {reference}")


PROTOCOLS = {"kfold": protocol_kfold, "two-thirds": protocol_two_thirds, "smote": protocol_smote}


def run(args) -> int:
    """Load the corpus and vectors, then run the chosen protocols."""
    sentences = parse_corpus(Path(args.corpus).read_bytes(), args.scheme)
    if args.scheme is not TagScheme.IOB2:
        sentences = convert_scheme(sentences, args.scheme, TagScheme.IOB2)
    log(f"loaded {len(sentences)} sentences from {args.corpus}")

    if args.max_sentences is not None and args.max_sentences < len(sentences):
        keep = np.random.default_rng(args.seed).permutation(len(sentences))[: args.max_sentences]
        sentences = [sentences[int(i)] for i in np.sort(keep)]
        log(f"subsampled to {len(sentences)} sentences; skipping the stats check")
    else:
        check_stats(sentences, args.allow_stats_mismatch)

    pretrained = None
    if args.embeddings:
        pretrained = load_embeddings(Path(args.embeddings).read_bytes(),
                                     expected_dim=args.word_dim, seed=args.seed)
        log(f"loaded {len(pretrained.vocab)} pretrained vectors")

    log("reference F1 values: 70.18 random-init / 74.12 pretrained / 93.18 SMOTE-train-only")
    for name, protocol in PROTOCOLS.items():
        if args.protocol in ("all", name):
            protocol(sentences, args, pretrained)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--corpus", required=True, help="IOB2 corpus TSV")
    parser.add_argument("--embeddings", default=None, help="300-d word vectors, text format")
    parser.add_argument("--protocol", choices=("all", *PROTOCOLS), default="all")
    parser.add_argument("--scheme", type=tag_scheme, default="iob2")
    parser.add_argument("--folds", type=int_at_least(2), default=10)
    parser.add_argument("--epochs", type=train_setting("max_epochs"), default=50)
    parser.add_argument("--batch", type=train_setting("batch_size"), default=20)
    parser.add_argument("--lr", type=train_setting("learning_rate"), default=0.001)
    parser.add_argument("--dropout", type=train_setting("dropout"), default=0.5)
    parser.add_argument("--word-dim", type=int_at_least(1), default=300)
    parser.add_argument("--smote-k", type=int_at_least(1), default=5)
    parser.add_argument("--seed", type=int_at_least(0), default=0)
    parser.add_argument("--max-sentences", type=int_at_least(1), default=None,
                        help="subsample the corpus for smoke runs (stats check is skipped)")
    parser.add_argument("--allow-stats-mismatch", action="store_true")
    return run_command(run, parser.parse_args(argv))
