"""Command-line entry point.

Reports go to stdout, diagnostics (including the resolved seed and
progress lines) to stderr.  Exit codes: 0 success, 1 validation or data
error, 2 usage error.  Machine-readable output is available behind
``--format kv`` where a report is produced.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import resample as resample_mod
from . import serialize as serialize_mod
from . import train as train_mod
from .corpus import Sentence, Tag, TagScheme, Token
from .model import load_embeddings
from .train import TrainConfig

USAGE_ERROR = 2
DATA_ERROR = 1


class UsageError(Exception):
    pass


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _scheme(name: str) -> TagScheme:
    return TagScheme.from_name(name)


def cmd_convert(args) -> int:
    from_scheme = _scheme(args.from_scheme)
    to_scheme = _scheme(args.to_scheme)
    sentences = corpus_mod.parse_corpus(_read_bytes(args.input), from_scheme)
    converted = corpus_mod.convert_scheme(sentences, from_scheme, to_scheme)
    if to_scheme is TagScheme.STANFORD and from_scheme is not TagScheme.STANFORD:
        lost = corpus_mod.count_adjacent_same_type(sentences, from_scheme)
        if lost:
            _say(f"warning: {lost} adjacent same-type entity boundaries merged "
                 "(not representable in stanford)")
    if from_scheme is TagScheme.STANFORD and to_scheme is not TagScheme.STANFORD:
        runs = corpus_mod.count_multi_token_runs(sentences)
        if runs:
            _say(f"warning: {runs} multi-token runs emitted as single entities; "
                 "adjacent same-type names are indistinguishable in stanford input")
    _write_text(args.output, corpus_mod.write_corpus(converted, to_scheme))
    return 0


def cmd_validate(args) -> int:
    scheme = _scheme(args.scheme)
    sentences = corpus_mod.parse_corpus(_read_bytes(args.input), scheme)
    total = 0
    for s_idx, sentence in enumerate(sentences):
        for violation in corpus_mod.validate_tags(sentence, scheme):
            print(f"sentence {s_idx} token {violation.index}: {violation.message}")
            total += 1
    if total:
        _say(f"{total} violation(s) in {len(sentences)} sentence(s)")
        return DATA_ERROR
    print(f"ok: {len(sentences)} sentence(s) valid under {scheme.value}")
    return 0


def cmd_stats(args) -> int:
    scheme = _scheme(args.scheme)
    sentences = corpus_mod.parse_corpus(_read_bytes(args.input), scheme)
    stats = corpus_mod.corpus_stats(sentences, scheme)
    print(corpus_mod.render_stats(stats, args.format), end="")
    return 0


def cmd_translit(args) -> int:
    scheme = _scheme(args.scheme)
    table = corpus_mod.load_translit_table(_read_bytes(args.table))
    sentences = corpus_mod.parse_corpus(_read_bytes(args.input), scheme)
    out, mapped, unmapped = corpus_mod.transliterate_corpus(sentences, table)
    _write_text(args.output, corpus_mod.write_corpus(out, scheme))
    if args.format == "kv":
        print(f"characters.mapped {mapped}")
        print(f"characters.unmapped {unmapped}")
    else:
        print(f"mapped {mapped} characters, passed {unmapped} through")
    return 0


def cmd_kappa(args) -> int:
    scheme = _scheme(args.scheme)
    first = corpus_mod.parse_corpus(_read_bytes(args.first), scheme)
    second = corpus_mod.parse_corpus(_read_bytes(args.second), scheme)
    labels_a, labels_b = [], []
    if len(first) != len(second):
        raise ValueError(
            f"annotators disagree on sentence count: {len(first)} vs {len(second)}"
        )
    for idx, (a, b) in enumerate(zip(first, second)):
        if a.surfaces != b.surfaces:
            raise ValueError(f"sentence {idx}: the two files tag different tokens")
        labels_a.extend(corpus_mod.tag_to_str(t.tag, scheme) for t in a.tokens)
        labels_b.extend(corpus_mod.tag_to_str(t.tag, scheme) for t in b.tokens)
    table = metrics_mod.agreement_from_labels(labels_a, labels_b)
    kappa = metrics_mod.cohen_kappa(table)
    band = metrics_mod.interpret_kappa(kappa)
    if args.format == "kv":
        print(f"kappa {kappa!r}")
        print(f"interpretation {band}")
        print(f"items {table.total}")
    else:
        print(f"kappa {kappa:.4f}")
        print(band)
    return 0


def cmd_smote(args) -> int:
    rows = resample_mod.parse_feature_rows(_read_text(args.input))
    config = resample_mod.SmoteConfig(
        n_percent=args.n if args.n else 100, k=args.k, seed=args.seed
    )
    if args.target is not None:
        target = args.target if args.target == resample_mod.MATCH_MAJORITY else int(args.target)
        out = resample_mod.balance_token_dataset(rows, target, config)
    elif args.n:
        label = args.label
        if label is None:
            label = min(resample_mod.class_counts(rows).items(), key=lambda kv: (kv[1], kv[0]))[0]
            _say(f"note: oversampling the rarest class {label!r}")
        minority = [row for row in rows if row.label == label]
        if not minority:
            raise ValueError(f"no rows labeled {label!r}")
        synthetic = resample_mod.smote(minority, config)
        out = list(rows) + synthetic.rows
    else:
        raise UsageError("smote needs either --target or --smote-n")
    _write_text(args.output, resample_mod.write_feature_rows(out))
    counts = resample_mod.class_counts(out)
    for label, count in counts.items():
        print(f"count.{label} {count}")
    return 0


def _effective_config(args) -> TrainConfig:
    config = TrainConfig()
    if args.config:
        config = train_mod.parse_train_config(_read_text(args.config), base=config)
    if args.epochs is not None:
        config = train_mod.parse_train_config(f"max_epochs {args.epochs}", base=config)
    if args.batch is not None:
        config = train_mod.parse_train_config(f"batch_size {args.batch}", base=config)
    if args.lr is not None:
        config = train_mod.parse_train_config(f"learning_rate {args.lr}", base=config)
    if args.dropout is not None:
        config = train_mod.parse_train_config(f"dropout {args.dropout}", base=config)
    if args.clip is not None:
        config = train_mod.parse_train_config(f"clip_norm {args.clip}", base=config)
    if args.seed is not None:
        config = train_mod.parse_train_config(f"seed {args.seed}", base=config)
    return config


def cmd_train(args) -> int:
    config = _effective_config(args)
    sentences = corpus_mod.parse_corpus(_read_bytes(args.input), TagScheme.IOB2)
    dev = None
    if args.dev:
        dev = corpus_mod.parse_corpus(_read_bytes(args.dev), TagScheme.IOB2)
    pretrained = None
    if args.embeddings:
        pretrained = load_embeddings(
            _read_bytes(args.embeddings), expected_dim=args.word_dim, seed=config.seed
        )
    model = train_mod.build_model(
        sentences,
        word_dim=args.word_dim, char_dim=args.char_dim,
        char_hidden=args.char_hidden, word_hidden=args.word_hidden,
        dropout=config.dropout, seed=config.seed,
        pretrained=pretrained, masked_training=args.masked_train,
    )
    log_lines = []

    def on_epoch(entry):
        f1_text = "none" if entry.dev_f1 is None else repr(entry.dev_f1)
        line = f"epoch {entry.epoch} loss {entry.loss!r} dev_f1 {f1_text}"
        log_lines.append(line)
        _say(line)
        return False

    train_mod.train_model(sentences, model, config, dev=dev, on_epoch=on_epoch)

    manifest = {f: v for f, v in (line.split(" ", 1) for line in config.to_kv().splitlines())}
    manifest["masked_training"] = "true" if args.masked_train else "false"
    manifest["dropout_rate"] = repr(float(config.dropout))
    serialize_mod.save_model(args.model, model, manifest)
    sidecar = [f"train {args.input}", f"dev {args.dev or 'none'}",
               f"model {args.model}", f"sentences {len(sentences)}",
               f"tags {len(model.tags)}"]
    sidecar += config.to_kv().splitlines()
    sidecar += log_lines
    _write_text(args.model + ".log", "\n".join(sidecar) + "\n")
    print(f"wrote {args.model}")
    return 0


def _read_tagging_input(path: str) -> list[Sentence]:
    """Corpus reader for `tag`: 1-column (no tags) or 2-column input."""
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    for line in _read_bytes(path).decode("utf-8").split("\n"):
        line = line.rstrip("\r")
        if line.startswith("#"):
            continue
        if not line.strip():
            if tokens:
                sentences.append(Sentence(tuple(tokens)))
                tokens = []
            continue
        surface = line.split("\t")[0]
        tokens.append(Token(surface, Tag("O")))
    if tokens:
        sentences.append(Sentence(tuple(tokens)))
    return sentences


def cmd_tag(args) -> int:
    model, _ = serialize_mod.load_model(args.model)
    sentences = _read_tagging_input(args.input)
    tagged = train_mod.tag_sentences(model, sentences, masked=not args.no_mask)
    _write_text(args.output, corpus_mod.write_corpus(tagged, TagScheme.IOB2))
    _say(f"tagged {len(tagged)} sentence(s)")
    return 0


def cmd_eval(args) -> int:
    scheme = _scheme(args.scheme)
    gold = corpus_mod.parse_corpus(_read_bytes(args.gold), scheme)
    pred = corpus_mod.parse_corpus(_read_bytes(args.pred), scheme)
    if args.metric == "conll":
        result = metrics_mod.conll_evaluate(gold, pred, scheme)
        print(metrics_mod.render_conll(result, args.format), end="")
    elif args.metric == "muc":
        tally = metrics_mod.muc_evaluate(gold, pred, scheme)
        print(metrics_mod.render_muc(tally, args.format), end="")
    else:
        report = metrics_mod.semeval_evaluate(gold, pred, scheme)
        print(metrics_mod.render_semeval(report, args.format), end="")
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    surfaces = [f"tok{i}" for i in range(6)]
    sentences = []
    for _ in range(2):
        length = int(rng.integers(2, 4))
        tokens = []
        for pos in range(length):
            word = surfaces[int(rng.integers(len(surfaces)))]
            if pos == 0:
                tokens.append(Token(word, Tag("B", "PER")))
            else:
                tokens.append(Token(word, Tag("O")))
        sentences.append(Sentence(tuple(tokens)))
    model = train_mod.build_model(
        sentences, word_dim=3, char_dim=2, char_hidden=2, word_hidden=2,
        dropout=0.0, seed=args.seed,
    )
    result = train_mod.gradient_check(
        model, sentences[0], step=args.step, tolerance=args.tolerance
    )
    print(result.render(), end="")
    return 0 if result.passed else DATA_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amner",
        description="Sequence-labeling toolkit: corpus tools, SMOTE, BiLSTM-CRF tagging, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=False):
        p.add_argument("--seed", type=int, default=0, help="random seed (printed on every run)")
        if fmt:
            p.add_argument("--format", choices=("text", "kv"), default="text")

    p = sub.add_parser("convert", help="convert a corpus between tagging schemes")
    p.add_argument("--from", dest="from_scheme", required=True, help="stanford, iob1 or iob2")
    p.add_argument("--to", dest="to_scheme", required=True)
    p.add_argument("input")
    p.add_argument("output")
    add_common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("validate", help="check tag-sequence legality")
    p.add_argument("--scheme", default="iob2")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="token counts per entity type")
    p.add_argument("--scheme", default="iob2")
    p.add_argument("input")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("translit", help="transliterate token surfaces via a char table")
    p.add_argument("--table", required=True, help="TSV file: char<TAB>latin")
    p.add_argument("--scheme", default="iob2")
    p.add_argument("input")
    p.add_argument("output")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_translit)

    p = sub.add_parser("kappa", help="Cohen's kappa between two annotations of one corpus")
    p.add_argument("--scheme", default="iob2")
    p.add_argument("first")
    p.add_argument("second")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("smote", help="oversample minority classes in a feature-row file")
    p.add_argument("--smote-n", "--n", dest="n", type=int, default=None,
                   help="amount of oversampling in percent (multiple of 100)")
    p.add_argument("--smote-k", "--k", dest="k", type=int, default=5, help="neighbor count")
    p.add_argument("--target", default=None, help="per-class count or 'match-majority'")
    p.add_argument("--label", default=None, help="class to oversample in --smote-n mode")
    p.add_argument("input")
    p.add_argument("output")
    add_common(p)
    p.set_defaults(func=cmd_smote)

    p = sub.add_parser("train", help="train a tagger on an IOB2 corpus")
    p.add_argument("input", help="training corpus (IOB2 TSV)")
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--dev", default=None, help="held-out corpus scored per epoch")
    p.add_argument("--config", default=None, help="key-value config file")
    p.add_argument("--embeddings", default=None, help="pretrained word vectors (text format)")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--clip", type=float, default=None, help="global-norm gradient clip")
    p.add_argument("--masked-train", action="store_true",
                   help="apply the IOB2 constraint mask during training, not just decoding")
    p.add_argument("--word-dim", type=int, default=300)
    p.add_argument("--char-dim", type=int, default=25)
    p.add_argument("--word-hidden", type=int, default=100)
    p.add_argument("--char-hidden", type=int, default=25)
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (overrides the config file)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="decode a corpus with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--no-mask", action="store_true", help="decode without the IOB2 mask")
    p.add_argument("input", help="tokens to tag; existing tags are ignored")
    p.add_argument("output")
    add_common(p)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="entity-level evaluation of predictions against gold")
    p.add_argument("--metric", choices=("conll", "muc", "semeval"), default="conll")
    p.add_argument("--scheme", default="iob2")
    p.add_argument("gold")
    p.add_argument("pred")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = getattr(args, "seed", None)
    _say(f"seed: {0 if seed is None else seed}")
    try:
        return args.func(args)
    except UsageError as exc:
        _say(f"usage error: {exc}")
        return USAGE_ERROR
    except (ValueError, OSError, train_mod.TrainingError) as exc:
        _say(f"error: {exc}")
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
