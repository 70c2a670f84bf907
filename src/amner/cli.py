"""Command-line entry point.

Reports go to stdout, diagnostics (including the resolved seed and
progress lines) to stderr.  Exit codes: 0 success, 1 validation or data
error, 2 usage error.  Numeric flags are checked while parsing, so an
out-of-range one is a usage error; the same value read from a config file
is a data error.  Machine-readable output is available behind
``--format kv`` where a report is produced.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from time import perf_counter

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


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def cmd_convert(args) -> int:
    sentences = corpus_mod.parse_corpus(_read_bytes(args.input), args.from_scheme)
    converted = corpus_mod.convert_scheme(sentences, args.from_scheme, args.to_scheme)
    if args.to_scheme is TagScheme.STANFORD and args.from_scheme is not TagScheme.STANFORD:
        lost = corpus_mod.count_adjacent_same_type(sentences, args.from_scheme)
        if lost:
            _say(f"warning: {lost} adjacent same-type entity boundaries merged "
                 "(not representable in stanford)")
    if args.from_scheme is TagScheme.STANFORD and args.to_scheme is not TagScheme.STANFORD:
        runs = corpus_mod.count_multi_token_runs(sentences)
        if runs:
            _say(f"warning: {runs} multi-token runs emitted as single entities; "
                 "adjacent same-type names are indistinguishable in stanford input")
    _write_text(args.output, corpus_mod.write_corpus(converted, args.to_scheme))
    return 0


def cmd_validate(args) -> int:
    sentences = corpus_mod.parse_corpus(_read_bytes(args.input), args.scheme)
    violations = list(corpus_mod.corpus_violations(sentences, args.scheme))
    if violations:
        print("\n".join(violations))
        _say(f"{len(violations)} violation(s) in {len(sentences)} sentence(s)")
        return DATA_ERROR
    print(f"ok: {len(sentences)} sentence(s) valid under {args.scheme.value}")
    return 0


def cmd_stats(args) -> int:
    sentences = corpus_mod.parse_corpus(_read_bytes(args.input), args.scheme)
    stats = corpus_mod.corpus_stats(sentences, args.scheme)
    print(corpus_mod.render_stats(stats, args.format), end="")
    return 0


def cmd_translit(args) -> int:
    table = corpus_mod.load_translit_table(_read_bytes(args.table))
    sentences = corpus_mod.parse_corpus(_read_bytes(args.input), args.scheme)
    out, mapped, unmapped = corpus_mod.transliterate_corpus(sentences, table)
    _write_text(args.output, corpus_mod.write_corpus(out, args.scheme))
    if args.format == "kv":
        print(f"characters.mapped {mapped}")
        print(f"characters.unmapped {unmapped}")
    else:
        print(f"mapped {mapped} characters, passed {unmapped} through")
    return 0


def cmd_kappa(args) -> int:
    first = corpus_mod.parse_corpus(_read_bytes(args.first), args.scheme)
    second = corpus_mod.parse_corpus(_read_bytes(args.second), args.scheme)
    metrics_mod.check_aligned(first, second)
    labels_a = [corpus_mod.tag_to_str(t.tag, args.scheme) for s in first for t in s.tokens]
    labels_b = [corpus_mod.tag_to_str(t.tag, args.scheme) for s in second for t in s.tokens]
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
    if args.target is not None and (args.n is not None or args.label is not None):
        raise UsageError("--target takes neither --smote-n nor --label")
    config = resample_mod.SmoteConfig(
        n_percent=100 if args.n is None else args.n, k=args.k, seed=args.seed
    )
    rows = resample_mod.parse_feature_rows(_read_bytes(args.input))
    if args.target is not None:
        out = resample_mod.balance_token_dataset(rows, args.target, config)
    elif args.n is not None:
        label = args.label
        if label is None:
            if not rows:
                raise ValueError("dataset is empty")
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
    config = train_mod.parse_train_config(_read_bytes(args.config)) if args.config else TrainConfig()
    flags = {
        "max_epochs": args.epochs, "batch_size": args.batch, "learning_rate": args.lr,
        "dropout": args.dropout, "clip_norm": args.clip, "seed": args.seed,
    }
    # TrainConfig.__post_init__ validates the result
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


# EpochLog fields written as `epoch.N.<field> value` lines.  The .log
# sidecar gets the seed-determined ones after each `epoch N loss L dev_f1 F`
# line; the clock readings go to stderr only, so equal seeds give equal logs.
_EPOCH_STATS = ("tokens", "grad_norm_mean", "grad_norm_max", "clipped_batches")
_EPOCH_CLOCK = ("wall_s", "tok_s")


def cmd_train(args) -> int:
    config = _effective_config(args)
    _say(f"seed: {config.seed}")  # the config file's seed unless --seed overrides it
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
        stats, clock = (
            [f"epoch.{entry.epoch}.{name} {getattr(entry, name)!r}" for name in names]
            for names in (_EPOCH_STATS, _EPOCH_CLOCK)
        )
        log_lines.extend([line, *stats])
        if args.format == "kv":
            _say(f"epoch.{entry.epoch}.loss {entry.loss!r}\nepoch.{entry.epoch}.dev_f1 {f1_text}")
            _say("\n".join(stats + clock))
        else:
            _say(line)
        return False

    train_mod.train_model(sentences, model, config, dev=dev, on_epoch=on_epoch)

    manifest = {f: v for f, v in (line.split(" ", 1) for line in config.to_kv().splitlines())}
    serialize_mod.save_model(args.model, model, manifest)
    sidecar = [f"train {args.input}", f"dev {args.dev or 'none'}",
               f"model {args.model}", f"sentences {len(sentences)}",
               f"tags {len(model.tags)}"]
    sidecar += config.to_kv().splitlines()
    sidecar += log_lines
    _write_text(args.model + ".log", "\n".join(sidecar) + "\n")
    print(f"wrote {args.model}")
    return 0


def cmd_tag(args) -> int:
    model, _ = serialize_mod.load_model(args.model)
    sentences = corpus_mod.parse_corpus(_read_bytes(args.input), None)
    started = perf_counter()
    tagged = train_mod.tag_sentences(model, sentences)
    wall_s = perf_counter() - started
    _write_text(args.output, corpus_mod.write_corpus(tagged, TagScheme.IOB2))
    surfaces = [word for sentence in sentences for word in sentence.surfaces]
    oov = sum(word not in model.encoder.word_table.vocab for word in surfaces)
    tok_s = len(surfaces) / wall_s if wall_s > 0 else 0.0
    oov_rate = oov / len(surfaces) if surfaces else 0.0
    _say(f"tagged {len(tagged)} sentence(s), {len(surfaces)} token(s), "
         f"{tok_s:.1f} tok/s, oov_rate {oov_rate:.4f}")
    return 0


def cmd_eval(args) -> int:
    gold = corpus_mod.parse_corpus(_read_bytes(args.gold), args.scheme)
    pred = corpus_mod.parse_corpus(_read_bytes(args.pred), args.scheme)
    if args.metric == "conll":
        result = metrics_mod.conll_evaluate(gold, pred, args.scheme)
        print(metrics_mod.render_conll(result, args.format), end="")
    elif args.metric == "muc":
        tally = metrics_mod.muc_evaluate(gold, pred, args.scheme)
        print(metrics_mod.render_muc(tally, args.format), end="")
    else:
        report = metrics_mod.semeval_evaluate(gold, pred, args.scheme)
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


def tag_scheme(name: str) -> TagScheme:
    try:
        return TagScheme.from_name(name)
    except ValueError as exc:  # argparse prints this message and exits 2
        raise argparse.ArgumentTypeError(str(exc)) from None


def checked(kind: type, check):
    """An argparse type: ``kind(text)``, then ``check(value)``.  Argparse
    prints either failure as a usage error and exits 2."""
    def parse(text: str):
        value = kind(text)  # argparse reports "invalid <kind> value: ..."
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = kind.__name__
    return parse


def int_at_least(minimum: int):
    def check(value: int) -> None:
        if value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
    return checked(int, check)


def finite_positive(value: float) -> None:
    if not 0.0 < value < float("inf"):
        raise ValueError(f"must be finite and positive, got {value}")


def train_setting(name: str):
    """An argparse type for TrainConfig field ``name``: its type, as
    ``parse_train_config`` reads it, then TrainConfig's own bounds."""
    return checked(train_mod.field_type(name),
                   lambda value: dataclasses.replace(TrainConfig(), **{name: value}))


def count_or_match_majority(text: str) -> int | str:  # argparse names it in its usage error
    return text if text == resample_mod.MATCH_MAJORITY else int_at_least(1)(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amner",
        description="Sequence-labeling toolkit: corpus tools, SMOTE, BiLSTM-CRF tagging, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=False):
        p.add_argument("--seed", type=int_at_least(0), default=0,
                       help="random seed (printed on every run)")
        if fmt:
            p.add_argument("--format", choices=("text", "kv"), default="text")

    p = sub.add_parser("convert", help="convert a corpus between tagging schemes")
    p.add_argument("--from", dest="from_scheme", type=tag_scheme, required=True, help="stanford, iob1 or iob2")
    p.add_argument("--to", dest="to_scheme", type=tag_scheme, required=True)
    p.add_argument("input")
    p.add_argument("output")
    add_common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("validate", help="check tag-sequence legality")
    p.add_argument("--scheme", type=tag_scheme, default="iob2")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="token counts per entity type")
    p.add_argument("--scheme", type=tag_scheme, default="iob2")
    p.add_argument("input")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("translit", help="transliterate token surfaces via a char table")
    p.add_argument("--table", required=True, help="TSV file: char<TAB>latin")
    p.add_argument("--scheme", type=tag_scheme, default="iob2")
    p.add_argument("input")
    p.add_argument("output")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_translit)

    p = sub.add_parser("kappa", help="Cohen's kappa between two annotations of one corpus")
    p.add_argument("--scheme", type=tag_scheme, default="iob2")
    p.add_argument("first")
    p.add_argument("second")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("smote", help="oversample minority classes in a feature-row file")
    p.add_argument("--smote-n", "--n", dest="n", default=None,
                   type=checked(int, lambda n: resample_mod.SmoteConfig(n_percent=n)),
                   help="amount of oversampling in percent (below 100, or a multiple of 100)")
    p.add_argument("--smote-k", "--k", dest="k", type=int_at_least(1), default=5,
                   help="neighbor count")
    p.add_argument("--target", type=count_or_match_majority, help="per-class count or 'match-majority'")
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
    p.add_argument("--epochs", type=train_setting("max_epochs"), default=None)
    p.add_argument("--batch", type=train_setting("batch_size"), default=None)
    p.add_argument("--lr", type=train_setting("learning_rate"), default=None)
    p.add_argument("--dropout", type=train_setting("dropout"), default=None)
    p.add_argument("--clip", type=train_setting("clip_norm"), default=None,
                   help="global-norm gradient clip")
    p.add_argument("--masked-train", action="store_true",
                   help="apply the IOB2 constraint mask during training, not just decoding")
    p.add_argument("--word-dim", type=int_at_least(1), default=300)
    p.add_argument("--char-dim", type=int_at_least(1), default=25)
    p.add_argument("--word-hidden", type=int_at_least(1), default=100)
    p.add_argument("--char-hidden", type=int_at_least(1), default=25)
    p.add_argument("--seed", type=train_setting("seed"), default=None,
                   help="random seed (overrides the config file)")
    p.add_argument("--format", choices=("text", "kv"), default="text",
                   help="per-epoch stderr lines: the summary line, or every field as kv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="decode a corpus with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("input", help="tokens to tag; existing tags are ignored")
    p.add_argument("output")
    add_common(p)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="entity-level evaluation of predictions against gold")
    p.add_argument("--metric", choices=("conll", "muc", "semeval"), default="conll")
    p.add_argument("--scheme", type=tag_scheme, default="iob2")
    p.add_argument("gold")
    p.add_argument("pred")
    add_common(p, fmt=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
    p.add_argument("--step", type=checked(float, finite_positive), default=1e-5)
    p.add_argument("--tolerance", type=checked(float, finite_positive), default=1e-4)
    add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is not cmd_train:  # train prints the seed its config resolves to
        _say(f"seed: {args.seed}")
    return run_command(args.func, args)


def run_command(command, args) -> int:
    """``command(args)``, or 2 on a UsageError and 1 on a data error, printed to stderr."""
    try:
        return command(args)
    except UsageError as exc:
        _say(f"usage error: {exc}")
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
