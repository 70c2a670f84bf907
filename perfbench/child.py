"""One workload in one fresh process, driven by a single-threaded closed loop.

``run.py`` starts this script with the generated inputs, ``PYTHONPATH``
pointing at the checkout's ``src`` and the BLAS thread count fixed.  It
calls the toolkit's public API in the order ``amner.cli`` does, times
each operation, checks every output, and writes a JSON result file.
With ``--trace 1`` the public functions listed in ``TRACED`` are wrapped
in spans first, and the result carries the per-layer numbers.

Each operation waits for the previous one; nothing runs concurrently.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from tracing import Tracer, patch
from workloads import TRAIN_BATCH

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_MIN_S = 2.5
DEV_AFTER_OPS = 6  # dev F1 is scored after this fixed prefix, so it is seed-determined
DEV_SENTENCES = 40
WORD_DIM = 300

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Per-layer metrics of the traced run, with units; ``trace.*`` is computed by run.py.
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"] if not m["name"].startswith("trace.")}
# A metric named ``<module>.<function>.<field>`` comes from the span of that
# public function, so those functions are the ones traced.
TRACED = tuple(dict.fromkeys(name.rsplit(".", 1)[0] for name in PER_LAYER if name.count(".") == 2))

_TRAIN_SPANS = (
    "corpus.parse_corpus", "train.build_model", "train.train_model",
    "train.sentence_loss_and_grads", "model.encode_forward", "model.encode_backward",
    "crf.nll_loss_and_grad", "train.adam_step", "train.tag_sentences", "crf.viterbi_decode",
    "metrics.conll_evaluate", "serialize.model_to_bytes", "serialize.model_from_bytes",
)
# Spans each workload is predicted to use; the traced run fails if one records no call.
EXPECTED_SPANS = {
    "train-closed-vocab": _TRAIN_SPANS,
    "train-open-vocab": _TRAIN_SPANS + ("model.load_embeddings",),
    "tag-eval": (
        "serialize.model_from_bytes", "corpus.parse_corpus", "train.tag_sentences",
        "model.encode_forward", "crf.viterbi_decode", "corpus.write_corpus",
        "metrics.conll_evaluate", "metrics.muc_evaluate", "metrics.semeval_evaluate",
    ),
    "smote-balance": (
        "resample.parse_feature_rows", "resample.balance_token_dataset", "resample.smote",
        "resample.knn_minority", "resample.populate_synthetic",
    ),
}


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ledger:
    """Counts attempted operations and records the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # keep the loop running; the failure is counted
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


def _tokens(sentences) -> int:
    return sum(len(s.tokens) for s in sentences)


# Fixed numpy work that does not touch the toolkit: small matrix-vector
# steps with elementwise nonlinearities, as in an LSTM, and stacking and
# distances over width-300 rows, as in SMOTE.  It is timed right before
# every operation and set-up, so each timing comes with the speed the
# shared machine had at that moment (see NOTES.md, "Noise").  The large
# arrays are preallocated, so its time does not depend on the allocator
# state the toolkit left behind.
_REF_RNG = np.random.default_rng(12345)
_REF_W = _REF_RNG.standard_normal((400, 100)) * 0.1
_REF_X = _REF_RNG.standard_normal(100)
_REF_ROWS = list(_REF_RNG.standard_normal((200, 300)))
_REF_M = np.empty((200, 300))
_REF_D = np.empty(200)
# Nominal time of the reference work.  run.py scales the JSON times and
# rates to the machine speed at which it takes this long.
REF_S = 0.02


def _reference_work() -> None:
    h = _REF_X
    for _ in range(600):
        z = _REF_W @ h
        h = np.tanh(z[:100]) * (1.0 / (1.0 + np.exp(-z[100:200])))
    for row in _REF_ROWS[:40]:
        np.stack(_REF_ROWS, out=_REF_M)
        np.subtract(_REF_M, row, out=_REF_M)
        np.square(_REF_M, out=_REF_M)
        _REF_M.sum(axis=1, out=_REF_D)


def reference_s() -> float:
    """Wall time of one run of the reference work, with its data already in cache."""
    _reference_work()  # untimed: loads the arrays the toolkit's last call evicted
    start = perf_counter()
    _reference_work()
    return perf_counter() - start


def _timed(call):
    """``call()``, its wall time, the CPU time this process spent on it,
    and the wall time of the reference work run just before it."""
    ref = reference_s()
    wall, cpu = perf_counter(), process_time()
    result = call()
    return result, perf_counter() - wall, process_time() - cpu, ref


def _setup(build):
    """Run ``build`` at least SETUP_REPEATS times and for SETUP_MIN_S seconds.

    Returns the last state and [wall, reference] seconds for every set-up.  Short
    set-ups are repeated more, so that a burst of interference from other
    processes on the machine cannot cover all of them.  The previous state
    is dropped before each rebuild, so two states are never alive at once.
    """
    times = []
    while len(times) < SETUP_REPEATS or sum(wall for wall, _ in times) < SETUP_MIN_S:
        state = None
        state, wall, _, ref = _timed(build)
        times.append([wall, ref])
    return state, times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_tagged(amner, source, tagged) -> None:
    """Valid IOB2 output with exactly one tag per input token."""
    require(len(tagged) == len(source), "tagger dropped or added sentences")
    for src, out in zip(source, tagged):
        require(out.surfaces == src.surfaces, "tagger changed the tokens")
        require(not amner.corpus.validate_tags(out, amner.corpus.TagScheme.IOB2),
                "tagger output is not valid IOB2")


def run_train(amner, args, ledger: Ledger, open_vocab: bool) -> dict:
    corpus, train, serialize = amner.corpus, amner.train, amner.serialize
    iob2 = corpus.TagScheme.IOB2
    inputs = Path(args.inputs)

    def build():
        sentences = corpus.parse_corpus((inputs / "train.tsv").read_bytes(), iob2)
        pretrained, extra = None, ()
        if open_vocab:
            heldout = corpus.parse_corpus((inputs / "heldout.tsv").read_bytes(), iob2)
            dev = heldout[:DEV_SENTENCES]
            extra = [tok.surface for sentence in heldout for tok in sentence.tokens]
            pretrained = amner.model.load_embeddings(
                (inputs / "vectors.txt").read_bytes(), expected_dim=WORD_DIM, seed=args.seed
            )
        else:
            dev = corpus.parse_corpus((inputs / "dev.tsv").read_bytes(), iob2)
        model = train.build_model(
            sentences, word_dim=WORD_DIM, dropout=0.5, seed=args.seed,
            pretrained=pretrained, extra_vocab=extra,
        )
        return sentences, dev, model

    (sentences, dev, model), setup_times = _setup(build)
    setup_rss_mb = _peak_rss_mb()

    ops, dev_f1, paused = [], None, 0.0
    started = perf_counter()
    op = 0
    while op < DEV_AFTER_OPS or perf_counter() - started - paused < args.seconds:
        # one generated batch per closed-loop training call
        first = op * TRAIN_BATCH % len(sentences)
        chunk = sentences[first : first + TRAIN_BATCH]
        config = train.TrainConfig(max_epochs=1, batch_size=TRAIN_BATCH, dropout=0.5, seed=args.seed + op)
        with ledger.op("train"):
            logs, *times = _timed(lambda: train.train_model(chunk, model, config))
            ops.append([_tokens(chunk), *times])
            require(all(np.isfinite(entry.loss) for entry in logs), "non-finite training loss")
        op += 1
        if op == DEV_AFTER_OPS:
            pause = perf_counter()
            with ledger.op("dev scoring"):
                predicted = train.tag_sentences(model, dev)
                _check_tagged(amner, dev, predicted)
                dev_f1 = amner.metrics.conll_evaluate(dev, predicted).overall.f1
            paused += perf_counter() - pause

    with ledger.op("model round trip"):
        path = inputs / "trained.model"
        serialize.save_model(path, model, {"seed": str(args.seed)})
        loaded, _ = serialize.load_model(path)
        require(loaded.tags == model.tags, "reloaded tag list differs")
        require(loaded.encoder.word_table.vocab == model.encoder.word_table.vocab
                and loaded.encoder.char_table.vocab == model.encoder.char_table.vocab,
                "reloaded vocabularies differ")
        before, after = model.tensors(), loaded.tensors()
        require(before.keys() == after.keys(), "reloaded tensor names differ")
        for name, array in before.items():
            require(array.shape == after[name].shape and array.tobytes() == after[name].tobytes(),
                    f"reloaded tensor {name} is not bit-equal")

    return {
        "setup": setup_times,
        "setup_rss_mb": setup_rss_mb,
        "ops": {"train_tok_s": ops},
        "dev_f1": dev_f1,
    }


def run_tag_eval(amner, args, ledger: Ledger, fixture_done) -> dict:
    corpus, train, metrics, serialize = amner.corpus, amner.train, amner.metrics, amner.serialize
    iob2 = corpus.TagScheme.IOB2
    inputs = Path(args.inputs)
    model_path = inputs / "tagger.model"
    # fixture, untimed and untraced: an untrained default-size tagger whose
    # vocabulary is that of train.tsv
    vocab_corpus = corpus.parse_corpus((inputs / "train.tsv").read_bytes(), iob2)
    serialize.save_model(model_path, train.build_model(vocab_corpus, seed=args.seed))
    fixture_done()

    docs = sorted(inputs.glob("doc_*.tsv"))

    def build():
        model, _ = serialize.load_model(model_path)
        return model, [corpus.parse_corpus(doc.read_bytes(), iob2) for doc in docs]

    (model, parsed), setup_times = _setup(build)
    setup_rss_mb = _peak_rss_mb()

    with ledger.op("gold scored against itself"):
        f1 = metrics.conll_evaluate(parsed[0], parsed[0]).overall.f1
        require(f1 == 1.0, f"gold-vs-gold CoNLL F1 is {f1}, not 1.0")

    vocab = model.encoder.word_table.vocab
    tag_tokens = oov = types = 0
    tag_ops, eval_ops = [], []
    pred_path = inputs / "predicted.tsv"

    def tag(sentences):
        tagged = train.tag_sentences(model, sentences)
        pred_path.write_text(corpus.write_corpus(tagged, iob2), encoding="utf-8")
        return tagged

    def score(gold_path):
        for evaluate, render in (
            (metrics.conll_evaluate, metrics.render_conll),
            (metrics.muc_evaluate, metrics.render_muc),
            (metrics.semeval_evaluate, metrics.render_semeval),
        ):
            gold = corpus.parse_corpus(gold_path.read_bytes(), iob2)
            pred = corpus.parse_corpus(pred_path.read_bytes(), iob2)
            render(evaluate(gold, pred), "kv")

    started = perf_counter()
    doc = 0
    while doc == 0 or perf_counter() - started < args.seconds:
        gold_path, sentences = docs[doc % len(docs)], parsed[doc % len(docs)]
        doc += 1
        with ledger.op("tag"):
            tagged, *times = _timed(lambda: tag(sentences))
            tag_ops.append([_tokens(sentences), *times])
            _check_tagged(amner, sentences, tagged)
        surfaces = [tok.surface for sentence in sentences for tok in sentence.tokens]
        tag_tokens += len(surfaces)
        oov += sum(1 for word in surfaces if word not in vocab)
        types += len(set(surfaces))
        with ledger.op("eval"):
            _, *times = _timed(lambda: score(gold_path))
            eval_ops.append([_tokens(sentences), *times])

    return {
        "setup": setup_times,
        "setup_rss_mb": setup_rss_mb,
        "ops": {"tag_tok_s": tag_ops, "eval_tok_s": eval_ops},
        "counts": {"tag.oov_rate": oov / tag_tokens, "tag.tokens_per_type": tag_tokens / types},
    }


def _check_balance(resample, rows, out, records, goal) -> None:
    """The SMOTE contract on one balance_token_dataset call."""
    before, after = resample.class_counts(rows), resample.class_counts(out)
    require(after.keys() == before.keys(), "labels were added or lost")
    require(all(count == goal for count in after.values()), f"class counts {after} != {goal}")
    known = {id(row) for row in rows}
    for members, synthetic in records:
        label, matrix = members[0].label, np.stack([m.values for m in members])
        src = np.array([p.source for p in synthetic.provenance])
        nbr = np.array([p.neighbor for p in synthetic.provenance])
        gap = np.array([p.gap for p in synthetic.provenance])
        require(len(src) == len(synthetic.rows), "provenance and rows differ in length")
        require(src.min() >= 0 and nbr.min() >= 0 and max(src.max(), nbr.max()) < len(members)
                and not np.any(src == nbr), "provenance index out of range or self-paired")
        require(np.all((gap >= 0.0) & (gap < 1.0)), "gap outside [0, 1)")
        require(all(row.label == label for row in synthetic.rows), "synthetic row changed label")
        values = np.stack([row.values for row in synthetic.rows])
        on_segment = matrix[src] + gap[:, None] * (matrix[nbr] - matrix[src])
        require(np.array_equal(values, on_segment), "synthetic row off its source-neighbour segment")
        known.update(id(row) for row in synthetic.rows)
    require(all(id(row) in known for row in out), "output row of unknown origin")
    present = {id(row) for row in out}
    require(all(id(row) in present for row in rows if before[row.label] <= goal),
            "an original row of an oversampled class is missing")


def run_smote(amner, args, ledger: Ledger) -> dict:
    resample = amner.resample
    text_path = Path(args.inputs) / "rows.tsv"
    rows, setup_times = _setup(lambda: resample.parse_feature_rows(text_path.read_text(encoding="utf-8")))
    setup_rss_mb = _peak_rss_mb()
    counts = resample.class_counts(rows)
    goal = max(counts.values())
    synthetic_per_op = sum(goal - count for count in counts.values())

    records = []
    smote = resample.smote

    def recording_smote(minority, config):
        result = smote(minority, config)
        records.append((minority, result))
        return result

    resample.smote = recording_smote  # balance_token_dataset looks smote up in its module

    ops = []
    started = perf_counter()
    op = 0
    while op == 0 or perf_counter() - started < args.seconds:
        config = resample.SmoteConfig(n_percent=100, k=5, seed=args.seed + op)
        op += 1
        records.clear()
        with ledger.op("smote balance"):
            out, *times = _timed(
                lambda: resample.balance_token_dataset(rows, resample.MATCH_MAJORITY, config)
            )
            ops.append([synthetic_per_op, *times])
            _check_balance(resample, rows, out, records, goal)

    return {
        "setup": setup_times,
        "setup_rss_mb": setup_rss_mb,
        "ops": {"smote_rows_s": ops},
    }


def _count_grad_bytes(totals: dict):
    """Wrap ``encode_backward`` so that it adds up the bytes of the gradients it returns."""

    def make_wrapper(encode_backward):
        @functools.wraps(encode_backward)
        def counted(*args, **kwargs):
            grads = encode_backward(*args, **kwargs)
            totals["grad_bytes"] += sum(array.nbytes for array in grads.values())
            return grads

        return counted

    return make_wrapper


def _per_layer(summary: dict, counts: dict, grad_bytes: float) -> dict:
    """Every PER_LAYER value; layers the workload never called read 0."""
    out = {}
    for name in PER_LAYER:
        span, field = name.rsplit(".", 1)
        calls = summary.get(span, {}).get("calls", 0)
        if name in counts:
            out[name] = counts[name]
        elif name == "model.encode_backward.grad_mb":  # mean per call
            out[name] = grad_bytes / 1e6 / calls if calls else 0.0
        else:
            out[name] = summary.get(span, {}).get(field, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(EXPECTED_SPANS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import amner
    import amner.cli  # noqa: F401  (loads every module, as a command-line run does)

    source = Path(amner.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: amner imported from {source}, not from this checkout", file=sys.stderr)
        return 1

    tracer = Tracer() if args.trace else None
    totals = {"grad_bytes": 0}

    def start_tracing():
        if tracer is not None:
            patch("model.encode_backward", _count_grad_bytes(totals))
            for target in TRACED:
                tracer.install(target)

    ledger = Ledger()
    if args.workload.startswith("train-"):
        start_tracing()
        result = run_train(amner, args, ledger, open_vocab=args.workload == "train-open-vocab")
    elif args.workload == "tag-eval":
        result = run_tag_eval(amner, args, ledger, start_tracing)
    else:
        start_tracing()
        result = run_smote(amner, args, ledger)

    result["attempted"] = ledger.attempted
    result["failures"] = ledger.failures
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        traced = tracer.summary()
        result["per_layer"] = _per_layer(traced, result.pop("counts", {}), totals["grad_bytes"])
        result["missing_spans"] = [s for s in EXPECTED_SPANS[args.workload] if s not in traced]
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
