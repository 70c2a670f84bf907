"""Entity-level evaluation in three styles, plus annotator agreement.

* CoNLL: a predicted span counts only on an exact (start, end, type)
  match; precision/recall/F1 per type and micro-averaged overall.
* MUC: matched span pairs are classified COR / INC / PAR, unmatched gold
  spans are MIS, unmatched predictions SPU; partial matches earn half
  credit.
* SemEval: the same matched pairs scored four ways (strict, exact,
  partial, type).

MUC and SemEval share one matching pass.  Span matching is greedy
one-to-one over the overlapping pairs, sorted once: exact boundary-plus-type
pairs first, then exact-boundary pairs, then the rest by decreasing overlap
(ties toward the earlier gold start, then the earlier predicted start).
Scores are kept as ratios in [0, 1]; rendering converts to percent.

Empty denominators follow the usual NER convention: precision or recall
is 0 when its denominator is 0, and F1 is 0 when precision + recall is 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import EntitySpan, Sentence, TagScheme, corpus_spans


def f1_from_pr(p: float, r: float) -> float:
    """Harmonic mean; works for ratios and percentages alike."""
    if p + r == 0:
        return 0.0
    return 2.0 * p * r / (p + r)


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_aligned(first: Sequence[Sentence], second: Sequence[Sentence]) -> None:
    """Raise unless two corpora hold the same sentences of the same tokens."""
    if len(first) != len(second):
        raise ValueError(f"corpora disagree: {len(first)} vs {len(second)} sentences")
    for idx, (a, b) in enumerate(zip(first, second)):
        if a.surfaces != b.surfaces:
            raise ValueError(f"sentence {idx}: token structure differs between corpora")


# ---------------------------------------------------------------------------
# CoNLL


@dataclass
class ConllTally:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return _safe_ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float:
        return _safe_ratio(self.tp, self.tp + self.fn)

    @property
    def f1(self) -> float:
        return f1_from_pr(self.precision, self.recall)


@dataclass
class ConllResult:
    per_type: dict[str, ConllTally]
    overall: ConllTally


def conll_evaluate(
    gold: Sequence[Sentence],
    pred: Sequence[Sentence],
    scheme: TagScheme = TagScheme.IOB2,
) -> ConllResult:
    """Exact-match entity scoring over aligned corpora."""
    check_aligned(gold, pred)
    per_type: dict[str, ConllTally] = {}
    overall = ConllTally()
    for g_list, p_list in zip(corpus_spans(gold, scheme), corpus_spans(pred, scheme)):
        g_spans, p_spans = set(g_list), set(p_list)
        for span in p_spans:
            tally = per_type.setdefault(span.etype, ConllTally())
            if span in g_spans:
                tally.tp += 1
                overall.tp += 1
            else:
                tally.fp += 1
                overall.fp += 1
        for span in g_spans - p_spans:
            per_type.setdefault(span.etype, ConllTally()).fn += 1
            overall.fn += 1
    return ConllResult(dict(sorted(per_type.items())), overall)


# ---------------------------------------------------------------------------
# Span matching shared by MUC and SemEval


def match_spans(
    gold: Sequence[EntitySpan], pred: Sequence[EntitySpan]
) -> tuple[list[tuple[EntitySpan, EntitySpan]], list[EntitySpan], list[EntitySpan]]:
    """Greedy one-to-one matching in the order the module docstring gives;
    returns (pairs, missed gold, spurious pred)."""
    gold = sorted(gold)
    pred = sorted(pred)
    candidates = []
    for gi, g in enumerate(gold):
        for pi, p in enumerate(pred):
            overlap = min(g.end, p.end) - max(g.start, p.start)
            if g.start == p.start and g.end == p.end:
                candidates.append((0, g.etype != p.etype, g.start, 0, gi, pi))
            elif overlap > 0:
                candidates.append((1, -overlap, g.start, p.start, gi, pi))
    candidates.sort()
    gold_free = set(range(len(gold)))
    pred_free = set(range(len(pred)))
    pairs: list[tuple[EntitySpan, EntitySpan]] = []
    for _, _, _, _, gi, pi in candidates:
        if gi in gold_free and pi in pred_free:
            gold_free.discard(gi)
            pred_free.discard(pi)
            pairs.append((gold[gi], pred[pi]))
    missed = [gold[gi] for gi in sorted(gold_free)]
    spurious = [pred[pi] for pi in sorted(pred_free)]
    return pairs, missed, spurious


# ---------------------------------------------------------------------------
# MUC


@dataclass
class MucTally:
    cor: int = 0
    inc: int = 0
    par: int = 0
    mis: int = 0
    spu: int = 0

    @property
    def possible(self) -> int:
        return self.cor + self.inc + self.par + self.mis

    @property
    def actual(self) -> int:
        return self.cor + self.inc + self.par + self.spu

    @property
    def precision(self) -> float:
        return _safe_ratio(self.cor + 0.5 * self.par, self.actual)

    @property
    def recall(self) -> float:
        return _safe_ratio(self.cor + 0.5 * self.par, self.possible)

    @property
    def f1(self) -> float:
        return f1_from_pr(self.precision, self.recall)


# category of a matched pair in each mode, by (same boundaries, same type)
_PAIR_CATEGORY = {
    "muc": {(True, True): "cor", (True, False): "inc", (False, True): "par", (False, False): "par"},
    "strict": {(True, True): "cor", (True, False): "inc", (False, True): "inc", (False, False): "inc"},
    "exact": {(True, True): "cor", (True, False): "cor", (False, True): "inc", (False, False): "inc"},
    "partial": {(True, True): "cor", (True, False): "cor", (False, True): "par", (False, False): "par"},
    "type": {(True, True): "cor", (True, False): "inc", (False, True): "cor", (False, False): "inc"},
}


def _score_matches(
    gold: Sequence[Sentence], pred: Sequence[Sentence], scheme: TagScheme
) -> dict[str, MucTally]:
    """One matching pass per sentence, tallied in every mode of ``_PAIR_CATEGORY``."""
    check_aligned(gold, pred)
    kinds: Counter[tuple[bool, bool]] = Counter()
    missed = spurious = 0
    for g_spans, p_spans in zip(corpus_spans(gold, scheme), corpus_spans(pred, scheme)):
        pairs, g_left, p_left = match_spans(g_spans, p_spans)
        kinds.update(
            ((g.start, g.end) == (p.start, p.end), g.etype == p.etype) for g, p in pairs
        )
        missed += len(g_left)
        spurious += len(p_left)
    tallies = {}
    for mode, category in _PAIR_CATEGORY.items():
        counts: Counter[str] = Counter()
        for kind, count in kinds.items():
            counts[category[kind]] += count
        tallies[mode] = MucTally(**counts, mis=missed, spu=spurious)
    return tallies


def muc_evaluate(
    gold: Sequence[Sentence],
    pred: Sequence[Sentence],
    scheme: TagScheme = TagScheme.IOB2,
) -> MucTally:
    """MUC categories over aligned corpora.

    A matched pair is COR when boundaries and type agree, INC when the
    boundaries agree but the type does not, and PAR when the boundaries
    merely overlap.
    """
    return _score_matches(gold, pred, scheme)["muc"]


# ---------------------------------------------------------------------------
# SemEval


SEMEVAL_MODES = ("strict", "exact", "partial", "type")


def semeval_evaluate(
    gold: Sequence[Sentence],
    pred: Sequence[Sentence],
    scheme: TagScheme = TagScheme.IOB2,
) -> dict[str, MucTally]:
    """Score one matching pass four ways, as a tally per mode.

    strict: boundaries and type must agree.  exact: boundaries must
    agree, type is ignored.  partial: exact boundaries count fully,
    overlapping boundaries earn half credit.  type: the types must agree
    on any overlapping pair.
    """
    tallies = _score_matches(gold, pred, scheme)
    return {mode: tallies[mode] for mode in SEMEVAL_MODES}


# ---------------------------------------------------------------------------
# Cohen's kappa


@dataclass
class AgreementTable:
    """Square confusion matrix of two annotators over the same items."""

    labels: list[str]
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        n = len(self.labels)
        if self.counts.shape != (n, n):
            raise ValueError(f"counts must be {n}x{n}, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def observed_agreement(self) -> float:
        return float(np.trace(self.counts)) / self.total

    @property
    def chance_agreement(self) -> float:
        total = self.total
        rows = self.counts.sum(axis=1) / total
        cols = self.counts.sum(axis=0) / total
        return float(rows @ cols)


def agreement_from_labels(a: Sequence[str], b: Sequence[str]) -> AgreementTable:
    """Confusion table for two annotators' label sequences over the same items."""
    if len(a) != len(b):
        raise ValueError(f"annotators labeled {len(a)} vs {len(b)} items")
    labels = sorted(set(a) | set(b))
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for la, lb in zip(a, b):
        counts[index[la], index[lb]] += 1
    return AgreementTable(labels, counts)


def cohen_kappa(table: AgreementTable) -> float:
    """(p_o - p_e) / (1 - p_e) for a two-annotator confusion table."""
    if table.total < 1:
        raise ValueError("agreement table is empty")
    p_e = table.chance_agreement
    if p_e >= 1.0:
        raise ValueError("agreement by chance is total: kappa is undefined")
    return (table.observed_agreement - p_e) / (1.0 - p_e)


_KAPPA_BANDS = (
    (0.21, "Slight agreement"),
    (0.41, "Fair agreement"),
    (0.61, "Moderate agreement"),
    (0.81, "Substantial agreement"),
    (1.0, "Near perfect agreement"),
)


def interpret_kappa(k: float) -> str:
    """Band label for a kappa value; bands are half-open at the top."""
    if k > 1.0:
        raise ValueError(f"kappa {k} exceeds 1")
    if k <= 0.0:
        return "Agreement equivalent to chance"
    for upper, label in _KAPPA_BANDS:
        if k < upper:
            return label
    return "Perfect agreement"


# ---------------------------------------------------------------------------
# Rendering


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}"


_CONLL_FIELDS = ("tp", "fp", "fn", "precision", "recall", "f1")
_MUC_FIELDS = ("cor", "inc", "par", "mis", "spu", "possible", "actual", "precision", "recall", "f1")


def _kv(prefix: str, tally, fields: Sequence[str]) -> list[str]:
    """`prefix + field value` lines; the repr of an int is its str."""
    return [f"{prefix}{name} {getattr(tally, name)!r}" for name in fields]


def render_conll(result: ConllResult, fmt: str = "text") -> str:
    lines: list[str] = []
    if fmt == "kv":
        for etype, tally in result.per_type.items():
            lines.extend(_kv(f"type.{etype}.", tally, _CONLL_FIELDS))
        lines.extend(_kv("overall.", result.overall, _CONLL_FIELDS))
    elif fmt == "text":
        width = max([7] + [len(t) for t in result.per_type])
        lines.append(f"{'type':<{width}}  {'prec':>7}  {'recall':>7}  {'f1':>7}  {'tp':>5} {'fp':>5} {'fn':>5}")
        for etype, tally in result.per_type.items():
            lines.append(
                f"{etype:<{width}}  {_pct(tally.precision):>7}  {_pct(tally.recall):>7}  "
                f"{_pct(tally.f1):>7}  {tally.tp:>5} {tally.fp:>5} {tally.fn:>5}"
            )
        o = result.overall
        lines.append(
            f"{'overall':<{width}}  {_pct(o.precision):>7}  {_pct(o.recall):>7}  "
            f"{_pct(o.f1):>7}  {o.tp:>5} {o.fp:>5} {o.fn:>5}"
        )
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def render_muc(tally: MucTally, fmt: str = "text") -> str:
    if fmt == "kv":
        return "\n".join(_kv("", tally, _MUC_FIELDS)) + "\n"
    if fmt == "text":
        lines = [
            f"COR {tally.cor}  INC {tally.inc}  PAR {tally.par}  "
            f"MIS {tally.mis}  SPU {tally.spu}",
            f"possible {tally.possible}  actual {tally.actual}",
            f"precision {_pct(tally.precision)}  recall {_pct(tally.recall)}  f1 {_pct(tally.f1)}",
        ]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_semeval(report: dict[str, MucTally], fmt: str = "text") -> str:
    if fmt == "kv":
        lines: list[str] = []
        for mode in SEMEVAL_MODES:
            lines.extend(_kv(f"{mode}.", report[mode], _MUC_FIELDS))
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = [f"{'mode':<8}  {'prec':>7}  {'recall':>7}  {'f1':>7}"]
        for mode in SEMEVAL_MODES:
            tally = report[mode]
            lines.append(
                f"{mode:<8}  {_pct(tally.precision):>7}  {_pct(tally.recall):>7}  {_pct(tally.f1):>7}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
