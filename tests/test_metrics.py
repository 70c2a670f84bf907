import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amner.corpus import EntitySpan, Sentence, TagScheme, Token, corpus_spans, tag_from_str
from amner.metrics import (
    AgreementTable,
    MucTally,
    agreement_from_labels,
    cohen_kappa,
    conll_evaluate,
    f1_from_pr,
    interpret_kappa,
    match_spans,
    muc_evaluate,
    render_conll,
    render_muc,
    render_semeval,
    semeval_evaluate,
)

IOB2 = TagScheme.IOB2


def sent(row, surfaces=None):
    if surfaces is None:
        surfaces = [f"w{idx}" for idx in range(len(row))]
    return Sentence(
        tuple(Token(s, tag_from_str(t, IOB2)) for s, t in zip(surfaces, row))
    )


def random_row(rng, length):
    row, prev = [], None
    for _ in range(length):
        roll = int(rng.integers(0, 3 if prev else 2))
        if roll == 0:
            row.append("O")
            prev = None
        elif roll == 1:
            prev = ["PER", "LOC", "ORG"][int(rng.integers(3))]
            row.append(f"B-{prev}")
        else:
            row.append(f"I-{prev}")
    return row


def random_pair(rng, n_sentences=8):
    gold, pred = [], []
    for _ in range(n_sentences):
        length = int(rng.integers(1, 10))
        g_row, p_row = random_row(rng, length), random_row(rng, length)
        surfaces = [f"w{idx}" for idx in range(length)]
        gold.append(sent(g_row, surfaces))
        pred.append(sent(p_row, surfaces))
    return gold, pred


class TestF1:
    def test_pinned_value_one(self):
        assert abs(f1_from_pr(91.42, 95.01) - 93.18) <= 0.005

    def test_pinned_value_two(self):
        assert abs(f1_from_pr(72.92, 75.37) - 74.12) <= 0.005

    def test_fixed_point(self):
        assert f1_from_pr(0.4, 0.4) == pytest.approx(0.4)

    def test_zero_convention(self):
        assert f1_from_pr(0.0, 0.0) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, r = rng.random(2)
            assert f1_from_pr(p, r) == pytest.approx(f1_from_pr(r, p))


class TestConll:
    def test_worked_example(self):
        gold = [sent(["B-PER", "I-PER", "O", "B-LOC"])]
        pred = [sent(["B-PER", "I-PER", "O", "B-ORG"])]
        result = conll_evaluate(gold, pred)
        assert (result.overall.tp, result.overall.fp, result.overall.fn) == (1, 1, 1)
        assert result.overall.precision == 0.5
        assert result.overall.recall == 0.5
        assert result.overall.f1 == 0.5

    def test_identity_scores_one(self):
        gold = [sent(["B-PER", "O", "B-LOC", "I-LOC"])]
        result = conll_evaluate(gold, gold)
        assert result.overall.precision == 1.0
        assert result.overall.recall == 1.0
        assert result.overall.f1 == 1.0

    def test_all_o_prediction(self):
        gold = [sent(["B-PER", "O"])]
        pred = [sent(["O", "O"])]
        result = conll_evaluate(gold, pred)
        assert result.overall.precision == 0.0
        assert result.overall.recall == 0.0

    def test_per_type_breakdown(self):
        gold = [sent(["B-PER", "O", "B-LOC"])]
        pred = [sent(["B-PER", "O", "B-ORG"])]
        result = conll_evaluate(gold, pred)
        assert result.per_type["PER"].tp == 1
        assert result.per_type["ORG"].fp == 1
        assert result.per_type["LOC"].fn == 1

    def test_overall_is_sum_of_types(self):
        rng = np.random.default_rng(5)
        gold, pred = random_pair(rng)
        result = conll_evaluate(gold, pred)
        assert result.overall.tp == sum(t.tp for t in result.per_type.values())
        assert result.overall.fp == sum(t.fp for t in result.per_type.values())
        assert result.overall.fn == sum(t.fn for t in result.per_type.values())

    def test_structure_mismatch_rejected(self):
        gold = [sent(["O", "O"])]
        pred = [sent(["O"])]
        with pytest.raises(ValueError, match="sentence 0"):
            conll_evaluate(gold, pred)

    def test_sentence_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="corpora disagree"):
            conll_evaluate([sent(["O"])], [])

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(9)
        gold, pred = random_pair(rng)
        order = list(rng.permutation(len(gold)))
        gold_p = [gold[i] for i in order]
        pred_p = [pred[i] for i in order]
        assert conll_evaluate(gold, pred).overall.f1 == pytest.approx(
            conll_evaluate(gold_p, pred_p).overall.f1
        )
        assert muc_evaluate(gold, pred) == muc_evaluate(gold_p, pred_p)
        base = semeval_evaluate(gold, pred)
        shuffled = semeval_evaluate(gold_p, pred_p)
        assert base == shuffled


class TestMuc:
    def test_tally_arithmetic(self):
        tally = MucTally(cor=3, inc=1, par=1, mis=1, spu=1)
        assert tally.possible == 6
        assert tally.actual == 6
        assert tally.precision == pytest.approx(3.5 / 6)
        assert tally.recall == pytest.approx(3.5 / 6)

    def test_identity(self):
        gold = [sent(["B-PER", "I-PER", "O", "B-LOC"])]
        tally = muc_evaluate(gold, gold)
        assert tally.cor == 2
        assert (tally.inc, tally.par, tally.mis, tally.spu) == (0, 0, 0, 0)
        assert tally.f1 == 1.0

    def test_empty_prediction(self):
        gold = [sent(["B-PER", "O", "B-LOC"])]
        pred = [sent(["O", "O", "O"])]
        tally = muc_evaluate(gold, pred)
        assert tally.mis == 2
        assert tally.recall == 0.0

    def test_categories(self):
        # boundary+type, boundary-only, overlap, miss, spurious
        gold = [sent(["B-PER", "O", "B-LOC", "I-LOC", "O", "B-ORG", "O", "B-PER"])]
        pred = [sent(["B-PER", "O", "B-ORG", "I-ORG", "I-ORG", "O", "O", "O"])]
        tally = muc_evaluate(gold, pred)
        # gold (0,1,PER) == pred (0,1,PER) -> COR
        # gold (2,4,LOC) vs pred (2,5,ORG) -> PAR (overlap, bounds differ)
        # gold (5,6,ORG): pred span (2,5) already taken -> MIS
        # gold (7,8,PER) unmatched -> MIS
        assert tally.cor == 1
        assert tally.par == 1
        assert tally.mis == 2
        assert tally.spu == 0

    def test_pos_act_identities(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            gold, pred = random_pair(rng, n_sentences=4)
            tally = muc_evaluate(gold, pred)
            n_gold = sum(map(len, corpus_spans(gold, IOB2)))
            n_pred = sum(map(len, corpus_spans(pred, IOB2)))
            assert tally.possible == n_gold
            assert tally.actual == n_pred


@st.composite
def disjoint_spans(draw):
    """A shuffled list of non-overlapping spans, as one sentence yields."""
    spans, end = [], 0
    shapes = st.tuples(st.integers(0, 2), st.integers(1, 3), st.sampled_from(["LOC", "PER"]))
    for gap, width, etype in draw(st.lists(shapes, max_size=6)):
        spans.append(EntitySpan(end + gap, end + gap + width, etype))
        end += gap + width
    return draw(st.permutations(spans))


class TestMatching:
    @settings(max_examples=300, deadline=None)
    @given(gold=disjoint_spans(), pred=disjoint_spans())
    def test_greedy_matching_properties(self, gold, pred):
        pairs, missed, spurious = match_spans(gold, pred)
        paired_gold = [g for g, _ in pairs]
        paired_pred = [p for _, p in pairs]
        assert len(set(paired_gold)) == len(set(paired_pred)) == len(pairs)
        assert all(g.overlaps(p) for g, p in pairs)
        for g in gold:
            for p in pred:
                if (g.start, g.end) == (p.start, p.end):
                    assert (g, p) in pairs
        assert not any(g.overlaps(p) for g in missed for p in spurious)
        assert sorted(paired_gold + missed) == sorted(gold)
        assert sorted(paired_pred + spurious) == sorted(pred)

    def test_exact_pairs_first(self):
        gold = [EntitySpan(0, 2, "ORG"), EntitySpan(2, 4, "ORG")]
        pred = [EntitySpan(0, 2, "ORG"), EntitySpan(2, 4, "LOC")]
        pairs, missed, spurious = match_spans(gold, pred)
        assert (gold[0], pred[0]) in pairs
        assert (gold[1], pred[1]) in pairs
        assert not missed and not spurious

    def test_overlap_tie_breaks_to_earlier_gold(self):
        gold = [EntitySpan(0, 2, "PER"), EntitySpan(3, 5, "PER")]
        pred = [EntitySpan(1, 4, "PER")]
        pairs, missed, spurious = match_spans(gold, pred)
        assert pairs == [(gold[0], pred[0])]
        assert missed == [gold[1]]

    def test_one_to_one(self):
        gold = [EntitySpan(0, 5, "PER")]
        pred = [EntitySpan(0, 2, "PER"), EntitySpan(3, 5, "PER")]
        pairs, missed, spurious = match_spans(gold, pred)
        assert len(pairs) == 1
        assert len(spurious) == 1


class TestSemeval:
    def test_worked_example(self):
        gold = [sent(["B-ORG", "I-ORG", "O", "O", "O", "B-LOC", "O"])]
        pred = [sent(["B-ORG", "I-ORG", "O", "O", "O", "B-LOC", "I-LOC"])]
        report = semeval_evaluate(gold, pred)
        assert report["strict"].precision == 0.5
        assert report["strict"].recall == 0.5
        assert report["exact"].precision == 0.5
        assert report["partial"].precision == 0.75
        assert report["partial"].recall == 0.75
        assert report["type"].precision == 1.0
        assert report["type"].recall == 1.0

    def test_identity_all_modes(self):
        gold = [sent(["B-PER", "I-PER", "O", "B-LOC"])]
        report = semeval_evaluate(gold, gold)
        for mode in ("strict", "exact", "partial", "type"):
            assert report[mode].f1 == 1.0

    def test_pos_act_identities_per_mode(self):
        rng = np.random.default_rng(31)
        gold, pred = random_pair(rng)
        report = semeval_evaluate(gold, pred)
        n_gold = sum(map(len, corpus_spans(gold, IOB2)))
        n_pred = sum(map(len, corpus_spans(pred, IOB2)))
        for mode, tally in report.items():
            assert tally.possible == tally.cor + tally.inc + tally.par + tally.mis
            assert tally.actual == tally.cor + tally.inc + tally.par + tally.spu
            assert tally.possible == n_gold
            assert tally.actual == n_pred

    def test_metric_ordering_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            gold, pred = random_pair(rng, n_sentences=5)
            conll_f1 = conll_evaluate(gold, pred).overall.f1
            report = semeval_evaluate(gold, pred)
            assert conll_f1 <= report["exact"].f1 + 1e-12
            assert report["exact"].f1 <= report["partial"].f1 + 1e-12
            assert report["strict"].precision <= report["exact"].precision + 1e-12
            assert report["strict"].recall <= report["exact"].recall + 1e-12


class TestKappa:
    def test_perfect_agreement(self):
        table = agreement_from_labels(["A", "B", "A"], ["A", "B", "A"])
        assert cohen_kappa(table) == 1.0

    def test_hand_built_two_by_two(self):
        table = AgreementTable(["no", "yes"], np.array([[4, 1], [1, 4]]))
        assert cohen_kappa(table) == pytest.approx(0.6, abs=1e-12)

    def test_empty_rejected(self):
        table = AgreementTable(["a"], np.array([[0]]))
        with pytest.raises(ValueError, match="empty"):
            cohen_kappa(table)

    def test_total_chance_agreement_rejected(self):
        table = agreement_from_labels(["A", "A"], ["A", "A"])
        with pytest.raises(ValueError, match="chance"):
            cohen_kappa(table)

    def test_interpretation_bands(self):
        assert interpret_kappa(0.7321) == "Substantial agreement"
        assert interpret_kappa(1.0) == "Perfect agreement"
        assert interpret_kappa(0.0) == "Agreement equivalent to chance"
        assert interpret_kappa(-0.3) == "Agreement equivalent to chance"
        assert interpret_kappa(0.15) == "Slight agreement"
        assert interpret_kappa(0.21) == "Fair agreement"
        assert interpret_kappa(0.55) == "Moderate agreement"
        assert interpret_kappa(0.80) == "Substantial agreement"
        assert interpret_kappa(0.81) == "Near perfect agreement"
        assert interpret_kappa(0.999) == "Near perfect agreement"

    def test_kappa_above_one_rejected(self):
        with pytest.raises(ValueError):
            interpret_kappa(1.2)


class TestRendering:
    def test_conll_text_and_kv(self):
        gold = [sent(["B-PER", "O"])]
        result = conll_evaluate(gold, gold)
        text = render_conll(result, "text")
        assert "overall" in text and "100.00" in text
        kv = render_conll(result, "kv")
        assert "overall.f1 1.0" in kv

    def test_muc_render(self):
        tally = MucTally(cor=3, inc=1, par=1, mis=1, spu=1)
        assert "COR 3" in render_muc(tally, "text")
        assert "precision 58.33" in render_muc(tally, "text")
        assert "possible 6" in render_muc(tally, "kv")

    def test_semeval_render(self):
        report = {m: MucTally(cor=1) for m in ("strict", "exact", "partial", "type")}
        text = render_semeval(report, "text")
        assert "strict" in text and "partial" in text
        assert "strict.f1" in render_semeval(report, "kv")


# Every kv line of all three reports for one gold/pred pair: the field
# order, ints as ints and floats as repr() are part of the format.
PINNED_CONLL_KV = """\
type.LOC.tp 0
type.LOC.fp 2
type.LOC.fn 1
type.LOC.precision 0.0
type.LOC.recall 0.0
type.LOC.f1 0.0
type.ORG.tp 0
type.ORG.fp 0
type.ORG.fn 1
type.ORG.precision 0.0
type.ORG.recall 0.0
type.ORG.f1 0.0
type.PER.tp 2
type.PER.fp 1
type.PER.fn 1
type.PER.precision 0.6666666666666666
type.PER.recall 0.6666666666666666
type.PER.f1 0.6666666666666666
overall.tp 2
overall.fp 3
overall.fn 3
overall.precision 0.4
overall.recall 0.4
overall.f1 0.4000000000000001
"""

PINNED_MUC_KV = """\
cor 2
inc 1
par 2
mis 0
spu 0
possible 5
actual 5
precision 0.6
recall 0.6
f1 0.6
"""

PINNED_SEMEVAL_KV = """\
strict.cor 2
strict.inc 3
strict.par 0
strict.mis 0
strict.spu 0
strict.possible 5
strict.actual 5
strict.precision 0.4
strict.recall 0.4
strict.f1 0.4000000000000001
exact.cor 3
exact.inc 2
exact.par 0
exact.mis 0
exact.spu 0
exact.possible 5
exact.actual 5
exact.precision 0.6
exact.recall 0.6
exact.f1 0.6
partial.cor 3
partial.inc 0
partial.par 2
partial.mis 0
partial.spu 0
partial.possible 5
partial.actual 5
partial.precision 0.8
partial.recall 0.8
partial.f1 0.8000000000000002
type.cor 4
type.inc 1
type.par 0
type.mis 0
type.spu 0
type.possible 5
type.actual 5
type.precision 0.8
type.recall 0.8
type.f1 0.8000000000000002
"""


def test_kv_reports_pinned():
    gold = [sent(["B-PER", "I-PER", "O", "B-LOC", "O"]), sent(["B-ORG", "O", "B-PER"]), sent(["B-PER"])]
    pred = [sent(["B-PER", "O", "O", "B-LOC", "I-LOC"]), sent(["B-LOC", "O", "B-PER"]), sent(["B-PER"])]
    assert render_conll(conll_evaluate(gold, pred), "kv") == PINNED_CONLL_KV
    assert render_muc(muc_evaluate(gold, pred), "kv") == PINNED_MUC_KV
    assert render_semeval(semeval_evaluate(gold, pred), "kv") == PINNED_SEMEVAL_KV
