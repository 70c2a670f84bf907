import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amner.corpus import (
    EntitySpan,
    FormatError,
    Sentence,
    Tag,
    TagScheme,
    Token,
    convert_scheme,
    corpus_stats,
    count_adjacent_same_type,
    count_multi_token_runs,
    extract_spans,
    load_translit_table,
    parse_corpus,
    render_stats,
    spans_to_tags,
    tag_from_str,
    transliterate,
    transliterate_corpus,
    validate_tags,
    write_corpus,
)
from amner.crf import default_tagset

IOB1, IOB2, STANFORD = TagScheme.IOB1, TagScheme.IOB2, TagScheme.STANFORD

# Tag rows of the same 14-token sentence in all three standards: an ORG run,
# then four locations of which the last two are adjacent.
STANFORD_ROW = ["O", "O", "ORG", "ORG", "ORG", "O", "LOC", "O", "LOC", "LOC", "O", "LOC", "LOC", "O"]
IOB1_ROW = ["O", "O", "I-ORG", "I-ORG", "I-ORG", "O", "I-LOC", "O", "I-LOC", "I-LOC", "O", "I-LOC", "B-LOC", "O"]
IOB2_ROW = ["O", "O", "B-ORG", "I-ORG", "I-ORG", "O", "B-LOC", "O", "B-LOC", "I-LOC", "O", "B-LOC", "B-LOC", "O"]


def sentence_from_row(row, scheme):
    tokens = tuple(
        Token(f"w{idx:02d}", tag_from_str(text, scheme)) for idx, text in enumerate(row)
    )
    return Sentence(tokens)


def make_sentence(tag_texts, scheme=IOB2):
    return sentence_from_row(tag_texts, scheme)


class TestParse:
    def test_minimal_file(self):
        sentences = parse_corpus("a\tB-PER\nb\tI-PER\n\n", IOB2)
        assert len(sentences) == 1
        assert len(sentences[0]) == 2
        assert sentences[0].tokens[0] == Token("a", Tag("B", "PER"))
        assert sentences[0].tokens[1] == Token("b", Tag("I", "PER"))

    def test_empty_input(self):
        assert parse_corpus("", IOB2) == []

    def test_column_count_violation(self):
        with pytest.raises(FormatError) as err:
            parse_corpus("a\tB-PER\tX\n", IOB2)
        assert err.value.line == 1

    def test_unknown_tag_reports_line(self):
        with pytest.raises(FormatError) as err:
            parse_corpus("a\tB-PER\n\nb\tQ-PER\n", IOB2)
        assert err.value.line == 3

    def test_untagged_mode_ignores_second_column(self):
        sentences = parse_corpus("a\nb\tB-PER\nc\tnot a tag\n\nd\n", None)
        assert [s.surfaces for s in sentences] == [("a", "b", "c"), ("d",)]
        assert all(tag == Tag("O") for s in sentences for tag in s.tags)

    def test_empty_surface_reports_line(self):
        for scheme in (IOB2, None):
            with pytest.raises(FormatError) as err:
                parse_corpus("a\tO\n\tO\n", scheme)
            assert err.value.line == 2

    def test_missing_trailing_newline(self):
        sentences = parse_corpus("a\tB-PER", IOB2)
        assert len(sentences) == 1

    def test_comments_and_extra_blanks(self):
        text = "# header\n\na\tO\n# inline\nb\tO\n\n\nc\tO\n\n"
        sentences = parse_corpus(text, IOB2)
        assert [len(s) for s in sentences] == [2, 1]

    def test_invalid_utf8(self):
        with pytest.raises(FormatError):
            parse_corpus(b"\xff\xfe\tO\n", IOB2)

    def test_stanford_bare_type(self):
        sentences = parse_corpus("x\tORG\ny\tO\n", STANFORD)
        assert sentences[0].tokens[0].tag == Tag("I", "ORG")
        assert sentences[0].tokens[1].tag == Tag("O")

    def test_bare_type_rejected_under_iob(self):
        with pytest.raises(FormatError):
            parse_corpus("x\tORG\n", IOB2)


# entity types that break the type rule by holding whitespace, and each
# scheme's spelling of a tag of that type
SPACE_TYPES = {"space": "PER ", "nbsp": "P\u00a0ER", "ideographic": "PER\u3000"}
SCHEME_SPELLINGS = {IOB1: "I-{}", IOB2: "B-{}", STANFORD: "{}"}


class TestEntityTypeRule:
    @pytest.mark.parametrize("etype", SPACE_TYPES.values(), ids=SPACE_TYPES)
    @pytest.mark.parametrize("scheme", SCHEME_SPELLINGS, ids=lambda scheme: scheme.value)
    def test_whitespace_type_refused_naming_its_line(self, scheme, etype):
        tag = SCHEME_SPELLINGS[scheme].format(etype)
        with pytest.raises(FormatError) as err:
            parse_corpus(f"a\tO\nb\t{tag}\n", scheme)
        assert err.value.line == 2
        assert str(err.value).startswith(f"line 2: bad {scheme.value} tag {tag!r}: entity type ")

    @pytest.mark.parametrize("etype", ["", "O", *SPACE_TYPES.values()])
    def test_tag_span_and_tagset_refuse_a_bad_type(self, etype):
        for build in (lambda: Tag("B", etype), lambda: EntitySpan(0, 1, etype),
                      lambda: default_tagset(["PER", etype])):
            message = f"^entity type {re.escape(repr(etype))} must be non-empty"
            with pytest.raises(ValueError, match=message):
                build()


class TestWrite:
    def test_inverse_of_parse_example(self):
        sentence = Sentence((Token("a", Tag("B", "PER")), Token("b", Tag("I", "PER"))))
        assert write_corpus([sentence], IOB2) == "a\tB-PER\nb\tI-PER\n\n"

    def test_empty(self):
        assert write_corpus([], IOB2) == ""

    def test_invalid_sequence_names_location(self):
        bad = make_sentence(["O", "I-LOC"])
        with pytest.raises(ValueError, match="sentence 0, token 1"):
            write_corpus([bad], IOB2)

    def test_stanford_rejects_b_position(self):
        sentence = Sentence((Token("a", Tag("B", "PER")),))
        with pytest.raises(ValueError, match="stanford"):
            write_corpus([sentence], STANFORD)

    def test_comment_lookalike_surface_rejected(self):
        sentence = Sentence((Token("#x", Tag("O")),))
        with pytest.raises(ValueError, match="comments"):
            write_corpus([sentence], IOB2)


class TestValidate:
    def test_orphan_i_is_violation_under_iob2(self):
        violations = validate_tags(make_sentence(["O", "I-LOC"]), IOB2)
        assert [v.index for v in violations] == [1]

    def test_orphan_i_ok_under_iob1(self):
        assert validate_tags(make_sentence(["O", "I-LOC"], IOB1), IOB1) == []

    def test_well_formed_iob2(self):
        assert validate_tags(make_sentence(["B-PER", "I-PER", "O"]), IOB2) == []

    def test_type_change_needs_b_under_iob2(self):
        violations = validate_tags(make_sentence(["B-ORG", "I-LOC"]), IOB2)
        assert [v.index for v in violations] == [1]

    def test_iob1_b_after_o_is_violation(self):
        violations = validate_tags(make_sentence(["O", "B-LOC"], IOB1), IOB1)
        assert [v.index for v in violations] == [1]

    def test_iob1_b_after_same_type_ok(self):
        assert validate_tags(make_sentence(["I-LOC", "B-LOC"], IOB1), IOB1) == []

    def test_stanford_anything_goes(self):
        assert validate_tags(sentence_from_row(STANFORD_ROW, STANFORD), STANFORD) == []

    def test_stanford_b_is_violation(self):
        # stanford files cannot hold a B position, so only code can build one
        sentence = Sentence((Token("a", Tag("I", "LOC")), Token("b", Tag("B", "LOC"))))
        assert [v.index for v in validate_tags(sentence, STANFORD)] == [1]
        with pytest.raises(ValueError, match="sentence 0, token 1: invalid under stanford"):
            extract_spans(sentence, STANFORD)


class TestSpans:
    def test_iob2_run(self):
        spans = extract_spans(make_sentence(["B-ORG", "I-ORG", "I-ORG", "O"]), IOB2)
        assert spans == [EntitySpan(0, 3, "ORG")]

    def test_iob2_adjacent_b(self):
        spans = extract_spans(make_sentence(["B-LOC", "B-LOC"]), IOB2)
        assert spans == [EntitySpan(0, 1, "LOC"), EntitySpan(1, 2, "LOC")]

    def test_stanford_merges_run(self):
        spans = extract_spans(make_sentence(["ORG", "ORG", "O"], STANFORD), STANFORD)
        assert spans == [EntitySpan(0, 2, "ORG")]

    def test_invalid_sequence_raises(self):
        with pytest.raises(ValueError):
            extract_spans(make_sentence(["O", "I-LOC"]), IOB2)

    def test_spans_to_tags_iob2(self):
        tags = spans_to_tags([EntitySpan(0, 2, "LOC"), EntitySpan(2, 3, "LOC")], 3, IOB2)
        assert tags == [Tag("B", "LOC"), Tag("I", "LOC"), Tag("B", "LOC")]

    def test_spans_to_tags_iob1(self):
        tags = spans_to_tags([EntitySpan(0, 2, "LOC"), EntitySpan(2, 3, "LOC")], 3, IOB1)
        assert tags == [Tag("I", "LOC"), Tag("I", "LOC"), Tag("B", "LOC")]

    def test_iob1_no_b_when_types_differ(self):
        tags = spans_to_tags([EntitySpan(0, 1, "ORG"), EntitySpan(1, 2, "LOC")], 2, IOB1)
        assert tags == [Tag("I", "ORG"), Tag("I", "LOC")]

    def test_empty_spans(self):
        assert spans_to_tags([], 2, IOB2) == [Tag("O"), Tag("O")]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            spans_to_tags([EntitySpan(0, 2, "LOC"), EntitySpan(1, 3, "LOC")], 3, IOB2)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            spans_to_tags([EntitySpan(0, 3, "LOC")], 2, IOB2)


class TestConvert:
    def test_iob1_row_to_iob2_row(self):
        converted = convert_scheme([sentence_from_row(IOB1_ROW, IOB1)], IOB1, IOB2)
        assert list(converted[0].tags) == list(sentence_from_row(IOB2_ROW, IOB2).tags)

    def test_iob2_row_to_iob1_row(self):
        converted = convert_scheme([sentence_from_row(IOB2_ROW, IOB2)], IOB2, IOB1)
        assert list(converted[0].tags) == list(sentence_from_row(IOB1_ROW, IOB1).tags)

    def test_stanford_merges_adjacent_names(self):
        converted = convert_scheme([make_sentence(["PER", "PER"], STANFORD)], STANFORD, IOB2)
        assert list(converted[0].tags) == [Tag("B", "PER"), Tag("I", "PER")]
        assert extract_spans(converted[0], IOB2) == [EntitySpan(0, 2, "PER")]

    def test_iob2_to_stanford_loses_boundary(self):
        source = [make_sentence(["B-LOC", "B-LOC"])]
        assert count_adjacent_same_type(source, IOB2) == 1
        converted = convert_scheme(source, IOB2, STANFORD)
        back = convert_scheme(converted, STANFORD, IOB2)
        assert extract_spans(back[0], IOB2) == [EntitySpan(0, 2, "LOC")]

    def test_multi_token_run_count(self):
        corpus = [sentence_from_row(STANFORD_ROW, STANFORD)]
        # the ORG run, the two-token LOC, and the merged adjacent LOC pair
        assert count_multi_token_runs(corpus) == 3


# Random valid IOB2 sentence material for the property tests.
ETYPES = ("PER", "LOC", "ORG", "TTL")


@st.composite
def iob2_tag_rows(draw):
    length = draw(st.integers(min_value=1, max_value=12))
    row, prev_type = [], None
    for _ in range(length):
        choice = draw(st.integers(min_value=0, max_value=2 if prev_type else 1))
        if choice == 0:
            row.append("O")
            prev_type = None
        elif choice == 1:
            prev_type = draw(st.sampled_from(ETYPES))
            row.append(f"B-{prev_type}")
        else:
            row.append(f"I-{prev_type}")
    return row


@given(iob2_tag_rows())
@settings(max_examples=200, deadline=None)
def test_span_round_trip_property(row):
    sentence = make_sentence(row)
    spans = extract_spans(sentence, IOB2)
    assert spans == sorted(spans)
    assert all(s.end <= len(sentence) for s in spans)
    assert all(a.end <= b.start for a, b in zip(spans, spans[1:]))
    assert spans_to_tags(spans, len(sentence), IOB2) == list(sentence.tags)


@given(iob2_tag_rows())
@settings(max_examples=200, deadline=None)
def test_scheme_round_trip_property(row):
    sentence = make_sentence(row)
    as_iob1 = convert_scheme([sentence], IOB2, IOB1)
    back = convert_scheme(as_iob1, IOB1, IOB2)
    assert list(back[0].tags) == list(sentence.tags)


@given(st.lists(iob2_tag_rows(), min_size=0, max_size=5))
@settings(max_examples=100, deadline=None)
def test_parse_write_identity_property(rows):
    corpus = [make_sentence(row) for row in rows]
    text = write_corpus(corpus, IOB2)
    assert parse_corpus(text, IOB2) == corpus
    assert write_corpus(parse_corpus(text, IOB2), IOB2) == text


class TestTransliterate:
    TABLE = load_translit_table("ሀ\tha\nሐ\tha\nኀ\tha\nለ\tle\n")

    def test_basic_mapping(self):
        result = transliterate("ሀ", self.TABLE)
        assert result.text == "ha"
        assert (result.mapped, result.unmapped) == (1, 0)

    def test_variant_collapse(self):
        assert transliterate("ሐ", self.TABLE).text == "ha"
        assert transliterate("ኀ", self.TABLE).text == "ha"

    def test_latin_passthrough(self):
        result = transliterate("abc", self.TABLE)
        assert result.text == "abc"
        assert (result.mapped, result.unmapped) == (0, 3)

    def test_mixed(self):
        result = transliterate("ሀለX", self.TABLE)
        assert result.text == "haleX"
        assert (result.mapped, result.unmapped) == (2, 1)

    def test_corpus_transliteration(self):
        corpus = [Sentence((Token("ሀለ", Tag("B", "PER")), Token("X", Tag("O"))))]
        out, mapped, unmapped = transliterate_corpus(corpus, self.TABLE)
        assert out[0].tokens[0].surface == "hale"
        assert out[0].tokens[0].tag == Tag("B", "PER")
        assert (mapped, unmapped) == (2, 1)

    def test_table_rejects_multichar_key(self):
        with pytest.raises(FormatError):
            load_translit_table("ab\tx\n")

    def test_table_rejects_conflicting_duplicate(self):
        with pytest.raises(FormatError):
            load_translit_table("ሀ\tha\nሀ\thu\n")

    def test_table_rejects_empty_replacement(self):
        with pytest.raises(FormatError):
            load_translit_table("ሀ\t\n")


class TestStats:
    def test_all_outside(self):
        stats = corpus_stats([make_sentence(["O", "O"])], IOB2)
        assert stats.outside_count == 2
        assert stats.total_tokens == 2
        assert stats.percent(stats.outside_count) == 100.0

    def test_mixed_counts(self):
        stats = corpus_stats([make_sentence(["B-PER", "I-PER", "O"])], IOB2)
        assert stats.type_counts == {"PER": 2}
        assert stats.outside_count == 1
        assert stats.sentence_count == 1

    def test_counts_sum_to_total(self):
        corpus = [sentence_from_row(IOB2_ROW, IOB2), make_sentence(["O", "B-TTL"])]
        stats = corpus_stats(corpus, IOB2)
        assert sum(stats.type_counts.values()) + stats.outside_count == stats.total_tokens

    def test_percentages_sum_to_100(self):
        corpus = [sentence_from_row(IOB2_ROW, IOB2)]
        stats = corpus_stats(corpus, IOB2)
        total_pct = sum(stats.percent(c) for c in stats.type_counts.values())
        total_pct += stats.percent(stats.outside_count)
        assert abs(total_pct - 100.0) < 0.1

    def test_invalid_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats([make_sentence(["O", "I-LOC"])], IOB2)

    def test_render_kv(self):
        stats = corpus_stats([make_sentence(["B-PER", "I-PER", "O"])], IOB2)
        text = render_stats(stats, "kv")
        assert "tokens.PER 2" in text
        assert "tokens.O 1" in text

    def test_render_text(self):
        stats = corpus_stats([make_sentence(["B-PER", "I-PER", "O"])], IOB2)
        assert "PER" in render_stats(stats, "text")
