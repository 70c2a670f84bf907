"""The shared text reader, corpus.text_lines, and the parsers built on it:
every malformed input raises FormatError naming a real line, and a
file's content parses alike as str or bytes, with LF or CRLF endings."""

import inspect
from unittest import mock

import pytest
from helpers import malformed
from hypothesis import given, settings
from hypothesis import strategies as st

import amner.corpus as corpus_mod
from amner.corpus import FormatError, TagScheme, load_translit_table, parse_corpus, text_lines
from amner.model import load_embeddings
from amner.resample import parse_feature_rows
from amner.train import parse_train_config

# each parser with a valid input for it, and its result in a form that == compares
PARSERS = {
    "corpus": (
        lambda data: parse_corpus(data, TagScheme.IOB2),
        b"w1\tB-PER\nw2\tI-PER\nw3\tO\n\n# note\nw4\tB-LOC\nw1\tO\n\n",
        lambda sentences: sentences,
    ),
    "untagged": (
        lambda data: parse_corpus(data, None),
        b"w1\nw2\tx\n\nw3\n",
        lambda sentences: sentences,
    ),
    "translit": (
        load_translit_table,
        "# table\nሀ\tha\nw\tv\n".encode(),
        lambda table: table.mapping,
    ),
    "vectors": (
        lambda data: load_embeddings(data, expected_dim=2),
        b"2 2\nw1 0.1 0.2\nw2 0.3 -0.4 \n",
        lambda table: (table.vocab, table.matrix.tobytes()),
    ),
    "feature-rows": (
        parse_feature_rows,
        b"2\nA\t1 2\n# c\nA\t2 3\nB\t0 1\n",
        lambda rows: [(row.label, row.values.tobytes()) for row in rows],
    ),
}
CONFIG = (parse_train_config, b"# run\nlearning_rate 0.01\nbatch_size 2\nclip_norm none\n", repr)


class TestTextLines:
    def test_numbers_lines_and_strips_trailing_carriage_returns(self):
        assert list(text_lines("a\r\r\n\rb\n")) == [(1, "a"), (2, "\rb"), (3, "")]

    def test_only_line_feed_ends_a_line(self):
        assert list(text_lines("a\rb\x0bc d")) == [(1, "a\rb\x0bc d")]

    def test_bytes_read_as_utf8(self):
        assert list(text_lines("ሀ\r\nb".encode())) == [(1, "ሀ"), (2, "b")]

    def test_is_lazy(self):
        assert inspect.isgenerator(text_lines("a\nb"))

    def test_invalid_utf8_has_no_line(self):
        with pytest.raises(FormatError, match="^invalid UTF-8: ") as err:
            list(text_lines(b"ok\n\xff\n"))
        assert err.value.line is None


def split_lines(text: str) -> list[tuple[int, str]]:
    return [(n, line.rstrip("\r")) for n, line in enumerate(text.split("\n"), start=1)]


def whole_decode_message(data: bytes) -> str:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"invalid UTF-8: {exc}"
    raise AssertionError("valid UTF-8")


class TestChunkedTextLines:
    """text_lines decodes and splits ``_CHUNK`` at a time; small chunks put
    every line ending and every multi-byte character across some edge."""

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.lists(st.sampled_from(["a", "\n", "\r", "\r\n", "ሀ", "é", " "])).map("".join),
        chunk=st.integers(1, 8),
    )
    def test_str_and_bytes_read_as_one_split(self, text, chunk):
        with mock.patch.object(corpus_mod, "_CHUNK", chunk):
            assert list(text_lines(text)) == split_lines(text)
            assert list(text_lines(text.encode())) == split_lines(text)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.lists(
            st.sampled_from(
                [b"a", b"\n", b"\xe1\x88\x80", b"\xe1\x88", b"\xff", b"\x80", b"\xed\xa0\x80"]
            )
        ).map(b"".join),
        chunk=st.integers(1, 8),
    )
    def test_invalid_bytes_raise_the_whole_input_error(self, data, chunk):
        try:
            expected = split_lines(data.decode("utf-8"))
        except UnicodeDecodeError:
            expected = whole_decode_message(data)
        with mock.patch.object(corpus_mod, "_CHUNK", chunk):
            try:
                assert list(text_lines(data)) == expected
            except FormatError as exc:
                assert str(exc) == expected

    @pytest.mark.parametrize(
        "data, chunk",
        [("ab\r\ncd\r\n", 3), (b"ab\r\ncd\r\n", 3), ("ሀ\r\nb", 2), ("ሀ\r\nb".encode(), 4)],
    )
    def test_crlf_split_across_a_chunk_edge(self, data, chunk):
        text = data if isinstance(data, str) else data.decode()
        with mock.patch.object(corpus_mod, "_CHUNK", chunk):
            assert next(corpus_mod._split(data))[-1].endswith("\r")  # the edge falls inside CRLF
            assert list(text_lines(data)) == split_lines(text)

    def test_invalid_byte_past_the_first_chunk_raises_before_any_line(self):
        data = b"ok\nfine\n\xffx\n"
        with mock.patch.object(corpus_mod, "_CHUNK", 4):
            lines = text_lines(data)
            with pytest.raises(FormatError) as err:
                next(lines)
        assert str(err.value) == whole_decode_message(data)
        assert "position 8: invalid start byte" in str(err.value)
        assert err.value.line is None


class TestParsers:
    def test_errors_carry_their_line(self):
        with pytest.raises(FormatError, match="^line 3: ") as err:
            parse_feature_rows("1\nA\t1\nA\t1 2\n")
        assert err.value.line == 3

    def test_config_errors_carry_their_line(self):
        with pytest.raises(FormatError, match="^line 2: bad value '1.5' for batch_size$"):
            parse_train_config("seed 1\nbatch_size 1.5\n")
        with pytest.raises(FormatError, match="^line 1: unknown option 'warmup'$"):
            parse_train_config(b"warmup 10\n")

    def test_config_reads_each_field_as_its_annotated_type(self):
        config = parse_train_config("seed 4\nclip_norm 2\npatience none\ndropout 0\n")
        assert (config.seed, config.clip_norm, config.patience, config.dropout) == (4, 2.0, None, 0.0)
        assert all(type(v) is float for v in (config.clip_norm, config.dropout))
        with pytest.raises(FormatError, match="bad value 'none' for seed"):
            parse_train_config("seed none\n")

    @pytest.mark.parametrize("value, line", [("nan", 2), ("1e999", 5), ("-inf", 5), ("NaN", 5)])
    def test_vectors_refuse_non_finite_values(self, value, line):
        # line 4 is blank, so the third vector is on line 5
        rows = ["w1 0.1 0.2", "w2 0.3 0.4", "", f"w3 0.5 {value}", "w4 0.6 0.7"]
        if line == 2:
            rows[0] = f"w1 {value} 0.2"
        with pytest.raises(FormatError, match=f"^line {line}: non-finite value$"):
            load_embeddings("\n".join(["4 2", *rows]) + "\n", expected_dim=2)

    def test_vectors_ignore_every_trailing_carriage_return(self):
        table = load_embeddings(b"1 2\r\r\na 1 2 \r\r\n", expected_dim=2)
        assert table.vocab == {"a": 0}
        assert table.matrix[0].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("name", sorted(PARSERS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bytes_parse_or_fail_on_a_real_line(self, name, data):
        parse, valid, _ = PARSERS[name]
        raw = data.draw(malformed(valid))
        try:
            parse(raw)
        except FormatError as exc:
            assert exc.line is None or 1 <= exc.line <= raw.count(b"\n") + 1

    @pytest.mark.parametrize("name", sorted(PARSERS) + ["config"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_str_bytes_lf_and_crlf_parse_alike(self, name, data):
        parse, valid, comparable = CONFIG if name == "config" else PARSERS[name]
        try:
            text = data.draw(malformed(valid)).decode("utf-8")
        except UnicodeDecodeError:
            text = valid.decode("utf-8")

        def outcome(content):
            try:
                return comparable(parse(content))
            except ValueError as exc:
                return type(exc), str(exc)

        crlf = text.replace("\n", "\r\n")
        results = [outcome(form) for form in (text, text.encode(), crlf, crlf.encode())]
        assert all(result == results[0] for result in results)
