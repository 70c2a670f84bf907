import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
import smote_anchor
from helpers import malformed, synthetic_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from amner.cli import main
from amner.corpus import TagScheme, write_corpus

IOB1_TEXT = (
    "w00\tO\nw01\tO\nw02\tI-ORG\nw03\tI-ORG\nw04\tI-ORG\nw05\tO\n"
    "w06\tI-LOC\nw07\tO\nw08\tI-LOC\nw09\tI-LOC\nw10\tO\nw11\tI-LOC\n"
    "w12\tB-LOC\nw13\tO\n\n"
)
IOB2_TEXT = (
    "w00\tO\nw01\tO\nw02\tB-ORG\nw03\tI-ORG\nw04\tI-ORG\nw05\tO\n"
    "w06\tB-LOC\nw07\tO\nw08\tB-LOC\nw09\tI-LOC\nw10\tO\nw11\tB-LOC\n"
    "w12\tB-LOC\nw13\tO\n\n"
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConvert:
    def test_iob1_to_iob2(self, tmp_path, capsys):
        src = write(tmp_path / "in.tsv", IOB1_TEXT)
        dst = tmp_path / "out.tsv"
        assert main(["convert", "--from", "iob1", "--to", "iob2", src, str(dst)]) == 0
        assert dst.read_text(encoding="utf-8") == IOB2_TEXT

    def test_round_trip_through_files(self, tmp_path):
        src = write(tmp_path / "in.tsv", IOB2_TEXT)
        mid = tmp_path / "mid.tsv"
        back = tmp_path / "back.tsv"
        assert main(["convert", "--from", "iob2", "--to", "iob1", src, str(mid)]) == 0
        assert main(["convert", "--from", "iob1", "--to", "iob2", str(mid), str(back)]) == 0
        assert back.read_text(encoding="utf-8") == IOB2_TEXT

    def test_merge_warning_to_stderr(self, tmp_path, capsys):
        src = write(tmp_path / "in.tsv", "a\tB-LOC\nb\tB-LOC\n\n")
        dst = tmp_path / "out.tsv"
        assert main(["convert", "--from", "iob2", "--to", "stanford", src, str(dst)]) == 0
        captured = capsys.readouterr()
        assert "1 adjacent same-type" in captured.err

    def test_multi_token_run_warning_to_stderr(self, tmp_path, capsys):
        src = write(tmp_path / "in.tsv", "a\tLOC\nb\tLOC\nc\tO\nd\tPER\n\n")
        dst = tmp_path / "out.tsv"
        assert main(["convert", "--from", "stanford", "--to", "iob2", src, str(dst)]) == 0
        assert "warning: 1 multi-token runs emitted as single entities" in capsys.readouterr().err
        assert dst.read_text(encoding="utf-8") == "a\tB-LOC\nb\tI-LOC\nc\tO\nd\tB-PER\n\n"

    def test_malformed_input_is_data_error(self, tmp_path, capsys):
        src = write(tmp_path / "in.tsv", "a\tB-PER\tX\n")
        assert main(["convert", "--from", "iob2", "--to", "iob1", src, "out.tsv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["convert", "--frobnicate", "x"])
        assert exc.value.code == 2

    def test_seed_printed(self, tmp_path, capsys):
        src = write(tmp_path / "in.tsv", "a\tO\n\n")
        main(["validate", src])
        assert "seed: 0" in capsys.readouterr().err


class TestValidate:
    def test_clean_file(self, tmp_path, capsys):
        src = write(tmp_path / "ok.tsv", "a\tB-PER\nb\tI-PER\n\n")
        assert main(["validate", src]) == 0
        assert "ok" in capsys.readouterr().out

    def test_violations_reported_and_exit_one(self, tmp_path, capsys):
        src = write(tmp_path / "bad.tsv", "a\tO\nb\tI-LOC\n\n")
        assert main(["validate", src]) == 1
        assert "sentence 0, token 1: invalid under iob2:" in capsys.readouterr().out


class TestStatsTranslit:
    def test_stats_kv(self, tmp_path, capsys):
        src = write(tmp_path / "c.tsv", "a\tB-PER\nb\tI-PER\nc\tO\n\n")
        assert main(["stats", "--format", "kv", src]) == 0
        out = capsys.readouterr().out
        assert "tokens.PER 2" in out
        assert "tokens.total 3" in out

    def test_translit(self, tmp_path, capsys):
        table = write(tmp_path / "t.tsv", "ሀ\tha\n")
        src = write(tmp_path / "c.tsv", "ሀሀ\tB-PER\nxy\tO\n\n")
        dst = tmp_path / "out.tsv"
        assert main(["translit", "--table", table, src, str(dst)]) == 0
        assert dst.read_text(encoding="utf-8") == "haha\tB-PER\nxy\tO\n\n"
        assert "mapped 2" in capsys.readouterr().out

    def test_translit_kv(self, tmp_path, capsys):
        table = write(tmp_path / "t.tsv", "ሀ\tha\n")
        src = write(tmp_path / "c.tsv", "ሀሀ\tB-PER\nxy\tO\n\n")
        assert main(["translit", "--format", "kv", "--table", table, src, str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out == "characters.mapped 2\ncharacters.unmapped 2\n"


class TestKappa:
    def test_identical_files(self, tmp_path, capsys):
        text = "a\tB-PER\nb\tO\n\n"
        first = write(tmp_path / "a.tsv", text)
        second = write(tmp_path / "b.tsv", text)
        assert main(["kappa", first, second]) == 0
        out = capsys.readouterr().out
        assert "kappa 1.0000" in out
        assert "Perfect agreement" in out

    def test_kv(self, tmp_path, capsys):
        first = write(tmp_path / "a.tsv", "a\tB-PER\nb\tO\n\n")
        second = write(tmp_path / "b.tsv", "a\tB-PER\nb\tO\n\n")
        assert main(["kappa", "--format", "kv", first, second]) == 0
        assert capsys.readouterr().out == "kappa 1.0\ninterpretation Perfect agreement\nitems 2\n"

    def test_mismatched_tokens_rejected(self, tmp_path):
        first = write(tmp_path / "a.tsv", "a\tO\n\n")
        second = write(tmp_path / "b.tsv", "b\tO\n\n")
        assert main(["kappa", first, second]) == 1

    def test_sentence_count_mismatch_rejected(self, tmp_path, capsys):
        first = write(tmp_path / "a.tsv", "a\tO\n\nb\tO\n\n")
        second = write(tmp_path / "b.tsv", "a\tO\n\n")
        assert main(["kappa", first, second]) == 1
        assert "error: corpora disagree: 2 vs 1 sentences" in capsys.readouterr().err


# two PER rows whose difference, 2e308, overflows: every interpolation between them is non-finite
OVERFLOW_ROWS = "2\nO\t0 0\nO\t1 1\nO\t2 2\nPER\t1e308 -1e308\nPER\t-1e308 1e308\n"


class TestSmote:
    def make_rows(self, tmp_path):
        lines = ["2"]
        for i in range(6):
            lines.append(f"O\t{float(i)} 0.0")
        lines.append("PER\t0.0 1.0")
        lines.append("PER\t0.0 2.0")
        return write(tmp_path / "rows.tsv", "\n".join(lines) + "\n")

    def test_balance_to_majority(self, tmp_path, capsys):
        src = self.make_rows(tmp_path)
        dst = tmp_path / "out.tsv"
        code = main(["smote", "--target", "match-majority", "--smote-k", "1", src, str(dst)])
        assert code == 0
        out = capsys.readouterr().out
        assert "count.O 6" in out
        assert "count.PER 6" in out

    def test_balance_output_has_committed_sha256(self, tmp_path):
        src = write(tmp_path / "rows.tsv", smote_anchor.rows_text())
        dst = tmp_path / "out.tsv"
        assert main(["smote", "--target", "match-majority", "--seed", "7", src, str(dst)]) == 0
        expected = smote_anchor.SHA_PATH.read_text(encoding="utf-8").strip()
        assert hashlib.sha256(dst.read_bytes()).hexdigest() == expected

    @pytest.mark.parametrize("name", sorted(smote_anchor.AMOUNT_RUNS))
    def test_amount_output_has_committed_sha256(self, tmp_path, name):
        src = write(tmp_path / "rows.tsv", smote_anchor.rows_text())
        dst = tmp_path / name
        assert main(["smote", *smote_anchor.AMOUNT_RUNS[name], "--seed", "7", src, str(dst)]) == 0
        assert hashlib.sha256(dst.read_bytes()).hexdigest() == smote_anchor.amount_sha256()[name]

    def test_plain_amount_mode(self, tmp_path, capsys):
        src = self.make_rows(tmp_path)
        dst = tmp_path / "out.tsv"
        code = main(["smote", "--smote-n", "200", "--smote-k", "1", "--label", "PER", src, str(dst)])
        assert code == 0
        assert "count.PER 6" in capsys.readouterr().out  # 2 originals + 4 synthetic

    @pytest.mark.parametrize("label, status, message", [
        ([], 0, "note: oversampling the rarest class 'PER'"),
        (["--label", "LOC"], 1, "error: no rows labeled 'LOC'"),
    ], ids=["rarest", "absent"])
    def test_amount_mode_label(self, tmp_path, capsys, label, status, message):
        src = self.make_rows(tmp_path)
        dst = tmp_path / "out.tsv"
        assert main(["smote", "--smote-n", "100", "--smote-k", "1", *label, src, str(dst)]) == status
        out, err = capsys.readouterr()
        assert message in err
        assert ("count.PER 4" in out) == (status == 0)  # 2 originals + 2 synthetic
        assert dst.exists() == (status == 0)

    @pytest.mark.parametrize("mode", [
        ["--target", "match-majority"], ["--smote-n", "100"],
    ], ids=["target", "smote-n"])
    def test_file_without_rows_is_data_error(self, tmp_path, capsys, mode):
        src = write(tmp_path / "rows.tsv", "2\n")
        dst = tmp_path / "out.tsv"
        assert main(["smote", *mode, src, str(dst)]) == 1
        assert "error: dataset is empty" in capsys.readouterr().err
        assert not dst.exists()

    @pytest.mark.parametrize("count, rows", [("0", "PER\t\nO\t\n"), ("-2", "O\t1 2\n")],
                             ids=["0", "-2"])
    def test_attribute_count_below_one_is_data_error(self, tmp_path, capsys, count, rows):
        src = write(tmp_path / "rows.tsv", f"{count}\n{rows}")
        dst = tmp_path / "out.tsv"
        assert main(["smote", "--target", "match-majority", src, str(dst)]) == 1
        message = f"error: line 1: attribute count must be at least 1, got {count}"
        assert message in capsys.readouterr().err
        assert not dst.exists()

    def refused_while_parsing(self, tmp_path, capsys, flags):
        """stderr of `amner smote FLAGS`, which must exit 2 from the parser and write nothing."""
        src = self.make_rows(tmp_path)
        dst = tmp_path / "out.tsv"
        with pytest.raises(SystemExit) as exc:
            main(["smote", *flags, src, str(dst)])
        assert exc.value.code == 2
        assert not dst.exists()
        return capsys.readouterr().err

    def test_amount_not_a_multiple_of_100_is_usage_error(self, tmp_path, capsys):
        err = self.refused_while_parsing(
            tmp_path, capsys, ["--smote-n", "150", "--smote-k", "1", "--label", "PER"]
        )
        assert "argument --smote-n/--n: n_percent 150 is over 100 but not a multiple of 100" in err

    @pytest.mark.parametrize("mode", [["--label", "PER"]], ids=["label"])
    def test_zero_amount_is_usage_error(self, tmp_path, capsys, mode):
        err = self.refused_while_parsing(
            tmp_path, capsys, ["--smote-n", "0", "--smote-k", "1", *mode]
        )
        assert "argument --smote-n/--n: n_percent must be positive" in err

    @pytest.mark.parametrize("mode", [["--target", "match-majority"], ["--smote-n", "100"]],
                             ids=["target", "smote-n"])
    def test_k_below_one_is_usage_error(self, tmp_path, capsys, mode):
        err = self.refused_while_parsing(tmp_path, capsys, ["--smote-k", "0", *mode])
        assert "argument --smote-k/--k: must be at least 1, got 0" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_target_below_one_is_usage_error(self, tmp_path, capsys, count):
        err = self.refused_while_parsing(tmp_path, capsys, ["--target", count])
        assert f"argument --target: must be at least 1, got {count}" in err

    def test_overflowing_interpolation_is_data_error(self, tmp_path, capsys):
        src = write(tmp_path / "rows.tsv", OVERFLOW_ROWS)
        dst = tmp_path / "out.tsv"
        assert main(["smote", "--target", "match-majority", "--smote-k", "1", src, str(dst)]) == 1
        assert "error: feature row contains non-finite values" in capsys.readouterr().err
        assert not dst.exists()

    def test_overflow_prints_no_warning(self, tmp_path, capsys):
        # numpy's overflow warnings would raise here; stderr holds the seed and the error only
        src = write(tmp_path / "rows.tsv", OVERFLOW_ROWS)
        dst = tmp_path / "out.tsv"
        assert main(["smote", "--target", "match-majority", "--smote-k", "1", src, str(dst)]) == 1
        assert capsys.readouterr().err == "seed: 0\nerror: feature row contains non-finite values\n"
        assert not dst.exists()

    def test_target_not_a_count_is_usage_error(self, tmp_path, capsys):
        src = self.make_rows(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["smote", "--target", "abc", src, str(tmp_path / "out.tsv")])
        assert exc.value.code == 2
        assert "argument --target: invalid count_or_match_majority value: 'abc'" in capsys.readouterr().err

    # an amount SmoteConfig refuses (0, 150) is a usage error here too, refused while parsing
    @pytest.mark.parametrize("option, message", [
        (["--smote-n", "200"], "usage error: --target takes neither --smote-n nor --label"),
        (["--label", "PER"], "usage error: --target takes neither --smote-n nor --label"),
        (["--smote-n", "0"], "argument --smote-n/--n: n_percent must be positive"),
        (["--smote-n", "150"],
         "argument --smote-n/--n: n_percent 150 is over 100 but not a multiple of 100"),
    ], ids=["smote-n", "label", "smote-n-0", "smote-n-150"])
    def test_target_takes_no_amount_or_label(self, tmp_path, capsys, option, message):
        src = self.make_rows(tmp_path)
        dst = tmp_path / "out.tsv"
        try:
            code = main(["smote", "--target", "match-majority", *option, src, str(dst)])
        except SystemExit as exc:  # the parser's exit
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not dst.exists()

    def test_needs_mode_flag(self, tmp_path):
        src = self.make_rows(tmp_path)
        assert main(["smote", src, "out.tsv"]) == 2

    def test_whitespace_label_is_data_error(self, tmp_path, capsys):
        src = write(tmp_path / "rows.tsv", "1\nO\t0\nO\t1\nP ER\t2\nP ER\t3\n")
        dst = str(tmp_path / "out.tsv")
        assert main(["smote", "--target", "match-majority", "--smote-k", "1", src, dst]) == 1
        assert "error: line 4: label 'P ER' holds whitespace" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "rows.tsv"]

    def test_bad_utf8_is_a_format_error(self, tmp_path, capsys):
        (tmp_path / "rows.tsv").write_bytes(b"1\nA\xff\t1\n")
        assert main(["smote", "--target", "2", str(tmp_path / "rows.tsv"), "out.tsv"]) == 1
        assert "error: invalid UTF-8: " in capsys.readouterr().err


class TestEval:
    def test_self_comparison_scores_100(self, tmp_path, capsys):
        gold = write(tmp_path / "g.tsv", IOB2_TEXT)
        assert main(["eval", "--metric", "conll", gold, gold]) == 0
        assert "100.00" in capsys.readouterr().out

    def test_muc_and_semeval_run(self, tmp_path, capsys):
        gold = write(tmp_path / "g.tsv", IOB2_TEXT)
        assert main(["eval", "--metric", "muc", gold, gold]) == 0
        assert main(["eval", "--metric", "semeval", "--format", "kv", gold, gold]) == 0
        out = capsys.readouterr().out
        assert "strict.f1 1.0" in out


@pytest.mark.parametrize("command", [
    ["eval", "{good}", "{bad}"],
    ["convert", "--from", "iob2", "--to", "iob1", "{bad}", "{out}"],
], ids=["eval", "convert"])
def test_invalid_sequence_names_sentence_and_token(tmp_path, capsys, command):
    paths = {
        "good": write(tmp_path / "good.tsv", "a\tB-LOC\n\nb\tB-LOC\n\n"),
        "bad": write(tmp_path / "bad.tsv", "a\tB-LOC\n\nb\tI-LOC\n\n"),
        "out": str(tmp_path / "out.tsv"),
    }
    assert main([arg.format(**paths) for arg in command]) == 1
    assert "error: sentence 1, token 0: invalid under iob2: " in capsys.readouterr().err


@pytest.mark.parametrize("scheme, tag", [
    ("iob2", "B-PER "), ("iob1", "I-PER "), ("stanford", "PER\u3000"),
])
@pytest.mark.parametrize("command", [
    ["stats", "--format", "kv", "--scheme", "{scheme}"], ["validate", "--scheme", "{scheme}"],
    ["train", "--model", "{model}"],
], ids=["stats", "validate", "train"])
def test_whitespace_entity_type_is_data_error(tmp_path, capsys, scheme, tag, command):
    src = write(tmp_path / "c.tsv", f"a\t{tag}\n")
    args = [arg.format(scheme=scheme, model=tmp_path / "m.model") for arg in command]
    assert main([*args, src]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    read_as = "iob2" if command[0] == "train" else scheme  # train reads iob2 only
    assert f"error: line 1: bad {read_as} tag {tag!r}" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "c.tsv"]


class TestGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--step", "0"], "--step: must be finite and positive, got 0.0"),
        (["--step", "nan"], "--step: must be finite and positive, got nan"),
        (["--step=-1e-5"], "--step: must be finite and positive, got -1e-05"),
        (["--tolerance=-1"], "--tolerance: must be finite and positive, got -1.0"),
        (["--tolerance", "inf"], "--tolerance: must be finite and positive, got inf"),
        (["--seed", "-1"], "--seed: must be at least 0, got -1"),
    ], ids=["step-0", "step-nan", "step-negative", "tolerance-negative", "tolerance-inf", "seed-negative"])
    def test_bad_step_or_tolerance_is_usage_error(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", *flags])
        assert exc.value.code == 2
        assert f"argument {message}" in capsys.readouterr().err


SCHEME_FORMS = {
    "convert-from": ["convert", "--from", "{bad}", "--to", "iob1", "{corpus}", "{out}"],
    "convert-to": ["convert", "--from", "iob2", "--to", "{bad}", "{corpus}", "{out}"],
    "validate": ["validate", "--scheme", "{bad}", "{corpus}"],
    "stats": ["stats", "--scheme", "{bad}", "{corpus}"],
    "translit": ["translit", "--table", "{table}", "--scheme", "{bad}", "{corpus}", "{out}"],
    "kappa": ["kappa", "--scheme", "{bad}", "{corpus}", "{corpus}"],
    "eval": ["eval", "--scheme", "{bad}", "{corpus}", "{corpus}"],
}


@pytest.mark.parametrize("form", sorted(SCHEME_FORMS))
def test_unknown_scheme_is_usage_error(tmp_path, capsys, form):
    paths = {
        "bad": "iob3",
        "corpus": write(tmp_path / "in.tsv", IOB2_TEXT),
        "table": write(tmp_path / "table.tsv", "w\tv\n"),
        "out": str(tmp_path / "out.tsv"),
    }
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in SCHEME_FORMS[form]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown tagging scheme 'iob3'; expected one of ['stanford', 'iob1', 'iob2']" in err
    assert not (tmp_path / "out.tsv").exists()


def test_scheme_names_are_case_insensitive(tmp_path, capsys):
    src = write(tmp_path / "in.tsv", IOB2_TEXT)
    assert main(["validate", "--scheme", "IOB2", src]) == 0
    assert "valid under iob2" in capsys.readouterr().out


class TestTrainTagEval:
    @pytest.fixture()
    def corpus_path(self, tmp_path):
        corpus = synthetic_corpus(8, seed=21, min_len=3, max_len=6)
        path = tmp_path / "train.tsv"
        path.write_bytes(write_corpus(corpus, TagScheme.IOB2).encode("utf-8"))
        return str(path)

    TRAIN_ARGS = [
        "--word-dim", "6", "--char-dim", "2", "--word-hidden", "3",
        "--char-hidden", "2", "--epochs", "2", "--batch", "4",
        "--dropout", "0.3", "--seed", "5",
    ]

    def test_train_writes_model_and_log(self, tmp_path, corpus_path, capsys):
        model_path = tmp_path / "m.model"
        code = main(["train", corpus_path, "--model", str(model_path)] + self.TRAIN_ARGS)
        assert code == 0
        assert model_path.exists()
        log_text = (tmp_path / "m.model.log").read_text(encoding="utf-8")
        assert "seed 5" in log_text
        assert "epoch 0 loss" in log_text
        assert "epoch 1 loss" in log_text

    # numpy's overflow warnings, which tier-1 raises as errors, would come
    # before the error a non-finite check reports
    def test_diverging_run_is_data_error(self, tmp_path, corpus_path, capsys):
        model = tmp_path / "m.model"
        args = ["train", corpus_path, "--model", str(model), *self.TRAIN_ARGS, "--lr", "1e300"]
        assert main(args) == 1
        assert "error: epoch 0, batch 1: non-finite LSTM input projection" in capsys.readouterr().err
        assert not model.exists()

    # the first input's words are distinct; the second repeats one, so the
    # word BiLSTM projects each distinct row once
    @pytest.mark.parametrize("text", ["a\tO\nb\tO\nc\tO\n\n", "a\tO\nb\tO\na\tO\n\n"],
                             ids=["distinct", "repeated"])
    @pytest.mark.parametrize("tensors, message", [
        (("word.w_x", "word_table.matrix"), "error: non-finite LSTM input projection"),
        (("crf.transitions",), "error: non-finite scores in Viterbi decoding"),
    ], ids=["lstm", "viterbi"])
    def test_overflowing_model_tags_without_warning(
        self, tmp_path, corpus_path, capsys, text, tensors, message
    ):
        from amner.serialize import load_model, save_model

        model_path = tmp_path / "m.model"
        assert main(["train", corpus_path, "--model", str(model_path), *self.TRAIN_ARGS]) == 0
        model, config = load_model(model_path)
        for name in tensors:
            model.tensors()[name][...] = 1e308
        save_model(model_path, model, config)
        capsys.readouterr()
        out = tmp_path / "out.tsv"
        assert main(["tag", "--model", str(model_path), write(tmp_path / "in.tsv", text), str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "1e999"])
    def test_non_finite_vector_is_data_error(self, tmp_path, corpus_path, capsys, value):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(f"2 6\nw0 0 0 0 0 0 0\nw1 0 0 {value} 0 0 0\n", encoding="utf-8")
        model = tmp_path / "m.model"
        args = ["train", corpus_path, "--model", str(model), "--embeddings", str(vectors)]
        assert main(args + self.TRAIN_ARGS) == 1
        assert "error: line 3: non-finite value" in capsys.readouterr().err
        assert not model.exists()

    # a bad value read from the config file is a data error
    @pytest.mark.parametrize("config, flags, message", [
        ("learning_rate nan\n", [], "error: learning_rate must be finite and positive"),
        ("clip_norm -1\n", [], "error: clip_norm must be"),
        ("beta1 0.9\n", [], "error: line 1: unknown option 'beta1'"),
        ("seed 1\nbatch 4\n", [], "error: line 2: unknown option 'batch'"),
        (b"seed \xff\n", [], "error: invalid UTF-8: "),
        ("patience 1\n", [], "error: patience stops on dev F1 and needs a dev set"),
        ("batch_size 0\n", [], "error: batch_size must be at least 1"),
        ("max_epochs -1\n", [], "error: max_epochs must be non-negative"),
        ("dropout 1.5\n", [], "error: dropout must be in [0, 1)"),
        ("seed -1\n", [], "error: seed must be non-negative"),
        ("seed 1\nseed 2\n", [], "error: line 2: duplicate option 'seed'"),
    ])
    def test_bad_settings_are_data_errors(self, tmp_path, corpus_path, capsys, config, flags, message):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(config if isinstance(config, bytes) else config.encode())
        model = tmp_path / "m.model"
        args = ["train", corpus_path, "--model", str(model), "--config", str(cfg)]
        assert main(args + self.TRAIN_ARGS + flags) == 1
        assert message in capsys.readouterr().err
        assert not model.exists()

    # the same bounds on a flag are checked while parsing, as a usage error
    BAD_FLAGS = [
        ("--lr", "nan", "learning_rate must be finite and positive"),
        ("--clip", "-1", "clip_norm must be none or finite and positive"),
        ("--batch", "0", "batch_size must be at least 1"),
        ("--epochs", "-1", "max_epochs must be non-negative"),
        ("--dropout", "1.5", "dropout must be in [0, 1)"),
        *((flag, "0", "must be at least 1, got 0")
          for flag in ("--word-dim", "--char-dim", "--word-hidden", "--char-hidden")),
        ("--seed", "-1", "seed must be non-negative"),
    ]

    @pytest.mark.parametrize("flag, value, message", BAD_FLAGS,
                             ids=[f"{flag}={value}" for flag, value, _ in BAD_FLAGS])
    def test_bad_flags_are_usage_errors(self, tmp_path, corpus_path, capsys, flag, value, message):
        model = tmp_path / "m.model"
        with pytest.raises(SystemExit) as exc:
            main(["train", corpus_path, "--model", str(model), *self.TRAIN_ARGS, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not model.exists()

    def test_masked_train_writes_the_flag_and_tags_iob2(self, tmp_path, corpus_path, capsys):
        from amner.serialize import load_model

        model_path = tmp_path / "m.model"
        args = ["train", corpus_path, "--model", str(model_path), "--masked-train"]
        assert main(args + self.TRAIN_ARGS) == 0
        assert b"\nmasked_training true\n" in model_path.read_bytes()
        model, config = load_model(model_path)
        assert model.masked_training and "masked_training" not in config
        tagged = tmp_path / "tagged.tsv"
        assert main(["tag", "--model", str(model_path), corpus_path, str(tagged)]) == 0
        assert main(["validate", str(tagged)]) == 0

    def test_invalid_dev_set_is_data_error_before_training(self, tmp_path, corpus_path, capsys):
        dev = write(tmp_path / "dev.tsv", "x\tO\ny\tI-PER\n\n")
        model = tmp_path / "m.model"
        args = ["train", corpus_path, "--model", str(model), "--dev", dev]
        assert main(args + self.TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert "error: dev set: sentence 0, token 1: invalid under iob2: " in err
        assert "epoch" not in err
        assert not model.exists()

    def test_train_is_byte_deterministic(self, tmp_path, corpus_path):
        a_path = tmp_path / "a.model"
        b_path = tmp_path / "b.model"
        assert main(["train", corpus_path, "--model", str(a_path)] + self.TRAIN_ARGS) == 0
        assert main(["train", corpus_path, "--model", str(b_path)] + self.TRAIN_ARGS) == 0
        assert a_path.read_bytes() == b_path.read_bytes()
        log_a = (tmp_path / "a.model.log").read_text(encoding="utf-8")
        log_b = (tmp_path / "b.model.log").read_text(encoding="utf-8")
        assert log_a.replace("a.model", "X") == log_b.replace("b.model", "X")

    def test_epoch_records_in_log_and_kv(self, tmp_path, corpus_path, capsys):
        model_path = tmp_path / "m.model"
        args = ["train", corpus_path, "--model", str(model_path), "--format", "kv", "--clip", "0.5"]
        assert main(args + self.TRAIN_ARGS) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "seed: 5" and all(line.startswith("epoch.") for line in lines[1:])
        err = dict(line.split(" ", 1) for line in lines[1:])
        log_text = (tmp_path / "m.model.log").read_text(encoding="utf-8")
        for epoch in (0, 1):
            assert f"epoch {epoch} loss {err[f'epoch.{epoch}.loss']} dev_f1 none" in log_text
            assert int(err[f"epoch.{epoch}.tokens"]) == sum(
                1 for line in Path(corpus_path).read_text(encoding="utf-8").splitlines() if line.strip()
            )
            assert 0.0 < float(err[f"epoch.{epoch}.grad_norm_mean"]) <= float(
                err[f"epoch.{epoch}.grad_norm_max"])
            assert int(err[f"epoch.{epoch}.clipped_batches"]) == 2  # 8 sentences, batch 4
            assert float(err[f"epoch.{epoch}.tok_s"]) > 0.0
            for name in ("tokens", "grad_norm_mean", "grad_norm_max", "clipped_batches"):
                key = f"epoch.{epoch}.{name}"
                assert f"{key} {err[key]}\n" in log_text
            assert f"epoch.{epoch}.wall_s" not in log_text  # clock readings: stderr only

    def test_tag_and_eval_round(self, tmp_path, corpus_path, capsys):
        model_path = tmp_path / "m.model"
        assert main(["train", corpus_path, "--model", str(model_path)] + self.TRAIN_ARGS) == 0
        tagged = tmp_path / "tagged.tsv"
        assert main(["tag", "--model", str(model_path), corpus_path, str(tagged)]) == 0
        # decoded output is always IOB2-legal thanks to the mask
        assert main(["validate", str(tagged)]) == 0
        assert main(["eval", "--metric", "conll", corpus_path, str(tagged)]) == 0

    def test_tag_with_renamed_tensor_is_data_error(self, tmp_path, corpus_path, capsys):
        model_path = tmp_path / "m.model"
        assert main(["train", corpus_path, "--model", str(model_path)] + self.TRAIN_ARGS) == 0
        data = model_path.read_bytes()
        model_path.write_bytes(data.replace(b"\nproj.bias ", b"\nproj.bias2 ", 1))
        capsys.readouterr()
        code = main(["tag", "--model", str(model_path), corpus_path, str(tmp_path / "t.tsv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: " in err and "proj.bias" in err
        assert "Traceback" not in err

    def test_tag_accepts_single_column_input(self, tmp_path, corpus_path):
        model_path = tmp_path / "m.model"
        assert main(["train", corpus_path, "--model", str(model_path)] + self.TRAIN_ARGS) == 0
        src = write(tmp_path / "plain.txt", "w0\nw1\nper0\n\nw2\n\n")
        dst = tmp_path / "tagged.tsv"
        assert main(["tag", "--model", str(model_path), src, str(dst)]) == 0
        lines = dst.read_text(encoding="utf-8").strip().split("\n")
        assert len([l for l in lines if l]) == 4

    def test_tag_reports_its_run(self, tmp_path, corpus_path, capsys):
        from amner.serialize import load_model

        model_path = tmp_path / "m.model"
        assert main(["train", corpus_path, "--model", str(model_path)] + self.TRAIN_ARGS) == 0
        known = sorted(load_model(model_path)[0].encoder.word_table.vocab)[:3]
        src = write(tmp_path / "plain.txt", f"{known[0]}\nunseen\n\n{known[1]}\n{known[2]}\n\n")
        capsys.readouterr()
        assert main(["tag", "--model", str(model_path), src, str(tmp_path / "t.tsv")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        line, = [line for line in captured.err.splitlines() if line.startswith("tagged ")]
        head, rate = line.split(" tok/s, ")
        assert head.rsplit(" ", 1)[0] == "tagged 2 sentence(s), 4 token(s),"
        assert float(head.rsplit(" ", 1)[1]) > 0.0
        assert rate == "oov_rate 0.2500"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("w0\nw1\tx\ty\n", "line 2: expected 1 or 2 tab-separated columns, got 3"),
            ("w0\n\tO\n", "line 2: token surface must be non-empty"),
        ],
        ids=["three_columns", "empty_surface"],
    )
    def test_tag_malformed_line_is_data_error(self, tmp_path, corpus_path, capsys, text, message):
        model_path = tmp_path / "m.model"
        assert main(["train", corpus_path, "--model", str(model_path)] + self.TRAIN_ARGS) == 0
        src = write(tmp_path / "plain.txt", text)
        capsys.readouterr()
        assert main(["tag", "--model", str(model_path), src, str(tmp_path / "t.tsv")]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_ethiopic_script_end_to_end(self, tmp_path):
        # multibyte surfaces through training, serialization and decoding
        text = (
            "አህመድ\tB-PER\nወደ\tO\nአዲስ\tB-LOC\nአበባ\tI-LOC\nሄደ\tO\n\n"
            "ሰላም\tB-PER\nመጣች\tO\n\n"
            "ወደ\tO\nመቀሌ\tB-LOC\nሄደ\tO\n\n"
            "አህመድ\tB-PER\nመጣ\tO\n\n"
        )
        src = write(tmp_path / "am.tsv", text)
        model_path = tmp_path / "am.model"
        args = ["--word-dim", "6", "--char-dim", "3", "--word-hidden", "3",
                "--char-hidden", "2", "--epochs", "2", "--batch", "2", "--seed", "1"]
        assert main(["train", src, "--model", str(model_path)] + args) == 0
        tagged = tmp_path / "out.tsv"
        assert main(["tag", "--model", str(model_path), src, str(tagged)]) == 0
        out_text = tagged.read_text(encoding="utf-8")
        assert "አህመድ\t" in out_text
        assert main(["validate", str(tagged)]) == 0

    def test_config_file_with_flag_override(self, tmp_path, corpus_path, capsys):
        config = write(tmp_path / "c.cfg", "max_epochs 1\nseed 9\nbatch_size 2\n")
        model_path = tmp_path / "m.model"
        code = main([
            "train", corpus_path, "--model", str(model_path),
            "--config", config, "--epochs", "2",
            "--word-dim", "6", "--char-dim", "2", "--word-hidden", "3",
            "--char-hidden", "2", "--dropout", "0",
        ])
        assert code == 0
        log_text = (tmp_path / "m.model.log").read_text(encoding="utf-8")
        assert "max_epochs 2" in log_text  # flag wins over config file
        assert "seed 9" in log_text  # config file value survives
        seed_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("seed:")]
        assert seed_lines == ["seed: 9"]  # the seed training used, printed once


class TestEffectiveConfig:
    def config_for(self, *flags):
        from amner.cli import _effective_config, build_parser

        return _effective_config(build_parser().parse_args(["train", "in.tsv", "--model", "m", *flags]))

    def test_every_flag_reaches_the_config(self):
        config = self.config_for(
            "--epochs", "7", "--batch", "3", "--lr", "0.25",
            "--dropout", "0.125", "--clip", "2.5", "--seed", "9",
        )
        assert (config.max_epochs, config.batch_size, config.learning_rate) == (7, 3, 0.25)
        assert (config.dropout, config.clip_norm, config.seed) == (0.125, 2.5, 9)

    def test_no_flags_keep_the_defaults(self):
        from amner.train import TrainConfig

        assert self.config_for() == TrainConfig()


# Every file argument of every subcommand, fed malformed bytes.  Each form
# names the fuzzed file ``F``; the other files are the valid ones below.
TRAIN_FLAGS = ["--model", "m.model", "--epochs", "1", "--word-dim", "2", "--char-dim", "2",
               "--word-hidden", "2", "--char-hidden", "2"]
FUZZ_FORMS = {
    "convert": ["convert", "--from", "iob2", "--to", "iob1", "F", "out.tsv"],
    "validate": ["validate", "F"],
    "stats": ["stats", "F"],
    "translit-table": ["translit", "--table", "F", "corpus.tsv", "out.tsv"],
    "translit-corpus": ["translit", "--table", "table.tsv", "F", "out.tsv"],
    "kappa-first": ["kappa", "F", "corpus.tsv"],
    "kappa-second": ["kappa", "corpus.tsv", "F"],
    "smote": ["smote", "--target", "match-majority", "--smote-k", "1", "F", "out.rows"],
    "train-corpus": ["train", "F", *TRAIN_FLAGS],
    "train-embeddings": ["train", "corpus.tsv", "--embeddings", "F", *TRAIN_FLAGS],
    "train-config": ["train", "corpus.tsv", "--config", "F", *TRAIN_FLAGS],
    "tag-input": ["tag", "--model", "valid.model", "F", "out.tsv"],
    "tag-model": ["tag", "--model", "F", "corpus.tsv", "out.tsv"],
    "eval-gold": ["eval", "F", "corpus.tsv"],
    "eval-pred": ["eval", "corpus.tsv", "F"],
}
VALID_FILES = {
    "corpus.tsv": b"w1\tB-PER\nw2\tI-PER\nw3\tO\n\n# note\nw4\tB-LOC\nw1\tO\n\n",
    "table.tsv": b"w\tv\n1\tone\n",
    "rows.txt": b"2\nA\t1 2\nA\t2 3\nA\t3 1\nB\t1 1\nB\t0 1\n",
    "vectors.txt": b"2 2\nw1 0.1 0.2\nw2 0.3 -0.4\n",
    "train.cfg": b"learning_rate 0.01\nbatch_size 2\nclip_norm 5\n",
}
FUZZ_INPUTS = {*VALID_FILES, "valid.model"}
PER_EXAMPLE_FILES = {"F", "m.model", "out.tsv", "out.rows"}
# the valid file each form's fuzzed argument stands in for
FUZZ_SEEDS = {
    "translit-table": "table.tsv", "smote": "rows.txt", "train-embeddings": "vectors.txt",
    "train-config": "train.cfg", "tag-model": "valid.model",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    for name, data in VALID_FILES.items():
        (directory / name).write_bytes(data)
    args = ["train", str(directory / "corpus.tsv"), *TRAIN_FLAGS]
    args[args.index("m.model")] = str(directory / "valid.model")
    assert main(args) == 0
    return directory


class TestMalformedFiles:
    @pytest.mark.parametrize("form", sorted(FUZZ_FORMS))
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_exits_without_traceback(self, fuzz_dir, form, data):
        valid = (fuzz_dir / FUZZ_SEEDS.get(form, "corpus.tsv")).read_bytes()
        # the fuzzed file and the outputs go to a new directory: rewriting an
        # existing file can force a disk flush on every example
        work = Path(tempfile.mkdtemp(dir=fuzz_dir))
        (work / "F").write_bytes(data.draw(malformed(valid)))
        args = [
            str(fuzz_dir / a) if a in FUZZ_INPUTS else str(work / a) if a in PER_EXAMPLE_FILES else a
            for a in FUZZ_FORMS[form]
        ]
        assert main(args) in (0, 1, 2)
