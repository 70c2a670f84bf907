import numpy as np
import pytest
from helpers import synthetic_corpus

from amner.cli import main
from amner.corpus import TagScheme, save_corpus

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
        assert "sentence 0 token 1" in capsys.readouterr().out


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


class TestKappa:
    def test_identical_files(self, tmp_path, capsys):
        text = "a\tB-PER\nb\tO\n\n"
        first = write(tmp_path / "a.tsv", text)
        second = write(tmp_path / "b.tsv", text)
        assert main(["kappa", first, second]) == 0
        out = capsys.readouterr().out
        assert "kappa 1.0000" in out
        assert "Perfect agreement" in out

    def test_mismatched_tokens_rejected(self, tmp_path):
        first = write(tmp_path / "a.tsv", "a\tO\n\n")
        second = write(tmp_path / "b.tsv", "b\tO\n\n")
        assert main(["kappa", first, second]) == 1


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

    def test_plain_amount_mode(self, tmp_path, capsys):
        src = self.make_rows(tmp_path)
        dst = tmp_path / "out.tsv"
        code = main(["smote", "--smote-n", "200", "--smote-k", "1", "--label", "PER", src, str(dst)])
        assert code == 0
        assert "count.PER 6" in capsys.readouterr().out  # 2 originals + 4 synthetic

    def test_needs_mode_flag(self, tmp_path):
        src = self.make_rows(tmp_path)
        assert main(["smote", src, "out.tsv"]) == 2


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


class TestGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestTrainTagEval:
    @pytest.fixture()
    def corpus_path(self, tmp_path):
        corpus = synthetic_corpus(8, seed=21, min_len=3, max_len=6)
        path = tmp_path / "train.tsv"
        save_corpus(path, corpus, TagScheme.IOB2)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_is_data_error(self, tmp_path, corpus_path, capsys):
        args = ["train", corpus_path, "--model", str(tmp_path / "m.model")] + self.TRAIN_ARGS
        assert main(args + ["--lr", "1e300"]) == 1
        assert "error: epoch 0, batch 1" in capsys.readouterr().err

    def test_train_is_byte_deterministic(self, tmp_path, corpus_path):
        a_path = tmp_path / "a.model"
        b_path = tmp_path / "b.model"
        assert main(["train", corpus_path, "--model", str(a_path)] + self.TRAIN_ARGS) == 0
        assert main(["train", corpus_path, "--model", str(b_path)] + self.TRAIN_ARGS) == 0
        assert a_path.read_bytes() == b_path.read_bytes()
        log_a = (tmp_path / "a.model.log").read_text(encoding="utf-8")
        log_b = (tmp_path / "b.model.log").read_text(encoding="utf-8")
        assert log_a.replace("a.model", "X") == log_b.replace("b.model", "X")

    def test_tag_and_eval_round(self, tmp_path, corpus_path, capsys):
        model_path = tmp_path / "m.model"
        assert main(["train", corpus_path, "--model", str(model_path)] + self.TRAIN_ARGS) == 0
        tagged = tmp_path / "tagged.tsv"
        assert main(["tag", "--model", str(model_path), corpus_path, str(tagged)]) == 0
        # decoded output is always IOB2-legal thanks to the mask
        assert main(["validate", str(tagged)]) == 0
        assert main(["eval", "--metric", "conll", corpus_path, str(tagged)]) == 0

    def test_tag_accepts_single_column_input(self, tmp_path, corpus_path):
        model_path = tmp_path / "m.model"
        assert main(["train", corpus_path, "--model", str(model_path)] + self.TRAIN_ARGS) == 0
        src = write(tmp_path / "plain.txt", "w0\nw1\nper0\n\nw2\n\n")
        dst = tmp_path / "tagged.tsv"
        assert main(["tag", "--model", str(model_path), src, str(dst)]) == 0
        lines = dst.read_text(encoding="utf-8").strip().split("\n")
        assert len([l for l in lines if l]) == 4

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

    def test_config_file_with_flag_override(self, tmp_path, corpus_path):
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
