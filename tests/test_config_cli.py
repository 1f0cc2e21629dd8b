"""Flat config files, override precedence, and the command-line surface.

CLI commands run in-process through main(argv) so exit codes, stdout, and
produced files can all be asserted cheaply.
"""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from quadcode import cli, experiments, train_eval
from quadcode.cli import main
from quadcode.config import (
    ConfigError,
    Settings,
    parse_config_file,
    parse_overrides,
    resolve_settings,
)
from quadcode.corpus import AlignmentPair, read_jsonl, write_alignments, write_jsonl
from quadcode.errors import InputError
from quadcode.fixtures import make_separable_corpus, make_softlabel_fixture
from quadcode.models import CharCnnConfig, ConvSpec, WordCnnConfig, load_checkpoint, predict
from quadcode.ontology import CLASSES, default_quad_map, dumps_quad_map, parse_cameo_code
from quadcode.train_eval import DEFAULT_BATCH_SIZE, TrainConfig


class TestSettings:
    def test_defaults_mirror_full_scale_models(self):
        s = Settings()
        assert s.model == "word" and s.batch_size == 32 and s.epochs == 30 and s.patience == 5
        assert s.optimizer == "adam" and s.lr == 1e-3
        assert s.word_embed_dim == 128 and s.word_length == 64 and s.word_frames == 256
        assert s.word_kernels == (3, 4, 5) and s.word_hidden == 150
        assert s.char_embed_dim == 32 and s.char_length == 512
        assert s.char_convs == (ConvSpec(256, 7, 3), ConvSpec(256, 3), ConvSpec(256, 3), ConvSpec(256, 3, 3))
        assert s.char_hidden == (1024, 1024)

    def test_apply_coercions(self):
        s = Settings()
        s.apply(
            {
                "model": "char",
                "seed": "9",
                "lr": "0.01",
                "shuffle": "false",
                "word.kernels": "2,3,4",
                "char.hidden": "64,32",
                "char.convs": "8x5p2,8x3",
            },
            source="test",
        )
        assert s.model == "char" and s.seed == 9 and s.lr == 0.01 and s.shuffle is False
        assert s.word_kernels == (2, 3, 4)
        assert s.char_hidden == (64, 32)
        assert s.char_convs == (ConvSpec(8, 5, 2), ConvSpec(8, 3))

    def test_unknown_key_lists_known(self):
        s = Settings()
        with pytest.raises(ConfigError, match="unknown setting"):
            s.apply({"word.width": "3"}, source="test")

    def test_bad_value_names_key(self):
        s = Settings()
        with pytest.raises(ConfigError, match="seed"):
            s.apply({"seed": "many"}, source="test")

    def test_bad_model_name(self):
        s = Settings()
        with pytest.raises(ConfigError):
            s.apply({"model": "transformer"}, source="test")

    def test_conv_syntax_errors(self):
        s = Settings()
        for bad in ("8", "8x", "x3", "8x3p", "8x3q2"):
            with pytest.raises(ConfigError):
                s.apply({"char.convs": bad}, source="test")

    def test_json_obj_round_trips_through_apply(self):
        s = Settings()
        s.apply({"char.convs": "8x5p2,8x3", "word.kernels": "2,3,4"}, source="test")
        obj = s.to_json_obj()
        assert obj["char_convs"] == "8x5p2,8x3"
        assert obj["word_kernels"] == [2, 3, 4]

    def test_model_config_construction(self):
        s = Settings()
        s.apply({"word.dropout": "0.25", "char.one_hot": "true"}, source="test")
        wc = s.word_config(vocab_size=123)
        assert wc.vocab_size == 123 and wc.dropout == 0.25 and wc.kernels == (3, 4, 5)
        cc = s.char_config(alphabet_size=70)
        assert cc.one_hot and cc.embed_dim == 70  # one-hot ties the dims
        tc = s.train_config()
        assert tc.batch_size == 32 and tc.optimizer == "adam"

    def test_default_settings_build_the_dataclass_defaults(self):
        s = Settings()
        assert s.train_config() == TrainConfig()
        assert s.word_config(vocab_size=123) == WordCnnConfig(vocab_size=123)
        assert s.char_config(alphabet_size=70) == CharCnnConfig(alphabet_size=70)

    def test_every_config_field_has_one_setting(self):
        # The data decides the input sizes and the classifier is four-way;
        # every other field of a config dataclass is a setting of the same name.
        names = {f.name for f in fields(Settings)}
        for cls, prefix, derived in [
            (TrainConfig, "", set()),
            (WordCnnConfig, "word_", {"vocab_size", "classes"}),
            (CharCnnConfig, "char_", {"alphabet_size", "classes"}),
        ]:
            for f in fields(cls):
                if f.name not in derived:
                    assert prefix + f.name in names, f"{cls.__name__}.{f.name} has no setting"


class TestConfigFiles:
    def test_parse_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# a comment\n\nmodel = char\nseed = 4\n", encoding="utf-8")
        assert parse_config_file(path) == {"model": "char", "seed": "4"}

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_only_line_feeds_and_returns_end_a_line(self, tmp_path, end):
        # str.splitlines would also break at the form feed and read seed = 5 out of the comment
        path = tmp_path / "run.conf"
        path.write_bytes(f"# note\x0cseed = 5{end}model = char{end}".encode())
        assert parse_config_file(path) == {"model": "char"}

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_invalid_utf8_line_number_counts_the_same_line_ends(self, tmp_path, end):
        path = tmp_path / "run.conf"
        path.write_bytes(f"seed = 1{end}model = char{end}".encode() + b"# \xff" + end.encode())
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: line 3: not valid UTF-8$"):
            parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed = 1\nseed = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=":1"):
            parse_config_file(path)

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed = 1\nlr = 0.5\n", encoding="utf-8")
        s = resolve_settings(path, ["seed=7"])
        assert s.seed == 7 and s.lr == 0.5

    def test_override_parse(self):
        assert parse_overrides(["a=1", "b = x "]) == {"a": "1", "b": "x"}
        with pytest.raises(ConfigError):
            parse_overrides(["novalue"])


@pytest.fixture()
def sample_dict(tmp_path):
    path = tmp_path / "verbs.txt"
    path.write_text(
        "met with -> 040\nsigned agreement with -> 057\nprovided aid to -> 070\n"
        "condemned -> 111\nattacked -> 190\nsigned -> 051\n",
        encoding="utf-8",
    )
    return path


class TestSoftlabelCommand:
    def test_end_to_end(self, tmp_path, sample_dict, capsys):
        fx = make_softlabel_fixture(25, seed=1)
        infile = tmp_path / "raw.jsonl"
        out = tmp_path / "labelled.jsonl"
        write_jsonl(fx.records, infile)
        code = main(["softlabel", "--dict", str(sample_dict), "--in", str(infile), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "no_label" in printed
        labelled = read_jsonl(out)
        expected = [e for e in fx.expected if e is not None]
        assert len(labelled) == len(expected)
        manifest = json.loads((tmp_path / "labelled.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "softlabel"
        assert any(path.endswith("raw.jsonl") for path in manifest["inputs"])
        assert all(len(sha) == 64 for sha in manifest["inputs"].values())

    def test_missing_dictionary_exits_2_with_path(self, tmp_path, capsys):
        infile = tmp_path / "raw.jsonl"
        infile.write_text("", encoding="utf-8")
        code = main(["softlabel", "--dict", str(tmp_path / "nope.txt"), "--in", str(infile), "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_empty_corpus_ok(self, tmp_path, sample_dict, capsys):
        infile = tmp_path / "raw.jsonl"
        out = tmp_path / "out.jsonl"
        infile.write_text("", encoding="utf-8")
        assert main(["softlabel", "--dict", str(sample_dict), "--in", str(infile), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_malformed_record_exits_2(self, tmp_path, sample_dict, capsys):
        infile = tmp_path / "raw.jsonl"
        bad_cameo = '{"id":"a","lang":"en","text":"hi","cameo":%s}\n'
        for text in ('{"id":"a"}\n', bad_cameo % "5", bad_cameo % '["01"]'):
            infile.write_text(text, encoding="utf-8")
            code = main(["softlabel", "--dict", str(sample_dict), "--in", str(infile), "--out", str(tmp_path / "o.jsonl")])
            assert code == 2
            assert "line 1" in capsys.readouterr().err


    @pytest.mark.parametrize("flag,text,where", [
        ("--dict", "attacked -> 190\nwarned, -> 130\n", "dictionary line 2"),
        ("--actors", "police\n# comment\nu.s.\n", "actor list line 3"),
    ])
    def test_unmatchable_token_exits_2(self, tmp_path, sample_dict, capsys, flag, text, where):
        infile = tmp_path / "raw.jsonl"
        write_jsonl(make_softlabel_fixture(5, seed=1).records, infile)
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        flags = {"--dict": str(sample_dict), "--in": str(infile), "--out": str(tmp_path / "o.jsonl"), flag: str(bad)}
        assert main(["softlabel", *(x for pair in flags.items() for x in pair)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1
        assert "can never match" in err


class TestTransferCommand:
    def test_end_to_end(self, tmp_path, capsys, transfer_fixture):
        fx = transfer_fixture
        src, tgt, align, out = (tmp_path / n for n in ("src.jsonl", "tgt.jsonl", "align.jsonl", "out.jsonl"))
        write_jsonl(fx.source, src)
        write_jsonl(fx.target, tgt)
        write_alignments(fx.pairs, align)
        code = main(["transfer", "--src", str(src), "--tgt", str(tgt), "--align", str(align), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert f"alignment conflicts  {fx.expected_conflicts}" in printed
        labelled = read_jsonl(out)
        assert {r.id: r.label for r in labelled} == fx.expected_labels

    def test_bad_target_line_names_the_target_file(self, tmp_path, capsys, transfer_fixture):
        fx = transfer_fixture
        src, tgt, align, out = (tmp_path / n for n in ("src.jsonl", "tgt.jsonl", "align.jsonl", "out.jsonl"))
        write_jsonl(fx.source, src)
        write_jsonl(fx.target[:1], tgt)
        with open(tgt, "a", encoding="utf-8") as fh:
            fh.write("{oops\n")
        write_alignments(fx.pairs, align)
        code = main(["transfer", "--src", str(src), "--tgt", str(tgt), "--align", str(align), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith(f"error: {tgt}: line 2: invalid JSON: ")

    def test_duplicate_target_id_names_the_target_file(self, tmp_path, capsys, transfer_fixture):
        fx = transfer_fixture
        src, tgt, align, out = (tmp_path / n for n in ("src.jsonl", "tgt.jsonl", "align.jsonl", "out.jsonl"))
        write_jsonl(fx.source, src)
        write_jsonl([*fx.target, fx.target[0]], tgt)
        write_alignments(fx.pairs, align)
        code = main(["transfer", "--src", str(src), "--tgt", str(tgt), "--align", str(align), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err == f"error: {tgt}: line {len(fx.target) + 1}: duplicate record id {fx.target[0].id!r}\n"

    def test_unknown_alignment_id_names_the_alignment_line(self, tmp_path, capsys, transfer_fixture):
        fx = transfer_fixture
        src, tgt, align, out = (tmp_path / n for n in ("src.jsonl", "tgt.jsonl", "align.jsonl", "out.jsonl"))
        write_jsonl(fx.source, src)
        write_jsonl(fx.target, tgt)
        write_alignments([*fx.pairs, AlignmentPair(fx.source[0].id, "ghost")], align)
        code = main(["transfer", "--src", str(src), "--tgt", str(tgt), "--align", str(align), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {align}: line {len(fx.pairs) + 1}: alignment references unknown id 'ghost'\n"

    def test_unlabelled_source_names_the_alignment_line(self, tmp_path, capsys, transfer_fixture):
        fx = transfer_fixture
        src, tgt, align, out = (tmp_path / n for n in ("src.jsonl", "tgt.jsonl", "align.jsonl", "out.jsonl"))
        write_jsonl([fx.source[0], replace(fx.source[1], label=None), *fx.source[2:]], src)
        write_jsonl(fx.target, tgt)
        write_alignments(fx.pairs, align)
        code = main(["transfer", "--src", str(src), "--tgt", str(tgt), "--align", str(align), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {align}: line 3: aligned source record 's1' carries no label\n"


class TestSplitCommand:
    def test_end_to_end(self, tmp_path, capsys):
        records = make_separable_corpus(40, seed=2)
        infile = tmp_path / "all.jsonl"
        write_jsonl(records, infile)
        outdir = tmp_path / "splits"
        code = main(["split", "--in", str(infile), "--fractions", "0.5,0.25,0.25", "--seed", "3", "--outdir", str(outdir)])
        assert code == 0
        parts = [read_jsonl(outdir / f"{n}.jsonl") for n in ("train", "dev", "test")]
        # 10 per class at 0.5/0.25/0.25: largest remainder sends each class's
        # leftover record to dev, hence 5/3/2 per class
        assert [len(p) for p in parts] == [20, 12, 8]
        all_ids = sorted(r.id for part in parts for r in part)
        assert all_ids == sorted(r.id for r in records)
        manifest = json.loads((outdir / "split.manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 3

    def test_non_utf8_argument_exits_2_before_writing(self, tmp_path, capsys):
        # Python passes the byte 0xff of a command line as the lone surrogate U+DCFF
        infile = tmp_path / "all.jsonl"
        write_jsonl(make_separable_corpus(8, seed=0), infile)
        outdir = tmp_path / "out\udcff"
        assert main(["split", "--in", str(infile), "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument ") and "not valid UTF-8" in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["all.jsonl"]

    def test_bad_fractions_exit_2(self, tmp_path, capsys):
        infile = tmp_path / "all.jsonl"
        write_jsonl(make_separable_corpus(8, seed=0), infile)
        for fractions in ("0.5,0.5", "a,b,c", "nan,0.5,0.5"):
            assert main(["split", "--in", str(infile), "--fractions", fractions, "--outdir", str(tmp_path / "s")]) == 2
            assert capsys.readouterr().err.startswith("error:")


TRAIN_OVERRIDES = [
    "--set", "word.embed_dim=8", "--set", "word.length=10", "--set", "word.frames=4",
    "--set", "word.hidden=8", "--set", "word.dropout=0.0",
    "--set", "epochs=2", "--set", "batch_size=16", "--set", "patience=5",
]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small trained checkpoint shared by the train/eval/predict tests."""
    root = tmp_path_factory.mktemp("cliruns")
    records = make_separable_corpus(48, seed=4)
    train_path, dev_path = root / "train.jsonl", root / "dev.jsonl"
    write_jsonl(records[:40], train_path)
    write_jsonl(records[40:], dev_path)
    ckpt = root / "model.ckpt"
    code = main([
        "train", "--model", "word", "--train", str(train_path), "--dev", str(dev_path),
        "--seed", "1", "--out-checkpoint", str(ckpt), *TRAIN_OVERRIDES,
    ])
    assert code == 0
    return root, ckpt, dev_path


def _must_not_fit(*args, **kwargs):
    raise AssertionError("train fitted a model it should have refused to start")


def _must_not_load(*args, **kwargs):
    raise AssertionError("a command loaded a checkpoint it should have refused to start on")


class TestTrainCommand:
    @pytest.mark.parametrize("setting", [
        "optimizer=foo", "lr=0", "lr=-0.1", "lr=nan", "lr=inf", "momentum=1", "momentum=-0.5",
        "beta1=1.5", "beta2=1", "beta2=nan", "eps=0", "eps=-1", "eps=inf", "seed=-1",
    ])
    def test_bad_train_setting_exits_2(self, trained, tmp_path, capsys, setting):
        root, _, dev_path = trained
        code = main([
            "train", "--train", str(root / "train.jsonl"), "--dev", str(dev_path),
            "--out-checkpoint", str(tmp_path / "m.ckpt"), *TRAIN_OVERRIDES, "--set", setting,
        ])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
        assert setting.split("=")[0] in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_non_utf8_set_value_exits_2_before_training(self, trained, tmp_path, capsys, monkeypatch):
        root, _, dev_path = trained
        vectors = tmp_path / "vec\udcff.txt"  # a file the run could read, whose name no header can hold
        vectors.write_text("", encoding="utf-8")
        monkeypatch.setattr(experiments, "fit", _must_not_fit)
        code = main([
            "train", "--train", str(root / "train.jsonl"), "--dev", str(dev_path),
            "--out-checkpoint", str(tmp_path / "m.ckpt"), *TRAIN_OVERRIDES, "--set", f"word.embeddings={vectors}",
        ])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: argument ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [vectors.name]

    @pytest.mark.parametrize("flag", ["--out-checkpoint", "--history"])
    def test_missing_output_directory_exits_2_before_fitting(self, trained, tmp_path, capsys, monkeypatch, flag):
        root, _, dev_path = trained
        monkeypatch.setattr(experiments, "fit", _must_not_fit)
        paths = {"--out-checkpoint": str(tmp_path / "m.ckpt"), "--history": str(tmp_path / "h.jsonl")}
        paths[flag] = str(tmp_path / "missing" / "out")
        code = main([
            "train", "--train", str(root / "train.jsonl"), "--dev", str(dev_path),
            *[arg for pair in paths.items() for arg in pair], *TRAIN_OVERRIDES,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {paths[flag]}: output directory {tmp_path / 'missing'} does not exist\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_is_one_line(self, trained, tmp_path, capsys, monkeypatch):
        # a real request could be granted under overcommit and then touched, so none is made
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 286. GiB for an array with shape (100000000, 384) and data type float64")

        root, _, dev_path = trained
        monkeypatch.setattr(experiments, "fit", out_of_memory)
        code = main([
            "train", "--train", str(root / "train.jsonl"), "--dev", str(dev_path),
            "--out-checkpoint", str(tmp_path / "m.ckpt"), *TRAIN_OVERRIDES, "--set", "word.frames=100000000",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "internal error: out of memory: Unable to allocate 286. GiB for an array with shape (100000000, 384) and data type float64\n"
        assert list(tmp_path.iterdir()) == []

    def test_outputs_exist(self, trained, capsys):
        root, ckpt, _ = trained
        assert ckpt.exists()
        assert (root / "model.ckpt.history.jsonl").exists()
        manifest = json.loads((root / "model.ckpt.manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "train"
        assert manifest["config"]["word_embed_dim"] == 8
        assert manifest["seed"] == 1

    def test_checkpoint_metadata(self, trained):
        from quadcode.models import load_checkpoint

        _, ckpt, _ = trained
        loaded = load_checkpoint(ckpt)
        assert loaded.model.kind == "word"
        assert loaded.metadata["seed"] == 1
        assert loaded.metadata["epochs_run"] == 2
        assert loaded.encoder is not None

    def test_history_lines_match_epochs(self, trained):
        from quadcode.train_eval import read_history

        root, _, _ = trained
        history = read_history(root / "model.ckpt.history.jsonl")
        assert [h.epoch for h in history] == [1, 2]

    def test_unreadable_train_file_exits_2(self, tmp_path, capsys):
        code = main([
            "train", "--train", str(tmp_path / "missing.jsonl"), "--dev", str(tmp_path / "missing.jsonl"),
            "--out-checkpoint", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2

    def test_unlabelled_training_data_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"id":"a","lang":"en","text":"hello there"}\n', encoding="utf-8")
        code = main([
            "train", "--train", str(raw), "--dev", str(raw),
            "--out-checkpoint", str(tmp_path / "m.ckpt"), *TRAIN_OVERRIDES,
        ])
        assert code == 2
        assert "label" in capsys.readouterr().err


    def test_ascii_stdout_escapes_a_non_ascii_checkpoint_path(self, trained, tmp_path):
        _, _, dev_path = trained
        ckpt = tmp_path / "مودل.ckpt"
        src_root = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src_root, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": path}
        argv = ["train", "--model", "word", "--train", str(dev_path), "--dev", str(dev_path),
                "--out-checkpoint", str(ckpt), *TRAIN_OVERRIDES]
        done = subprocess.run([sys.executable, "-m", "quadcode.cli", *argv], env=env, capture_output=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, b"")
        assert cli._manifest_path(ckpt).exists()
        assert b"checkpoint written to " + ascii(str(ckpt))[1:-1].encode() in done.stdout

    def test_dev_accuracy_is_what_eval_reports(self, tmp_path, capsys, monkeypatch):
        """Dev evaluation walks 32 records a forward whatever the training
        batch size, as eval does, so the two give the same accuracy."""
        records = make_separable_corpus(80, seed=6)
        train_path, dev_path, ckpt = tmp_path / "train.jsonl", tmp_path / "dev.jsonl", tmp_path / "m.ckpt"
        write_jsonl(records[:40], train_path)
        write_jsonl(records[40:], dev_path)
        chunks = []
        real_predict = train_eval.predict
        monkeypatch.setattr(train_eval, "predict", lambda model, rows: chunks.append(len(rows)) or real_predict(model, rows))
        assert main(["train", "--model", "word", "--train", str(train_path), "--dev", str(dev_path),
                     "--out-checkpoint", str(ckpt), *TRAIN_OVERRIDES, "--set", "batch_size=8"]) == 0
        assert chunks == [32, 8, 32, 8]
        report = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--test", str(dev_path), "--report", str(report)]) == 0
        accuracy = json.loads(report.read_text(encoding="utf-8"))["accuracy"]
        assert load_checkpoint(ckpt).metadata["best_dev_accuracy"] == accuracy


class TestEvalCommand:
    def test_report_written(self, trained, tmp_path, capsys):
        _, ckpt, dev_path = trained
        report_path = tmp_path / "report.json"
        code = main(["eval", "--checkpoint", str(ckpt), "--test", str(dev_path), "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["model_kind"] == "word"
        assert 0.0 <= report["accuracy"] <= 1.0
        assert np.array(report["confusion"]).sum() == 8
        assert "accuracy" in capsys.readouterr().out


class TestPredictCommand:
    def test_annotations(self, trained, tmp_path, capsys):
        _, ckpt, dev_path = trained
        out = tmp_path / "pred.jsonl"
        code = main(["predict", "--checkpoint", str(ckpt), "--in", str(dev_path), "--out", str(out)])
        assert code == 0
        lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(lines) == 8
        for obj in lines:
            assert obj["predicted"] in {
                "verbal_cooperation", "material_cooperation", "verbal_conflict", "material_conflict"
            }
            assert len(obj["probs"]) == 4
            assert abs(sum(obj["probs"]) - 1.0) < 1e-9

    def test_lines_byte_for_byte(self, trained, tmp_path, capsys):
        """Each line is json.dumps of the record's fields, "predicted" and "probs",
        compact and raw UTF-8, with the probabilities models.predict gives on
        the same checkpoint."""
        _, ckpt, dev_path = trained
        records = read_jsonl(dev_path)
        records[0] = replace(records[0], text='said "no" \\ to\x01 قصف\u2028 😀\x7f', source="wire\t1")
        records[1] = replace(records[1], label=None, cameo=parse_cameo_code("190"))
        infile, out = tmp_path / "in.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(records, infile)
        assert main(["predict", "--checkpoint", str(ckpt), "--in", str(infile), "--out", str(out)]) == 0
        loaded = load_checkpoint(ckpt)
        expected = []
        for start in range(0, len(records), DEFAULT_BATCH_SIZE):
            chunk = records[start : start + DEFAULT_BATCH_SIZE]
            classes, probs = predict(loaded.model, np.stack([loaded.encoder.encode(r.text) for r in chunk]))
            for r, c, row in zip(chunk, classes, probs):
                obj = {"id": r.id, "lang": r.lang, "text": r.text}
                optional = {"label": r.label and r.label.value, "cameo": r.cameo and r.cameo.digits, "source": r.source}
                obj.update((key, value) for key, value in optional.items() if value is not None)
                obj["predicted"] = CLASSES[c].value
                obj["probs"] = [float(p) for p in row]
                expected.append(json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n")
        assert out.read_bytes() == "".join(expected).encode("utf-8")

    def test_checkpoint_probe_guard(self, trained, tmp_path, capsys):
        _, ckpt, dev_path = trained
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(bytes(blob))
        code = main(["predict", "--checkpoint", str(broken), "--in", str(dev_path), "--out", str(tmp_path / "p.jsonl")])
        assert code == 2
        assert "digest" in capsys.readouterr().err.lower()

    def test_forged_encoder_names_the_checkpoint(self, trained, tmp_path, capsys):
        _, ckpt, dev_path = trained
        data = ckpt.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16 : 16 + header_len])
        header["encoder"]["counts"][2] = "1"
        raw = json.dumps(header).encode("utf-8")
        body = data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + header_len : -32]
        forged = tmp_path / "forged.ckpt"
        forged.write_bytes(body + hashlib.sha256(body).digest())
        code = main(["predict", "--checkpoint", str(forged), "--in", str(dev_path), "--out", str(tmp_path / "p.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {forged}: vocabulary entry 3: bad field types"]


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_manifest_reuses_the_load_digest(trained, tmp_path, monkeypatch, capsys, command):
    """The manifest records the checkpoint's sha256 as taken while loading it,
    without reading the file a second time."""
    _, ckpt, dev_path = trained
    hashed = []
    true_sha256_file = cli._sha256_file
    monkeypatch.setattr(cli, "_sha256_file", lambda path: hashed.append(str(path)) or true_sha256_file(path))
    out = tmp_path / "out.json"
    if command == "eval":
        argv = ["eval", "--checkpoint", str(ckpt), "--test", str(dev_path), "--report", str(out)]
    else:
        argv = ["predict", "--checkpoint", str(ckpt), "--in", str(dev_path), "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"][str(ckpt)] == hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert manifest["inputs"][str(dev_path)] == hashlib.sha256(dev_path.read_bytes()).hexdigest()
    assert hashed == [str(dev_path)]


class TestGradcheckCommand:
    def test_word_passes(self, capsys):
        assert main(["gradcheck", "--model", "word", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "overall" in out

    def test_char_passes(self, capsys):
        assert main(["gradcheck", "--model", "char", "--seed", "1"]) == 0

    def test_corrupted_backward_fails(self, monkeypatch, capsys):
        from quadcode.tensor_nn import layers, ops

        true_backward = ops.dense_backward

        def corrupted(x, w, grad_y, grad_w, grad_b):
            gx = true_backward(x, w, grad_y, grad_w, grad_b)
            grad_w *= 1.25
            return gx

        monkeypatch.setattr(layers.ops, "dense_backward", corrupted)
        assert main(["gradcheck", "--model", "word", "--seed", "0"]) == 1
        assert "FAIL" in capsys.readouterr().err


BAD_NUMERIC_FLAGS = [
    ["split", "--seed", "-1"],
    ["gradcheck", "--model", "word", "--seed", "-1"],
    ["gradcheck", "--model", "word", "--epsilon", "0"],
    ["gradcheck", "--model", "word", "--epsilon", "-0.5"],
    ["gradcheck", "--model", "word", "--epsilon", "nan"],
    ["gradcheck", "--model", "word", "--epsilon", "inf"],
    ["gradcheck", "--model", "word", "--coords", "0"],
    ["gradcheck", "--model", "word", "--coords", "-1"],
]


@pytest.mark.parametrize("argv", BAD_NUMERIC_FLAGS, ids=[" ".join(argv) for argv in BAD_NUMERIC_FLAGS])
def test_bad_numeric_flag_exits_2(tmp_path, capsys, argv):
    flag = argv[-2]
    if argv[0] == "split":
        infile = tmp_path / "all.jsonl"
        write_jsonl(make_separable_corpus(8, seed=0), infile)
        argv = [*argv, "--in", str(infile), "--outdir", str(tmp_path / "s")]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1
    assert flag in err and "OK" not in out


def _inputs_in(d, ckpt, dev_path, fx) -> dict:
    """A valid value for every file flag of every subcommand; all but the
    checkpoint and the labelled records are written under d."""
    write_jsonl(fx.source, d / "src.jsonl")
    write_jsonl(fx.target, d / "tgt.jsonl")
    write_alignments(fx.pairs, d / "align.jsonl")
    write_jsonl(make_softlabel_fixture(8, seed=1).records, d / "raw.jsonl")
    (d / "quad.txt").write_text(dumps_quad_map(default_quad_map()), encoding="utf-8")
    (d / "verbs.txt").write_text("attacked -> 190\n", encoding="utf-8")
    (d / "actors.txt").write_text("police\n", encoding="utf-8")
    (d / "run.conf").write_text("epochs = 1\n", encoding="utf-8")
    (d / "vecs.txt").write_text("", encoding="utf-8")
    return {
        "softlabel": {"--dict": d / "verbs.txt", "--quadmap": d / "quad.txt", "--actors": d / "actors.txt",
                      "--in": d / "raw.jsonl", "--out": d / "labelled.jsonl"},
        "transfer": {"--src": d / "src.jsonl", "--tgt": d / "tgt.jsonl", "--align": d / "align.jsonl",
                     "--out": d / "transferred.jsonl"},
        "split": {"--in": dev_path, "--outdir": d / "split"},
        "train": {"--train": dev_path, "--dev": dev_path, "--config": d / "run.conf", "--embeddings": d / "vecs.txt",
                  "--quadmap": d / "quad.txt", "--out-checkpoint": d / "m.ckpt"},
        "eval": {"--checkpoint": ckpt, "--test": dev_path, "--report": d / "report.json"},
        "predict": {"--checkpoint": ckpt, "--in": dev_path, "--out": d / "predicted.jsonl"},
    }


@pytest.fixture(scope="module")
def valid_inputs(trained, tmp_path_factory, transfer_fixture):
    _, ckpt, dev_path = trained
    return _inputs_in(tmp_path_factory.mktemp("inputs"), ckpt, dev_path, transfer_fixture)


@pytest.fixture
def own_inputs(trained, tmp_path, transfer_fixture):
    """valid_inputs with every file, checkpoint and records too, a fresh copy under tmp_path."""
    _, ckpt, dev_path = trained
    for path in (ckpt, dev_path):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    return _inputs_in(tmp_path, tmp_path / ckpt.name, tmp_path / dev_path.name, transfer_fixture)


def _argv(command: str, flags: dict) -> list[str]:
    argv = [command, *(str(x) for pair in flags.items() for x in pair)]
    return argv + TRAIN_OVERRIDES if command == "train" else argv


def _files(root) -> dict:
    """Every file under root and its bytes."""
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


TEXT_INPUTS = [
    ("softlabel", "--dict"), ("softlabel", "--quadmap"), ("softlabel", "--actors"), ("softlabel", "--in"),
    ("transfer", "--src"), ("transfer", "--tgt"), ("transfer", "--align"),
    ("split", "--in"),
    ("train", "--train"), ("train", "--dev"), ("train", "--config"), ("train", "--embeddings"), ("train", "--quadmap"),
    ("eval", "--test"),
    ("predict", "--in"),
]


@pytest.mark.parametrize("command,flag", TEXT_INPUTS, ids=[f"{c}{f}" for c, f in TEXT_INPUTS])
def test_invalid_utf8_input_exits_2(valid_inputs, tmp_path, capsys, command, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"fine\n\xff\xfe\n")
    flags = {**valid_inputs[command], flag: bad}
    assert main(_argv(command, flags)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "line 2" in err and "UTF-8" in err


# one flag per reader of a plain text file: dictionary, quad map, actor list, settings, embeddings
BOM_INPUTS = [("softlabel", "--dict"), ("softlabel", "--quadmap"), ("softlabel", "--actors"),
              ("train", "--config"), ("train", "--embeddings")]


@pytest.mark.parametrize("command,flag", BOM_INPUTS, ids=[f"{c}{f}" for c, f in BOM_INPUTS])
def test_leading_byte_order_mark_exits_2(valid_inputs, tmp_path, capsys, command, flag):
    bad = tmp_path / "bom.txt"
    bad.write_bytes(b"\xef\xbb\xbf" + valid_inputs[command][flag].read_bytes())
    assert main(_argv(command, {**valid_inputs[command], flag: bad})) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: line 1: starts with a byte-order mark (save the file as UTF-8 without a BOM)\n"


class TestOutputPaths:
    """Every command refuses, before it reads an input, an output that is the
    same file as one of its inputs or as another of its outputs (its manifest
    included), and an output in a directory that does not exist."""

    def _refused(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(experiments, "fit", _must_not_fit)
        before = _files(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert _files(tmp_path) == before

    def test_softlabel_output_over_its_input(self, own_inputs, tmp_path, capsys, monkeypatch):
        flags = own_inputs["softlabel"]
        flags["--out"] = tmp_path / "." / flags["--in"].name
        self._refused(tmp_path, capsys, monkeypatch, _argv("softlabel", flags),
                      f"{flags['--out']}: output is the same file as input {flags['--in']}")

    def test_transfer_output_hard_linked_to_its_input(self, own_inputs, tmp_path, capsys, monkeypatch):
        flags = own_inputs["transfer"]
        flags["--out"] = tmp_path / "link.jsonl"
        flags["--out"].hardlink_to(flags["--align"])
        self._refused(tmp_path, capsys, monkeypatch, _argv("transfer", flags),
                      f"{flags['--out']}: output is the same file as input {flags['--align']}")

    def test_split_outdir_holding_its_input(self, own_inputs, tmp_path, capsys, monkeypatch):
        flags = own_inputs["split"]
        infile = tmp_path / "train.jsonl"
        flags["--in"].rename(infile)
        flags.update({"--in": infile, "--outdir": tmp_path})
        self._refused(tmp_path, capsys, monkeypatch, _argv("split", flags),
                      f"{infile}: output is the same file as input {infile}")

    @pytest.mark.parametrize("history", ["{ckpt}", "{ckpt}.manifest.json"], ids=["checkpoint", "manifest"])
    def test_train_history_over_another_output(self, own_inputs, tmp_path, capsys, monkeypatch, history):
        flags = own_inputs["train"]
        flags["--history"] = out = history.format(ckpt=flags["--out-checkpoint"])
        self._refused(tmp_path, capsys, monkeypatch, _argv("train", flags),
                      f"{out}: output is the same file as output {out}")

    def test_eval_report_symlinked_to_its_checkpoint(self, own_inputs, tmp_path, capsys, monkeypatch):
        flags = own_inputs["eval"]
        flags["--report"] = tmp_path / "report.json"
        flags["--report"].symlink_to(flags["--checkpoint"])
        self._refused(tmp_path, capsys, monkeypatch, _argv("eval", flags),
                      f"{flags['--report']}: output is the same file as input {flags['--checkpoint']}")

    def test_predict_output_over_its_input(self, own_inputs, tmp_path, capsys, monkeypatch):
        flags = own_inputs["predict"]
        flags["--out"] = flags["--in"]
        self._refused(tmp_path, capsys, monkeypatch, _argv("predict", flags),
                      f"{flags['--in']}: output is the same file as input {flags['--in']}")

    @pytest.mark.parametrize("command,flag", [("softlabel", "--out"), ("transfer", "--out"), ("eval", "--report"),
                                              ("predict", "--out")])
    def test_missing_output_directory(self, own_inputs, tmp_path, capsys, monkeypatch, command, flag):
        flags = {**own_inputs[command], flag: tmp_path / "missing" / "out"}
        self._refused(tmp_path, capsys, monkeypatch, _argv(command, flags),
                      f"{flags[flag]}: output directory {tmp_path / 'missing'} does not exist")

    @pytest.mark.parametrize("command,flag", [("softlabel", "--out"), ("transfer", "--out"),
                                              ("train", "--out-checkpoint"), ("train", "--history"),
                                              ("eval", "--report"), ("predict", "--out")])
    def test_output_that_is_a_directory(self, own_inputs, tmp_path, capsys, monkeypatch, command, flag):
        monkeypatch.setattr(cli, "load_checkpoint", _must_not_load)
        flags = {**own_inputs[command], flag: tmp_path / "dir"}
        flags[flag].mkdir()
        self._refused(tmp_path, capsys, monkeypatch, _argv(command, flags), f"{flags[flag]}: output is a directory")

    def test_split_outdir_that_is_a_file(self, own_inputs, tmp_path, capsys, monkeypatch):
        flags = {**own_inputs["split"], "--outdir": tmp_path / "file"}
        flags["--outdir"].write_text("", encoding="utf-8")
        self._refused(tmp_path, capsys, monkeypatch, _argv("split", flags),
                      f"{flags['--outdir']}: output directory exists and is not a directory")

    def test_output_in_a_symlink_loop(self, own_inputs, tmp_path, capsys):
        flags = own_inputs["predict"]
        flags["--out"] = tmp_path / "loop"
        flags["--out"].symlink_to(tmp_path / "loop")
        assert main(_argv("predict", flags)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "loop" in err and err.count("\n") == 1

    def test_split_creates_its_outdir(self, own_inputs, tmp_path, capsys):
        flags = {**own_inputs["split"], "--outdir": tmp_path / "a" / "b"}
        assert main(_argv("split", flags)) == 0
        assert sorted(p.name for p in (tmp_path / "a" / "b").iterdir()) == [
            "dev.jsonl", "split.manifest.json", "test.jsonl", "train.jsonl"]


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_arg_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["softlabel", "--dict", "x"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "quadcode" in capsys.readouterr().out
