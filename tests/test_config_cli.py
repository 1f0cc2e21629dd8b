"""Flat config files, override precedence, and the command-line surface.

CLI commands run in-process through main(argv) so exit codes, stdout, and
produced files can all be asserted cheaply.
"""

import hashlib
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from quadcode import cli
from quadcode.cli import main
from quadcode.config import (
    ConfigError,
    Settings,
    parse_config_file,
    parse_overrides,
    resolve_settings,
)
from quadcode.corpus import AlignmentPair, read_jsonl, write_alignments, write_jsonl
from quadcode.fixtures import make_separable_corpus, make_softlabel_fixture
from quadcode.models import CharCnnConfig, ConvSpec, WordCnnConfig
from quadcode.ontology import default_quad_map, dumps_quad_map
from quadcode.train_eval import TrainConfig


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
        path.write_text("# a comment\n\nmodel = char\nseed = 4\n")
        assert parse_config_file(path) == {"model": "char", "seed": "4"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed 1\n")
        with pytest.raises(ConfigError, match=":1"):
            parse_config_file(path)

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed = 1\nlr = 0.5\n")
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
        "condemned -> 111\nattacked -> 190\nsigned -> 051\n"
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
        manifest = json.loads((tmp_path / "labelled.jsonl.manifest.json").read_text())
        assert manifest["command"] == "softlabel"
        assert any(path.endswith("raw.jsonl") for path in manifest["inputs"])
        assert all(len(sha) == 64 for sha in manifest["inputs"].values())

    def test_missing_dictionary_exits_2_with_path(self, tmp_path, capsys):
        infile = tmp_path / "raw.jsonl"
        infile.write_text("")
        code = main(["softlabel", "--dict", str(tmp_path / "nope.txt"), "--in", str(infile), "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_empty_corpus_ok(self, tmp_path, sample_dict, capsys):
        infile = tmp_path / "raw.jsonl"
        out = tmp_path / "out.jsonl"
        infile.write_text("")
        assert main(["softlabel", "--dict", str(sample_dict), "--in", str(infile), "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_malformed_record_exits_2(self, tmp_path, sample_dict, capsys):
        infile = tmp_path / "raw.jsonl"
        bad_cameo = '{"id":"a","lang":"en","text":"hi","cameo":%s}\n'
        for text in ('{"id":"a"}\n', bad_cameo % "5", bad_cameo % '["01"]'):
            infile.write_text(text)
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
        bad.write_text(text)
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
        manifest = json.loads((outdir / "split.manifest.json").read_text())
        assert manifest["seed"] == 3

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

    def test_outputs_exist(self, trained, capsys):
        root, ckpt, _ = trained
        assert ckpt.exists()
        assert (root / "model.ckpt.history.jsonl").exists()
        manifest = json.loads((root / "model.ckpt.manifest.json").read_text())
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
        raw.write_text('{"id":"a","lang":"en","text":"hello there"}\n')
        code = main([
            "train", "--train", str(raw), "--dev", str(raw),
            "--out-checkpoint", str(tmp_path / "m.ckpt"), *TRAIN_OVERRIDES,
        ])
        assert code == 2
        assert "label" in capsys.readouterr().err


class TestEvalCommand:
    def test_report_written(self, trained, tmp_path, capsys):
        _, ckpt, dev_path = trained
        report_path = tmp_path / "report.json"
        code = main(["eval", "--checkpoint", str(ckpt), "--test", str(dev_path), "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
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
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 8
        for obj in lines:
            assert obj["predicted"] in {
                "verbal_cooperation", "material_cooperation", "verbal_conflict", "material_conflict"
            }
            assert len(obj["probs"]) == 4
            assert abs(sum(obj["probs"]) - 1.0) < 1e-9

    def test_checkpoint_probe_guard(self, trained, tmp_path, capsys):
        _, ckpt, dev_path = trained
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(bytes(blob))
        code = main(["predict", "--checkpoint", str(broken), "--in", str(dev_path), "--out", str(tmp_path / "p.jsonl")])
        assert code == 2
        assert "digest" in capsys.readouterr().err.lower()


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
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
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


@pytest.fixture(scope="module")
def valid_inputs(trained, tmp_path_factory, transfer_fixture):
    """A valid value for every file flag of every subcommand."""
    _, ckpt, dev_path = trained
    d = tmp_path_factory.mktemp("inputs")
    fx = transfer_fixture
    write_jsonl(fx.source, d / "src.jsonl")
    write_jsonl(fx.target, d / "tgt.jsonl")
    write_alignments(fx.pairs, d / "align.jsonl")
    write_jsonl(make_softlabel_fixture(8, seed=1).records, d / "raw.jsonl")
    (d / "quad.txt").write_text(dumps_quad_map(default_quad_map()), encoding="utf-8")
    (d / "verbs.txt").write_text("attacked -> 190\n")
    (d / "actors.txt").write_text("police\n")
    (d / "run.conf").write_text("epochs = 1\n")
    (d / "vecs.txt").write_text("")
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
    argv = [command, *(str(x) for pair in flags.items() for x in pair)]
    if command == "train":
        argv += TRAIN_OVERRIDES
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "line 2" in err and "UTF-8" in err


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
