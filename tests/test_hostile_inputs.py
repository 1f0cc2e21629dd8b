"""Hostile input: every reader of a user-supplied file fails only with InputError.

Each reader gets a valid sample, then derandomised hypothesis mutations of it:
truncation, flipped and inserted bytes, and JSON nested too deeply to parse.
Checkpoints, as the writer emits them and as format version 1 wrote them,
are forged with a correct sha256, so the digest check cannot catch them:
header values are replaced by booleans, nulls, negatives, strings and lists,
keys are removed, and the raw header bytes are mutated. Whatever
a reader does with such input, the only exception that may escape is an
InputError, which the CLI turns into exit code 2 with a one-line `error:`.
A few such files also go through the subcommand that reads them, which
must exit 0 or 2 and never raise.
"""

import copy
import hashlib
import json
import math
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadcode.cli import main
from quadcode.config import resolve_settings
from quadcode.corpus import AlignmentPair, SentenceRecord, read_alignments, read_jsonl, write_alignments, write_jsonl
from quadcode.errors import InputError
from quadcode.fixtures import make_separable_corpus
from quadcode.models import (
    CharCnn,
    build_word_cnn,
    load_checkpoint,
    predict,
    save_checkpoint,
    tiny_char_config,
    tiny_word_config,
)
from quadcode.ontology import QuadClass, default_quad_map, dumps_quad_map, load_quad_map, parse_cameo_code
from quadcode.softlabel import load_actor_words, load_dictionary
from quadcode.text_encoding import CharEncoder, Vocabulary, WordEncoder, load_embeddings
from quadcode.train_eval import EpochStats, read_history, write_history

FUZZ = settings(
    derandomize=True, max_examples=80, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def only_input_errors(call) -> None:
    """Run call; an InputError is an accepted outcome, anything else fails the test."""
    try:
        call()
    except InputError:
        pass


@st.composite
def mutated(draw, sample: bytes) -> bytes:
    """sample after one to three truncations, byte flips or byte insertions."""
    data = bytearray(sample)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("truncate", "flip", "insert")))
        at = draw(st.integers(0, len(data)))
        if op == "truncate":
            del data[at:]
        elif op == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        else:
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
    return bytes(data)


@st.composite
def nested(draw, sample: bytes) -> bytes:
    """sample with a line of deeply nested JSON arrays or objects inserted."""
    lines = sample.split(b"\n")
    depth = draw(st.sampled_from((10, 100, 3_000)))
    opener = draw(st.sampled_from((b"[", b'{"a":')))
    closer = b"]" if opener == b"[" else b"}"
    line = opener * depth + b"1" + closer * draw(st.sampled_from((0, depth)))
    lines.insert(draw(st.integers(0, len(lines))), line)
    return b"\n".join(lines)


def hostile(sample: bytes, is_json: bool):
    return st.one_of(mutated(sample), nested(sample)) if is_json else mutated(sample)


# --- text readers -------------------------------------------------------------


def _jsonl_sample(tmp_path) -> bytes:
    path = tmp_path / "sample.jsonl"
    write_jsonl([
        SentenceRecord("a", "en", "Police met with protesters.", QuadClass.VERBAL_COOPERATION, parse_cameo_code("040")),
        SentenceRecord("b", "ar", "قصفت القوات القرية", QuadClass.MATERIAL_CONFLICT, parse_cameo_code("190"), "mt"),
        SentenceRecord("c", "en", "Nothing happened."),
    ], path)
    return path.read_bytes()


def _alignment_sample(tmp_path) -> bytes:
    path = tmp_path / "sample.align.jsonl"
    write_alignments([AlignmentPair("a", "x"), AlignmentPair("b", "y")], path)
    return path.read_bytes()


def _history_sample(tmp_path) -> bytes:
    path = tmp_path / "sample.history.jsonl"
    write_history([EpochStats(1, 1.25, 0.5), EpochStats(2, 0.75, 0.625)], path)
    return path.read_bytes()


QUADMAP_SAMPLE = dumps_quad_map(default_quad_map()).encode()
DICTIONARY_SAMPLE = b"# verbs\nmet with -> 040\nsigned agreement with -> 057\nattacked -> 190  # comment\n"
ACTORS_SAMPLE = b"# actors\npolice\nu.n\n"
CONFIG_SAMPLE = (
    b"epochs = 2\nlr = 0.01\nshuffle = yes\nword.kernels = 3,4,5\nword.dropout = 0.25\n"
    b"char.convs = 8x3p2,8x3\nchar.hidden = 16,16\n"
)
EMBEDDINGS_SAMPLE = "alpha 0.5 -1 2e-3\nbeta 1 2 3\nunknown 4 5 6\n".encode()


def _resolve_and_build(config_path=None, overrides=None) -> None:
    settings = resolve_settings(config_path, overrides)
    settings.train_config()
    settings.word_config(50)
    settings.char_config(40)


def _load_embeddings(path) -> None:
    vocab = Vocabulary(["alpha", "beta"], [2, 1])
    load_embeddings(path, vocab, np.zeros((vocab.size, 3)))


def _read_jsonl(path) -> None:
    read_jsonl(path, default_quad_map())  # the map adds the label/cameo consistency check


# (name, sample, reader, whether the format is JSON)
TEXT_READERS = [
    ("read_jsonl", _jsonl_sample, _read_jsonl, True),
    ("read_alignments", _alignment_sample, read_alignments, True),
    ("read_history", _history_sample, read_history, True),
    ("load_quad_map", lambda _: QUADMAP_SAMPLE, load_quad_map, False),
    ("load_dictionary", lambda _: DICTIONARY_SAMPLE, load_dictionary, False),
    ("load_actor_words", lambda _: ACTORS_SAMPLE, load_actor_words, False),
    ("resolve_settings", lambda _: CONFIG_SAMPLE, _resolve_and_build, False),
    ("load_embeddings", lambda _: EMBEDDINGS_SAMPLE, _load_embeddings, False),
]


@pytest.mark.parametrize("make_sample, read, is_json", [r[1:] for r in TEXT_READERS], ids=[r[0] for r in TEXT_READERS])
def test_mutated_file_raises_only_input_error(tmp_path, make_sample, read, is_json):
    sample = make_sample(tmp_path)
    path = tmp_path / "input"
    path.write_bytes(sample)
    read(path)  # the unmutated sample is valid

    @FUZZ
    @given(hostile(sample, is_json))
    def check(data):
        path.write_bytes(data)
        only_input_errors(lambda: read(path))

    check()


SET_SAMPLE = ("seed=3", "batch_size=16", "lr=0.001", "word.kernels=3,4,5", "char.convs=8x3p2,8x3", "char.one_hot=no")


@FUZZ
@given(st.integers(0, len(SET_SAMPLE) - 1), mutated("\n".join(SET_SAMPLE).encode()))
def test_mutated_set_overrides_raise_only_input_error(keep, data):
    # argv reaches Python as str, undecodable bytes as surrogate escapes
    overrides = [*SET_SAMPLE[:keep], *data.decode("utf-8", "surrogateescape").split("\n")]
    only_input_errors(lambda: _resolve_and_build(overrides=overrides))


# --- forged checkpoints ---------------------------------------------------------


def _checkpoint(tmp_path, kind: str) -> bytes:
    if kind == "word":
        config = replace(tiny_word_config(), vocab_size=8)
        model = build_word_cnn(config, seed=0)
        vocab = Vocabulary(["police", "met", "with", "w1", "w2", "w3"], [6, 5, 4, 3, 2, 1])
        encoder = WordEncoder(vocab, config.length)
    else:
        config = tiny_char_config()
        model = CharCnn(config, seed=0)
        encoder = CharEncoder(Vocabulary(list("abcdef"), [6, 5, 4, 3, 2, 1]), config.length)
    path = tmp_path / f"{kind}.ckpt"
    save_checkpoint(model, path, encoder=encoder, quad_map_digest="0" * 64, metadata={"seed": 0})
    return path.read_bytes()


# Version-1 checkpoints of a tiny word and char model
DATA = Path(__file__).parent / "data"


def _blob(tmp_path, name: str) -> bytes:
    return (DATA / f"{name}.ckpt").read_bytes() if name.startswith("v1_") else _checkpoint(tmp_path, name)


def sealed(blob: bytes, header: bytes) -> bytes:
    """blob with its header replaced by `header`, length and sha256 made consistent."""
    old_len = struct.unpack_from("<Q", blob, 8)[0]
    body = blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + old_len : -32]
    return body + hashlib.sha256(body).digest()


def _header_bytes(blob: bytes) -> bytes:
    return blob[16 : 16 + struct.unpack_from("<Q", blob, 8)[0]]


def _paths(node, prefix=()):
    """Every key path into a parsed header, containers included."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


FORGED_VALUES = (True, False, None, -1, 0, 1.5, 2**70, "x", "", [], [1], {}, ["a", None])
REMOVED = object()


def forged(header: dict):
    """Strategy: header copies with one to three values replaced or keys removed."""
    paths = sorted(_paths(header), key=repr)
    edit = st.tuples(st.sampled_from(paths), st.sampled_from((*FORGED_VALUES, REMOVED)))

    def apply(edits) -> bytes:
        out = json.loads(json.dumps(header))
        for path, value in edits:
            node = out
            try:
                for key in path[:-1]:
                    node = node[key]
                if value is REMOVED:
                    del node[path[-1]]
                else:
                    node[path[-1]] = copy.deepcopy(value)  # a shared list or dict could become a cycle
            except (KeyError, IndexError, TypeError):
                continue  # an earlier edit removed or replaced this path
        return json.dumps(out, separators=(",", ":")).encode()

    return st.lists(edit, min_size=1, max_size=3).map(apply)


def _load_and_predict(path) -> None:
    loaded = load_checkpoint(path)
    if loaded.encoder is not None:  # without one, predict stops with an InputError
        texts = ["Police met with protesters.", "", "w1 w2 w3 abc"]
        predict(loaded.model, np.stack([loaded.encoder.encode(text) for text in texts]))


@pytest.mark.parametrize("kind", ["word", "char", "v1_word", "v1_char"])
def test_forged_checkpoint_header_raises_only_input_error(tmp_path, kind):
    blob = _blob(tmp_path, kind)
    raw = _header_bytes(blob)
    path = tmp_path / "forged.ckpt"

    @FUZZ
    @given(st.one_of(forged(json.loads(raw)), hostile(raw, is_json=True)))
    def check(raw):
        path.write_bytes(sealed(blob, raw))
        only_input_errors(lambda: _load_and_predict(path))

    check()


@pytest.mark.parametrize("kind, pool_path", [("word", ["pool"]), ("char", ["convs", 0, 2])],
                         ids=["word_pool", "char_conv_pool"])
def test_predict_on_boolean_pool_exits_2(tmp_path, capsys, kind, pool_path):
    blob = _checkpoint(tmp_path, kind)
    header = json.loads(_header_bytes(blob))
    node = header["config"]
    for key in pool_path[:-1]:
        node = node[key]
    node[pool_path[-1]] = True
    path = tmp_path / "forged.ckpt"
    path.write_bytes(sealed(blob, json.dumps(header, separators=(",", ":")).encode()))
    infile = tmp_path / "in.jsonl"
    write_jsonl([SentenceRecord("a", "en", "Police met with protesters.")], infile)
    code = main(["predict", "--checkpoint", str(path), "--in", str(infile), "--out", str(tmp_path / "out.jsonl")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1
    assert "pool must be an integer >= 1, got True" in err


# json.loads raises a plain ValueError, not a JSONDecodeError, for an integer
# literal longer than Python's int-to-str digit limit (4300 digits by default).
HUGE_INT = "1" * 5_000


def test_overlong_integer_in_jsonl_exits_2(tmp_path, capsys):
    infile = tmp_path / "in.jsonl"
    infile.write_text('{"id":"a","lang":"en","text":"t"}\n{"id":"b","lang":"en","text":"t","source":' + HUGE_INT + "}\n", encoding="utf-8")
    code = main(["split", "--in", str(infile), "--outdir", str(tmp_path / "split")])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err.startswith(f"error: {infile}: line 2: ")


def test_overlong_integer_in_checkpoint_header_exits_2(tmp_path, capsys):
    blob = _checkpoint(tmp_path, "word")
    raw = _header_bytes(blob)
    path = tmp_path / "forged.ckpt"
    path.write_bytes(sealed(blob, raw[:-1] + b',"x":' + HUGE_INT.encode() + b"}"))
    infile = tmp_path / "in.jsonl"
    write_jsonl([SentenceRecord("a", "en", "Police met with protesters.")], infile)
    code = main(["predict", "--checkpoint", str(path), "--in", str(infile), "--out", str(tmp_path / "out.jsonl")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: {path}: unreadable header: ") and err.count("\n") == 1


# --- lone surrogate escapes ---------------------------------------------------
# json.loads accepts "\udfff", but no UTF-8 file can hold the string it makes.
# Such a line is rejected as it is read, before any output file is opened.

RECORD = {"id": "b", "lang": "en", "text": "troops attacked the town", "label": "material_conflict",
          "cameo": "190", "source": "wire"}


@pytest.mark.parametrize("key", RECORD)
def test_lone_surrogate_in_a_record_field_is_a_line_error(tmp_path, key):
    path = tmp_path / "in.jsonl"
    bad = json.dumps({**RECORD, key: RECORD[key] + "\udfff"})  # ensure_ascii writes the escape
    path.write_text(json.dumps(RECORD) + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: line 2: .*lone surrogate"):
        read_jsonl(path)


@pytest.mark.parametrize("key", ["src_id", "tgt_id"])
def test_lone_surrogate_in_an_alignment_id_is_a_line_error(tmp_path, key):
    path = tmp_path / "align.jsonl"
    path.write_text(json.dumps({"src_id": "a", "tgt_id": "t", key: "t\ud800"}) + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: line 1: .*lone surrogate"):
        read_alignments(path)


@pytest.mark.parametrize("command, bad", [
    ("softlabel", "news"), ("transfer", "tgt"), ("transfer", "align"), ("predict", "news"),
])
def test_lone_surrogate_through_the_cli_exits_2_before_writing(tmp_path, capsys, command, bad):
    files = {
        "news": '{"id":"b","lang":"en","text":"troops attacked the town \\udfff"}',
        "src": '{"id":"a","lang":"en","text":"police met","label":"verbal_cooperation"}',
        "tgt": '{"id":"t\\ud800","lang":"ar","text":"التقى"}' if bad == "tgt" else '{"id":"t","lang":"ar","text":"التقى"}',
        "align": '{"src_id":"a","tgt_id":"t\\ud800"}',
    }
    paths = {name: tmp_path / f"{name}.jsonl" for name in files}
    for name, line in files.items():
        paths[name].write_text(line + "\n", encoding="utf-8")
    (tmp_path / "verbs.txt").write_bytes(DICTIONARY_SAMPLE)
    (tmp_path / "model.ckpt").write_bytes(_checkpoint(tmp_path, "word"))
    out = tmp_path / "out.jsonl"
    argv = {
        "softlabel": ["--dict", str(tmp_path / "verbs.txt"), "--in", str(paths["news"])],
        "transfer": ["--src", str(paths["src"]), "--tgt", str(paths["tgt"]), "--align", str(paths["align"])],
        "predict": ["--checkpoint", str(tmp_path / "model.ckpt"), "--in", str(paths["news"])],
    }[command]
    code = main([command, *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert re.fullmatch(rf"error: {re.escape(str(paths[bad]))}: line 1: [^\n]*lone surrogate[^\n]*\n", err)
    assert not out.exists()


def _cli_exits_2(tmp_path, capsys, path) -> list[str]:
    """`predict` and `eval` on the checkpoint at path; each must exit 2 with one `error:` line."""
    infile = tmp_path / "in.jsonl"
    write_jsonl([SentenceRecord("a", "en", "Police met with protesters.", QuadClass.VERBAL_COOPERATION)], infile)
    errors = []
    for argv in (["predict", "--in", str(infile), "--out", str(tmp_path / "out.jsonl")],
                 ["eval", "--test", str(infile), "--report", str(tmp_path / "report.json")]):
        code = main([argv[0], "--checkpoint", str(path), *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        errors.append(err)
    return errors


def _at(items: list, i: int, value) -> list:
    return [*items[:i], value, *items[i + 1 :]]


# forged kinds and configs, each with the message that follows "<path>: "
KIND_CONFIG_FORGERIES = {
    "kind_unknown": (lambda h: {**h, "kind": "sentence"}, "unknown model kind 'sentence'"),
    "kind_list": (lambda h: {**h, "kind": ["word"]}, "unknown model kind ['word']"),
    "config_null": (lambda h: {**h, "config": None}, "bad word config in checkpoint header: want exactly the keys"),
    "config_length_negative": (lambda h: {**h, "config": {**h["config"], "length": -1}},
                               "bad word config in checkpoint header: "),
}


@pytest.mark.parametrize("forge, message", KIND_CONFIG_FORGERIES.values(), ids=KIND_CONFIG_FORGERIES.keys())
def test_forged_kind_or_config_names_the_checkpoint(tmp_path, capsys, forge, message):
    blob = _checkpoint(tmp_path, "word")
    path = tmp_path / "forged.ckpt"
    path.write_bytes(sealed(blob, json.dumps(forge(json.loads(_header_bytes(blob)))).encode()))
    for err in _cli_exits_2(tmp_path, capsys, path):
        assert err.startswith(f"error: {path}: {message}")


# forgeries of a version-2 encoder, {"tokens": [...], "counts": [...]}
V2_FORGERIES = {
    "encoder_list": lambda e: [e["tokens"]],
    "encoder_kind_key": lambda e: {**e, "kind": "word"},
    "counts_missing": lambda e: {"tokens": e["tokens"]},
    "counts_short": lambda e: {**e, "counts": e["counts"][:-1]},
    "tokens_str": lambda e: {**e, "tokens": "police"},
    "token_int": lambda e: {**e, "tokens": _at(e["tokens"], 2, 7)},
    "count_bool": lambda e: {**e, "counts": _at(e["counts"], 0, True)},
    "count_negative": lambda e: {**e, "counts": _at(e["counts"], 1, -5)},
    "count_float": lambda e: {**e, "counts": _at(e["counts"], 1, 5.0)},
    "token_duplicate": lambda e: {**e, "tokens": _at(e["tokens"], 1, e["tokens"][0])},
    "vocab_one_short": lambda e: {"tokens": e["tokens"][:-1], "counts": e["counts"][:-1]},
    "vocab_one_long": lambda e: {"tokens": [*e["tokens"], "extra"], "counts": [*e["counts"], 1]},
}


@pytest.mark.parametrize("forge", V2_FORGERIES.values(), ids=V2_FORGERIES.keys())
def test_forged_version_2_encoder_exits_2(tmp_path, capsys, forge):
    blob = _checkpoint(tmp_path, "word")
    assert struct.unpack_from("<I", blob, 4)[0] == 2
    path = tmp_path / "forged.ckpt"
    header = json.loads(_header_bytes(blob))
    path.write_bytes(sealed(blob, json.dumps({**header, "encoder": forge(header["encoder"])}).encode()))
    _cli_exits_2(tmp_path, capsys, path)


@pytest.mark.parametrize("version", [0, 3])
def test_unreadable_format_version_exits_2(tmp_path, capsys, version):
    blob = bytearray(_checkpoint(tmp_path, "word"))
    struct.pack_into("<I", blob, 4, version)
    path = tmp_path / "forged.ckpt"
    path.write_bytes(sealed(bytes(blob), _header_bytes(blob)))
    for err in _cli_exits_2(tmp_path, capsys, path):
        assert err == f"error: {path}: checkpoint format version {version}, this build reads versions 1 and 2\n"



@pytest.mark.parametrize("kind, length, message", [
    ("word", 4, "bad word config in checkpoint header: branch_k4.pool: output length 0 < 1 for input length 4"),
    ("char", 6, "bad char config in checkpoint header: conv1: output length 0 < 1 for input length 6"),
], ids=["word", "char"])
def test_config_too_short_to_build_names_the_checkpoint(tmp_path, capsys, kind, length, message):
    blob = _checkpoint(tmp_path, kind)
    header = json.loads(_header_bytes(blob))
    header["config"]["length"] = length
    path = tmp_path / "forged.ckpt"
    path.write_bytes(sealed(blob, json.dumps(header).encode()))
    for err in _cli_exits_2(tmp_path, capsys, path):
        assert err == f"error: {path}: {message}\n"


# header config fields of the wrong type, each with the message after "bad <kind> config in checkpoint header: "
TYPED_FIELD_FORGERIES = {
    "word_classes_float": ("word", "classes", 4.0, "classifier is four-way, got classes=4.0"),
    "char_classes_float": ("char", "classes", 4.0, "classifier is four-way, got classes=4.0"),
    "word_embeddings_trainable_str": ("word", "embeddings_trainable", "no",
                                      "embeddings_trainable must be true or false, got 'no'"),
    "char_one_hot_str": ("char", "one_hot", "yes", "one_hot must be true or false, got 'yes'"),
    "word_dropout_bool": ("word", "dropout", False, "dropout must be a number in [0, 1), got False"),
    "char_dropout_bool": ("char", "dropout", False, "dropout must be a number in [0, 1), got False"),
}


@pytest.mark.parametrize("kind, key, value, message", TYPED_FIELD_FORGERIES.values(), ids=TYPED_FIELD_FORGERIES.keys())
def test_config_field_of_the_wrong_type_names_the_checkpoint(tmp_path, capsys, kind, key, value, message):
    blob = _checkpoint(tmp_path, kind)
    header = json.loads(_header_bytes(blob))
    header["config"][key] = value
    path = tmp_path / "forged.ckpt"
    path.write_bytes(sealed(blob, json.dumps(header).encode()))
    for err in _cli_exits_2(tmp_path, capsys, path):
        assert err == f"error: {path}: bad {kind} config in checkpoint header: {message}\n"


@pytest.mark.parametrize("kind", ["word", "char"])
def test_non_finite_weight_exits_2(tmp_path, capsys, kind):
    blob = bytearray(_checkpoint(tmp_path, kind))
    header = _header_bytes(blob)
    params = json.loads(header)["params"]
    assert params[0]["name"] == "embedding" and params[1]["name"].endswith(".w")  # the first conv weight
    struct.pack_into("<d", blob, 16 + len(header) + 8 * math.prod(params[0]["shape"]), math.nan)
    path = tmp_path / "forged.ckpt"
    path.write_bytes(sealed(bytes(blob), header))
    for err in _cli_exits_2(tmp_path, capsys, path):
        assert err == f"error: {path}: restored model computes non-finite values on its probe inputs\n"


def _probe_block(blob: bytes, shape: tuple[int, int]) -> tuple[int, np.ndarray]:
    """(byte offset, the probe inputs) of a checkpoint: the probe block follows the parameters."""
    header = json.loads(_header_bytes(blob))
    offset = 16 + len(_header_bytes(blob)) + 8 * sum(math.prod(p["shape"]) for p in header["params"])
    return offset, np.frombuffer(blob, dtype="<i8", count=math.prod(shape), offset=offset).reshape(shape)


def test_non_finite_unprobed_embedding_row_exits_2(tmp_path, capsys):
    # a forward reads only the rows its indices name: put the NaN on a row no
    # probe looks up, and the CLI's one record on that row
    config = replace(tiny_word_config(), vocab_size=200)
    tokens = [f"w{i}" for i in range(2, config.vocab_size)]
    path = tmp_path / "forged.ckpt"
    save_checkpoint(build_word_cnn(config, seed=0), path,
                    encoder=WordEncoder(Vocabulary(tokens, [1] * len(tokens)), config.length))
    blob = bytearray(path.read_bytes())
    header = json.loads(_header_bytes(blob))
    _, probes = _probe_block(bytes(blob), (4, config.length))
    row = min(set(range(2, config.vocab_size)) - set(probes.ravel().tolist()))
    header["encoder"]["tokens"][row - 2] = "police"
    struct.pack_into("<d", blob, 16 + len(_header_bytes(blob)) + 8 * row * config.embed_dim, math.nan)
    path.write_bytes(sealed(bytes(blob), json.dumps(header).encode()))
    for err in _cli_exits_2(tmp_path, capsys, path):
        assert err == f"error: {path}: non-finite values in the embedding table\n"


@pytest.mark.parametrize("index", [99, 8, -1])
def test_probe_index_out_of_range_exits_2(tmp_path, capsys, index):
    blob = bytearray(_checkpoint(tmp_path, "char"))
    offset, _ = _probe_block(bytes(blob), (4, tiny_char_config().length))
    struct.pack_into("<q", blob, offset, index)
    path = tmp_path / "forged.ckpt"
    path.write_bytes(sealed(bytes(blob), _header_bytes(blob)))
    for err in _cli_exits_2(tmp_path, capsys, path):
        assert err == f"error: {path}: probe inputs out of range for an input size of 8\n"


# --- the same files through the CLI -----------------------------------------------

# Tiny word training: --model and --set beat whatever a mutated config file holds,
# so a mutation cannot scale the run up.
TINY_TRAIN = ["--model", "word", "--seed", "0", "--set", "epochs=1", "--set", "batch_size=8", "--set", "patience=0",
              "--set", "word.embed_dim=3", "--set", "word.length=8", "--set", "word.frames=2", "--set", "word.hidden=4"]


def _cli_argv(tmp_path) -> dict[str, list]:
    """A valid argv for each subcommand; every input flag names a file under tmp_path."""
    files = {
        "verbs.txt": DICTIONARY_SAMPLE, "quad.txt": QUADMAP_SAMPLE, "actors.txt": ACTORS_SAMPLE,
        "records.jsonl": _jsonl_sample(tmp_path), "align.jsonl": _alignment_sample(tmp_path),
        "run.conf": CONFIG_SAMPLE, "vecs.txt": b"sonar 0.5 -1 2e-3\ntenor 1 2 3\nunknown 4 5 6\n",
        "model.ckpt": _checkpoint(tmp_path, "word"),
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    write_jsonl([SentenceRecord("x", "ar", "التقى الوفد"), SentenceRecord("y", "ar", "قصفت القوات")], tmp_path / "tgt.jsonl")
    for name in ("labelled.jsonl", "dev.jsonl"):
        write_jsonl(make_separable_corpus(12, seed=0), tmp_path / name)
    f = {name: str(tmp_path / name) for name in (*files, "tgt.jsonl", "labelled.jsonl", "dev.jsonl")}
    out = str(tmp_path / "out")
    return {
        "softlabel": ["--dict", f["verbs.txt"], "--quadmap", f["quad.txt"], "--actors", f["actors.txt"],
                      "--in", f["records.jsonl"], "--out", out],
        "transfer": ["--src", f["records.jsonl"], "--tgt", f["tgt.jsonl"], "--align", f["align.jsonl"], "--out", out],
        "split": ["--in", f["labelled.jsonl"], "--outdir", out],
        "train": ["--train", f["labelled.jsonl"], "--dev", f["dev.jsonl"], "--config", f["run.conf"],
                  "--embeddings", f["vecs.txt"], "--out-checkpoint", out, *TINY_TRAIN],
        "eval": ["--checkpoint", f["model.ckpt"], "--test", f["labelled.jsonl"], "--report", out],
        "predict": ["--checkpoint", f["model.ckpt"], "--in", f["labelled.jsonl"], "--out", out],
    }


CLI_INPUTS = [
    ("softlabel", "--dict", False), ("softlabel", "--actors", False), ("softlabel", "--quadmap", False),
    ("softlabel", "--in", True),
    ("transfer", "--src", True), ("transfer", "--tgt", True), ("transfer", "--align", True),
    ("split", "--in", True),
    ("train", "--train", True), ("train", "--dev", True), ("train", "--config", False), ("train", "--embeddings", False),
    ("eval", "--checkpoint", None), ("eval", "--test", True),
    ("predict", "--checkpoint", None), ("predict", "--in", True),
]


@pytest.mark.parametrize("command, flag, is_json", CLI_INPUTS, ids=[f"{c}{f}" for c, f, _ in CLI_INPUTS])
def test_mutated_file_through_the_cli_exits_0_or_2(tmp_path, capsys, command, flag, is_json):
    argv = [command, *_cli_argv(tmp_path)[command]]
    path = Path(argv[argv.index(flag) + 1])
    sample = path.read_bytes()
    assert main(argv) == 0  # the unmutated inputs are valid
    capsys.readouterr()
    if is_json is None:  # a checkpoint: raw byte damage, or a forged header under a correct digest
        raw = _header_bytes(sample)
        strategy = st.one_of(mutated(sample), forged(json.loads(raw)).map(lambda header: sealed(sample, header)))
    else:
        strategy = hostile(sample, is_json)

    @settings(FUZZ, max_examples=10)
    @given(strategy)
    def check(data):
        path.write_bytes(data)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert code == 0 or (err.startswith("error:") and err.count("\n") == 1)

    check()
