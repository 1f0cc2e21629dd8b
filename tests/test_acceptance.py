"""Acceptance gate: eight go/no-go checks over the whole package.

Each test prints one `criterion N PASS/FAIL` line (visible under -s; the
pytest verdict per test carries the same information). Oracles here are
restated inline so this module stays independent of the unit-test files.
"""

import dataclasses
import functools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from quadcode import cli
from quadcode.config import Settings
from quadcode.corpus import (
    AlignmentPair,
    SentenceRecord,
    read_jsonl,
    transfer_labels,
    write_jsonl,
)
from quadcode.errors import InputError
from quadcode.experiments import encode_labelled, fit
from quadcode.fixtures import make_separable_corpus
from quadcode.models import (
    CharCnn,
    CharCnnConfig,
    WordCnnConfig,
    build_word_cnn,
    make_gradcheck_examples,
    shape_trace,
    tiny_char_config,
    tiny_word_config,
)
from quadcode.ontology import (
    CLASSES,
    OntologyError,
    default_quad_map,
    dumps_quad_map,
    load_quad_map,
    parse_cameo_code,
    quad_of,
)
from quadcode.softlabel import PatternDictionary, VerbPattern, match_patterns
from quadcode.tensor_nn import layers, ops
from quadcode.tensor_nn.gradcheck import finite_difference_check
from quadcode.text_encoding import EncodedExample
from quadcode.train_eval import Metrics, TrainConfig, evaluate, train


def criterion(number, summary):
    """Print the one-line verdict this suite promises per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number} FAIL: {summary}")
                raise
            print(f"criterion {number} PASS: {summary}")

        return run

    return wrap


@criterion(1, "gradcheck < 1e-4 on both tiny models, corrupted backward > 1e-2, under 60 s")
def test_c1_gradient_correctness():
    started = time.monotonic()
    word = build_word_cnn(tiny_word_config(), seed=0)  # vocab 50, length 16
    char = CharCnn(tiny_char_config(), seed=0)  # alphabet 8, length 32
    for model in (word, char):
        examples = make_gradcheck_examples(model, count=2, seed=0)
        report = finite_difference_check(model, examples, seed=0)
        assert report.max_rel_error < 1e-4, f"{model.kind}: {report.max_rel_error}"

    # negative control: a 10% error in the conv weight gradient must be loud
    true_backward = ops.conv1d_backward

    def corrupted(x, w, grad_y, grad_w, grad_b):
        grad_x = true_backward(x, w, grad_y, grad_w, grad_b)
        grad_w *= 1.1
        return grad_x

    layers.ops.conv1d_backward = corrupted
    try:
        examples = make_gradcheck_examples(word, count=2, seed=0)
        report = finite_difference_check(word, examples, seed=0)
    finally:
        layers.ops.conv1d_backward = true_backward
    assert report.max_rel_error > 1e-2, f"negative control too quiet: {report.max_rel_error}"
    assert time.monotonic() - started < 60.0


@criterion(2, "layer traces equal the length-law derivation; flatten 13824, concat 768")
def test_c2_shape_conformance():
    # expected values computed right here from L-K+1 and floor(L/p)
    def conv_len(length, kernel):
        return length - kernel + 1

    word_expected = [("embedding", (128, 64))]
    for k in (3, 4, 5):
        after_conv = conv_len(64, k)
        after_pool = after_conv // 2
        word_expected += [
            (f"branch_k{k}.conv", (256, after_conv)),
            (f"branch_k{k}.relu", (256, after_conv)),
            (f"branch_k{k}.pool", (256, after_pool)),
            (f"branch_k{k}.global_pool", (256, 1)),
            (f"branch_k{k}.flatten", (256,)),
        ]
    word_expected += [
        ("concat", (256 * 3,)),
        ("dropout1", (768,)),
        ("fc1", (150,)),
        ("fc1.relu", (150,)),
        ("dropout2", (150,)),
        ("fc2", (4,)),
    ]
    word = build_word_cnn(WordCnnConfig(vocab_size=5000), seed=0)
    assert shape_trace(word) == word_expected
    assert dict(word_expected)["concat"] == (768,)

    length = 512
    char_expected = [("embedding", (32, 512))]
    for i, (kernel, pool) in enumerate([(7, 3), (3, None), (3, None), (3, 3)], start=1):
        length = conv_len(length, kernel)
        char_expected += [(f"conv{i}", (256, length)), (f"conv{i}.relu", (256, length))]
        if pool:
            length //= pool
            char_expected.append((f"conv{i}.pool", (256, length)))
    assert length == 54
    char_expected += [
        ("flatten", (256 * length,)),
        ("dropout1", (13824,)),
        ("fc1", (1024,)),
        ("fc1.relu", (1024,)),
        ("dropout2", (1024,)),
        ("fc2", (1024,)),
        ("fc2.relu", (1024,)),
        ("fc3", (4,)),
    ]
    char = CharCnn(CharCnnConfig(alphabet_size=70), seed=0)
    assert shape_trace(char) == char_expected
    assert dict(char_expected)["flatten"] == (13_824,)


def _fixture_settings(model):
    s = Settings()
    overrides = {
        "model": model,
        "epochs": "20",
        "patience": "3",
        "word.embed_dim": "32",
        "word.length": "16",
        "word.frames": "16",
        "word.hidden": "32",
        "word.dropout": "0.3",
        "char.embed_dim": "16",
        "char.length": "64",
        "char.convs": "32x7p2,32x3,32x3,32x3p2",
        "char.hidden": "64,64",
        "char.dropout": "0.3",
    }
    s.apply(overrides, source="acceptance")
    return s


@criterion(3, "word and char models >= 0.95 on the 2000/400 separable fixture; baseline 0.25")
def test_c3_fixture_learnability():
    started = time.monotonic()
    for model_kind, script, corpus_seed in (("word", "latin", 11), ("char", "arabic", 12)):
        records = make_separable_corpus(2600, seed=corpus_seed, script=script)
        train_recs, dev_recs, test_recs = records[:2000], records[2000:2200], records[2200:]
        result = fit(train_recs, dev_recs, _fixture_settings(model_kind))
        assert len(result.history) <= 20
        test_set = encode_labelled(test_recs, result.encoder)
        accuracy = evaluate(result.model, test_set).accuracy
        assert accuracy >= 0.95, f"{model_kind}: {accuracy}"

    # constant predictor on the balanced 400-sentence test set
    confusion = np.zeros((4, 4), dtype=np.int64)
    for record in records[2200:]:
        confusion[record.label.index, 0] += 1
    baseline = Metrics(confusion).accuracy
    assert abs(baseline - 0.25) <= 0.02
    assert time.monotonic() - started < 600.0


@criterion(4, "compiled matcher equals the naive leftmost-longest scan on 1000 random trials")
def test_c4_matcher_oracle_equivalence():
    def naive_scan(patterns, tokens):
        spans, i = [], 0
        while i < len(tokens):
            best = None
            for p in patterns:
                width = len(p.tokens)
                if i + width <= len(tokens) and tuple(tokens[i : i + width]) == p.tokens:
                    if best is None or width > len(best.tokens):
                        best = p
            if best is None:
                i += 1
            else:
                spans.append((i, len(best.tokens), best.code.digits))
                i += len(best.tokens)
        return spans

    pool = ["a", "b", "c", "d", "e", "f"]
    codes = ["04", "057", "11", "14", "190", "20"]
    gen = np.random.default_rng(2024)
    for _ in range(1000):
        seqs = set()
        for _ in range(int(gen.integers(1, 9))):
            width = int(gen.integers(1, 4))
            seqs.add(tuple(pool[j] for j in gen.integers(0, len(pool), size=width)))
        patterns = [
            VerbPattern(seq, parse_cameo_code(codes[int(gen.integers(0, len(codes)))]))
            for seq in seqs
        ]
        sentence = [pool[j] for j in gen.integers(0, len(pool), size=int(gen.integers(0, 13)))]
        got = match_patterns(PatternDictionary(patterns), sentence)
        assert [(s.start, s.length, s.code.digits) for s in got] == naive_scan(patterns, sentence)


@criterion(5, "label transfer: fan-out, first-pair conflicts, conservation, exact")
def test_c5_label_transfer_semantics():
    gen = np.random.default_rng(77)
    codes = ["040", "070", "111", "190"]
    for _ in range(300):
        n_src, n_tgt = int(gen.integers(1, 7)), int(gen.integers(1, 7))
        src = [
            SentenceRecord(
                id=f"s{i}", lang="en", text="t",
                label=CLASSES[int(gen.integers(0, 4))],
                cameo=parse_cameo_code(codes[int(gen.integers(0, 4))]),
            )
            for i in range(n_src)
        ]
        tgt = [SentenceRecord(id=f"t{i}", lang="ar", text="n") for i in range(n_tgt)]
        pairs = [
            AlignmentPair(f"s{int(gen.integers(0, n_src))}", f"t{int(gen.integers(0, n_tgt))}")
            for _ in range(int(gen.integers(0, 13)))
        ]
        out, report = transfer_labels(src, tgt, pairs)

        # inline restatement of the rule
        first, conflicts = {}, 0
        for pair in pairs:
            if pair.tgt_id in first:
                conflicts += 1
            else:
                donor = next(r for r in src if r.id == pair.src_id)
                first[pair.tgt_id] = (donor.label, donor.cameo)
        expected = [(r.id, *first[r.id]) for r in tgt if r.id in first]

        assert [(r.id, r.label, r.cameo) for r in out] == expected
        assert report.conflicts == conflicts
        assert report.pairs == len(pairs)
        # conservation: every target is either labelled or dropped
        assert report.labelled_targets + report.dropped_targets == n_tgt
        assert report.labelled_targets == len(out)
        # fan-out: any source aligned to k fresh targets labels all k
        aligned_targets = {p.tgt_id for p in pairs}
        assert {r.id for r in out} == aligned_targets


@criterion(6, "same seed gives bit-identical checkpoints and histories, with 1 or 2 BLAS threads")
def test_c6_determinism():
    overrides = [
        "--set", "word.embed_dim=8", "--set", "word.length=10", "--set", "word.frames=4",
        "--set", "word.hidden=8", "--set", "epochs=2", "--set", "batch_size=16",
    ]
    src_root = str(Path(cli.__file__).resolve().parents[1])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        records = make_separable_corpus(48, seed=21)
        train_path, dev_path = tmp / "train.jsonl", tmp / "dev.jsonl"
        write_jsonl(records[:40], train_path)
        write_jsonl(records[40:], dev_path)

        def run(tag, blas_threads=None):
            ckpt = tmp / f"{tag}.ckpt"
            argv = [
                "train", "--model", "word", "--train", str(train_path), "--dev", str(dev_path),
                "--seed", "5", "--out-checkpoint", str(ckpt), *overrides,
            ]
            if blas_threads is None:
                assert cli.main(argv) == 0
            else:
                # BLAS reads its thread count at import, hence a fresh interpreter
                path = os.pathsep.join(p for p in (src_root, os.environ.get("PYTHONPATH")) if p)
                env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads), "PYTHONPATH": path}
                done = subprocess.run([sys.executable, "-m", "quadcode.cli", *argv], env=env, capture_output=True)
                assert done.returncode == 0, done.stderr.decode()
            return ckpt.read_bytes(), (tmp / f"{tag}.ckpt.history.jsonl").read_bytes()

        first = run("a")
        second = run("b")
        one_thread = run("c", blas_threads=1)
        two_threads = run("d", blas_threads=2)
    assert first[0] == second[0], "checkpoints differ between identical runs"
    assert first[1] == second[1], "histories differ between identical runs"
    assert one_thread == two_threads, "outputs differ between 1 and 2 BLAS threads"
    assert first == one_thread, "a fresh process gives different outputs"


@criterion(7, "quad map total over 01-20, files round-trip byte-identically, parse errors fire")
def test_c7_ontology_totality_and_round_trip():
    quad_map = default_quad_map()
    seen = []
    for value in range(1, 21):
        top = f"{value:02d}"
        quad = quad_of(parse_cameo_code(top + "0"), quad_map)
        assert quad in CLASSES
        seen.append(top)
    assert len(seen) == 20  # every top level mapped exactly once by totality

    with tempfile.TemporaryDirectory() as tmp:
        map_path = Path(tmp) / "map.txt"
        map_path.write_text(dumps_quad_map(quad_map), encoding="utf-8")
        reloaded = load_quad_map(map_path)
        assert dumps_quad_map(reloaded) == dumps_quad_map(quad_map)
        again = Path(tmp) / "map2.txt"
        again.write_text(dumps_quad_map(reloaded), encoding="utf-8")
        assert map_path.read_bytes() == again.read_bytes()

        corpus_path = Path(tmp) / "corpus.jsonl"
        records = [
            SentenceRecord(id="a", lang="ar", text="نص عربي", label=CLASSES[3], cameo=parse_cameo_code("190")),
            SentenceRecord(id="b", lang="en", text="plain text", label=CLASSES[0]),
        ]
        write_jsonl(records, corpus_path)
        second = Path(tmp) / "corpus2.jsonl"
        write_jsonl(read_jsonl(corpus_path), second)
        assert corpus_path.read_bytes() == second.read_bytes()

    with pytest.raises(OntologyError, match=r"^CAMEO code must have 2-4 digits: '1'$"):
        parse_cameo_code("1")
    with pytest.raises(OntologyError, match=r"^CAMEO code must have 2-4 digits: '14225'$"):
        parse_cameo_code("14225")
    with pytest.raises(OntologyError, match=r"^CAMEO code must be all digits: '1a'$"):
        parse_cameo_code("1a")
    with pytest.raises(OntologyError, match=r"^top-level category must be 01-20: '21'$"):
        parse_cameo_code("21")
    with pytest.raises(OntologyError, match=r"^top-level category must be 01-20: '00'$"):
        parse_cameo_code("00")


@criterion(8, "softmax sums/shift invariance, PAD row pinned over 1000 steps, dropout keep rate")
def test_c8_numeric_invariants():
    gen = np.random.default_rng(31337)
    for _ in range(200):
        probs = ops.softmax(gen.normal(scale=20.0, size=4))
        assert abs(probs.sum() - 1.0) <= 1e-9
    for _ in range(50):
        logits = gen.normal(scale=3.0, size=4)
        shifted = ops.softmax(logits + 123.456)
        assert np.abs(ops.softmax(logits) - shifted).max() <= 1e-12

    # 1000 optimizer steps on inputs that include PAD positions
    config = dataclasses.replace(tiny_word_config(), dropout=0.25)
    model = build_word_cnn(config, seed=8)
    examples = []
    for i in range(8):
        indices = gen.integers(1, 50, size=16).astype(np.int64)
        indices[10:] = 0  # PAD tail
        examples.append(EncodedExample(indices, i % 4))
    train_config = TrainConfig(batch_size=2, epochs=250, patience=10**6, seed=8)
    _, history = train(model, examples, examples, train_config)
    assert len(history) == 250  # 4 batches per epoch -> exactly 1000 steps
    embed = next(p for p in model.parameters() if p.name == "embedding")
    assert (embed.value[0] == 0.0).all()
    assert np.abs(embed.value[1:]).max() > 0.0  # the rest did train

    for rate in (0.3, 0.5):
        _, mask = ops.dropout(np.ones((1, 100_000)), rate, [np.random.default_rng(4)])
        keep = (mask > 0).mean()
        assert abs(keep - (1.0 - rate)) <= 0.01
