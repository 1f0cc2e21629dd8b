"""Metric arithmetic against brute-force recounts, the training loop's
learning behavior, determinism, and early stopping."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import quadcode

from quadcode import train_eval
from quadcode.errors import InputError, QuadcodeError
from quadcode.models import (
    CharCnn,
    CharCnnConfig,
    WordCnnConfig,
    build_word_cnn,
    predict,
    tiny_char_config,
    tiny_word_config,
)
from quadcode.ontology import CLASSES
from quadcode.tensor_nn.optim import Adam, Sgd
from quadcode.text_encoding import EncodedExample
from quadcode.train_eval import (
    EpochStats,
    Metrics,
    TrainConfig,
    evaluate,
    read_history,
    train,
    write_history,
)

# --- oracle -------------------------------------------------------------------


def brute_force_metrics(truths, preds):
    """Recount accuracy/precision/recall from the raw pairs, no matrix algebra."""
    n = len(truths)
    accuracy = sum(t == p for t, p in zip(truths, preds)) / n
    precision, recall = [], []
    for c in range(4):
        tp = sum(1 for t, p in zip(truths, preds) if t == c and p == c)
        predicted = sum(1 for p in preds if p == c)
        actual = sum(1 for t in truths if t == c)
        precision.append(tp / predicted if predicted else 0.0)
        recall.append(tp / actual if actual else 0.0)
    return accuracy, precision, recall


def brute_force_f1(truths, preds):
    """Per-class F1 recounted as 2TP / (2TP + FP + FN), the harmonic mean of
    precision and recall written without either; 0 for a class that is
    neither true nor predicted anywhere."""
    f1 = []
    for c in range(4):
        tp = sum(1 for t, p in zip(truths, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(truths, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(truths, preds) if t == c and p != c)
        f1.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return f1


def confusion_of(truths, preds):
    m = np.zeros((4, 4), dtype=np.int64)
    for t, p in zip(truths, preds):
        m[t, p] += 1
    return m


class TestMetrics:
    def test_against_brute_force_on_random_pairs(self):
        gen = np.random.default_rng(17)
        for _ in range(25):
            n = int(gen.integers(1, 60))
            truths = gen.integers(0, 4, size=n).tolist()
            preds = gen.integers(0, 4, size=n).tolist()
            metrics = Metrics(confusion_of(truths, preds))
            accuracy, precision, recall = brute_force_metrics(truths, preds)
            assert abs(metrics.accuracy - accuracy) < 1e-12
            np.testing.assert_allclose(metrics.precision, precision, atol=1e-12)
            np.testing.assert_allclose(metrics.recall, recall, atol=1e-12)

    def test_f1_against_brute_force_on_random_pairs(self):
        gen = np.random.default_rng(19)
        for _ in range(25):
            n = int(gen.integers(1, 60))
            truths = gen.integers(0, 4, size=n).tolist()
            preds = gen.integers(0, 3, size=n).tolist()  # class 3 is never predicted: its F1 is 0
            metrics = Metrics(confusion_of(truths, preds))
            np.testing.assert_allclose(metrics.f1, brute_force_f1(truths, preds), atol=1e-12)
            assert metrics.f1[3] == 0.0
            assert metrics.to_json_obj()["f1"] == [float(x) for x in metrics.f1]

    def test_f1_of_an_absent_class_is_zero(self):
        metrics = Metrics(confusion_of([0, 0, 1], [0, 1, 1]))
        assert metrics.f1[2] == 0.0 and metrics.f1[3] == 0.0
        assert metrics.f1[0] == 2 * 1.0 * 0.5 / 1.5 and metrics.f1[1] == 2 * 0.5 * 1.0 / 1.5

    def test_lines_print_f1_beside_precision_and_recall(self):
        lines = Metrics(confusion_of([0, 0, 1], [0, 1, 1])).lines()[1:5]
        assert [line.split()[-2:] for line in lines] == [["f1", "0.6667"], ["f1", "0.6667"], ["f1", "0.0000"], ["f1", "0.0000"]]
        assert all("precision" in line and "recall" in line for line in lines)

    def test_perfect_predictor(self):
        truths = [0, 1, 2, 3, 2, 1]
        metrics = Metrics(confusion_of(truths, truths))
        assert metrics.accuracy == 1.0
        assert (metrics.precision == 1.0).all() and (metrics.recall == 1.0).all()

    def test_constant_predictor(self):
        truths = [0, 1, 2, 3]
        preds = [2, 2, 2, 2]
        metrics = Metrics(confusion_of(truths, preds))
        assert metrics.accuracy == 0.25
        assert metrics.precision[2] == 0.25 and metrics.recall[2] == 1.0
        # classes never predicted / never seen get 0, not NaN
        assert metrics.precision[0] == 0.0 and np.isfinite(metrics.precision).all()

    def test_row_sums_are_true_counts(self):
        gen = np.random.default_rng(3)
        truths = gen.integers(0, 4, size=40).tolist()
        preds = gen.integers(0, 4, size=40).tolist()
        metrics = Metrics(confusion_of(truths, preds))
        for c in range(4):
            assert metrics.confusion[c].sum() == truths.count(c)
        assert metrics.total == 40

    def test_json_obj_shape(self):
        metrics = Metrics(np.eye(4, dtype=np.int64))
        obj = metrics.to_json_obj()
        assert obj["accuracy"] == 1.0 and obj["total"] == 4
        assert len(obj["precision"]) == 4 and len(obj["confusion"]) == 4

    def test_lines_render_with_names(self):
        metrics = Metrics(np.eye(4, dtype=np.int64))
        text = "\n".join(metrics.lines())
        assert "accuracy 1.0000" in text and "confusion" in text
        assert all(f"  {q.value} " in text for q in CLASSES)

    def test_rejects_bad_shape(self):
        with pytest.raises(QuadcodeError):
            Metrics(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(QuadcodeError):
            Metrics(np.full((4, 4), -1, dtype=np.int64))


def _examples(n, length=16, vocab=50, seed=0):
    gen = np.random.default_rng(seed)
    return [
        EncodedExample(gen.integers(1, vocab, size=length, dtype=np.int64), int(gen.integers(0, 4)))
        for _ in range(n)
    ]


def _padded_rows(model, n, seed, longest=None):
    """n (L,) index rows of live tokens, each followed by a PAD tail of random
    length; at most longest (default L) tokens are live."""
    gen = np.random.default_rng(seed)
    size = model.config.vocab_size if model.kind == "word" else model.config.alphabet_size
    rows = gen.integers(1, size, size=(n, model.config.length), dtype=np.int64)
    for row in rows:
        row[gen.integers(1, (longest or model.config.length) + 1) :] = 0
    return list(rows)


class TestPredictRows:
    @pytest.mark.parametrize("kind", ["word", "char"])
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 65])
    def test_one_pair_per_row_as_chunked_predict_gives(self, kind, n):
        model = build_word_cnn(tiny_word_config(), seed=1) if kind == "word" else CharCnn(tiny_char_config(), seed=1)
        rows = _padded_rows(model, n, seed=n)
        got = list(train_eval.predict_rows(model, iter(rows)))
        want = []
        for start in range(0, n, 32):
            chunk = rows[start : start + 32]
            classes, probs = predict(model, np.stack(chunk + [np.zeros_like(chunk[0])] * (32 - len(chunk))))
            want += list(zip(classes.tolist(), probs))[: len(chunk)]
        assert len(got) == n
        for (got_class, got_probs), (want_class, want_probs) in zip(got, want):
            assert type(got_class) is int and got_class == want_class
            assert got_probs.tobytes() == want_probs.tobytes()

    @pytest.mark.parametrize("scale", ["word_tiny", "word_full", "char_tiny", "char_full"])
    def test_a_rows_bytes_depend_only_on_the_row(self, scale):
        """A row's probabilities are the same bytes whatever the number of rows
        around it and its position among them: those of its row in a full
        32-row chunk, at any position there."""
        kind, size = scale.split("_")
        if kind == "word":
            model = build_word_cnn(tiny_word_config() if size == "tiny" else WordCnnConfig(vocab_size=20000), seed=3)
        else:
            model = CharCnn(tiny_char_config() if size == "tiny" else CharCnnConfig(alphabet_size=70), seed=3)
        rows = _padded_rows(model, 40, seed=4, longest=64)
        want = {}
        for start in (0, 8):  # rows 8 to 31 sit at two positions of a full chunk
            _, probs = predict(model, np.stack(rows[start : start + 32]))
            for i, p in enumerate(probs, start):
                assert want.setdefault(i, p.tobytes()) == p.tobytes()
        for start, stop in ((0, 1), (5, 6), (39, 40), (0, 5), (3, 11), (2, 18), (31, 40), (7, 40), (0, 40)):
            got = list(train_eval.predict_rows(model, rows[start:stop]))
            assert len(got) == stop - start
            for i, (_, probs) in enumerate(got, start):
                assert probs.tobytes() == want[i], (start, stop, i)

    def test_reads_rows_one_chunk_at_a_time(self):
        model = build_word_cnn(tiny_word_config(), seed=1)
        taken = []

        def rows():
            for row in _padded_rows(model, 70, seed=2):
                taken.append(row)
                yield row

        predicted = train_eval.predict_rows(model, rows())
        next(predicted)
        assert len(taken) == 32
        assert len(list(predicted)) == 69 and len(taken) == 70


class TestEvaluate:
    def test_counts_match_manual_loop(self):
        model = build_word_cnn(tiny_word_config(), seed=0)
        examples = _examples(30, seed=2)
        metrics = evaluate(model, examples)
        truths = [e.label for e in examples]
        preds = [predict(model, e.indices)[0] for e in examples]
        assert (metrics.confusion == confusion_of(truths, preds)).all()

    def test_empty_set_rejected(self):
        model = build_word_cnn(tiny_word_config(), seed=0)
        with pytest.raises(InputError, match=r"^test dataset has no examples$"):
            evaluate(model, [])


class TestTrainingLoop:
    def _separable_examples(self, n, seed=0):
        # class c sentences use tokens from a disjoint id range, trivially separable
        gen = np.random.default_rng(seed)
        out = []
        for i in range(n):
            label = i % 4
            low = 2 + label * 12
            indices = gen.integers(low, low + 12, size=16, dtype=np.int64)
            out.append(EncodedExample(indices, label))
        return out

    def test_one_batch_overfit(self):
        # the core learning sanity check: loss on a single repeated batch
        # must collapse toward zero well within 500 steps; dropout is off so
        # the loss is a deterministic function the optimizer can actually sink
        import dataclasses

        config = dataclasses.replace(tiny_word_config(), dropout=0.0)
        model = build_word_cnn(config, seed=0)
        batch = self._separable_examples(8, seed=5)
        config = TrainConfig(batch_size=8, epochs=500, patience=500, shuffle=False, lr=1e-3, seed=0)
        _, history = train(model, batch, batch, config)
        losses = [h.train_loss for h in history]
        assert min(losses) < 0.01
        # smoothed trend is downward: late average far below early average
        early = np.mean(losses[:10])
        late = np.mean(losses[-10:])
        assert late < early * 0.1

    def test_learns_separable_data(self):
        model = build_word_cnn(tiny_word_config(), seed=1)
        train_set = self._separable_examples(80, seed=6)
        dev_set = self._separable_examples(20, seed=7)
        config = TrainConfig(batch_size=16, epochs=30, patience=30, seed=1)
        model, history = train(model, train_set, dev_set, config)
        assert max(h.dev_accuracy for h in history) >= 0.9

    def test_same_seed_identical_history_and_weights(self):
        train_set = self._separable_examples(24, seed=8)
        dev_set = self._separable_examples(8, seed=9)
        config = TrainConfig(batch_size=8, epochs=3, patience=5, seed=42)
        model_a, history_a = train(build_word_cnn(tiny_word_config(), seed=2), train_set, dev_set, config)
        model_b, history_b = train(build_word_cnn(tiny_word_config(), seed=2), train_set, dev_set, config)
        assert history_a == history_b
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            assert (pa.value == pb.value).all()

    def test_different_seed_different_path(self):
        train_set = self._separable_examples(24, seed=8)
        dev_set = self._separable_examples(8, seed=9)
        config_a = TrainConfig(batch_size=8, epochs=2, patience=5, seed=1)
        config_b = TrainConfig(batch_size=8, epochs=2, patience=5, seed=2)
        _, history_a = train(build_word_cnn(tiny_word_config(), seed=2), train_set, dev_set, config_a)
        _, history_b = train(build_word_cnn(tiny_word_config(), seed=2), train_set, dev_set, config_b)
        assert history_a != history_b

    def test_early_stopping_and_best_restore(self):
        model = build_word_cnn(tiny_word_config(), seed=3)
        train_set = self._separable_examples(32, seed=10)
        dev_set = self._separable_examples(12, seed=11)
        config = TrainConfig(batch_size=8, epochs=200, patience=2, seed=3)
        model, history = train(model, train_set, dev_set, config)
        assert len(history) < 200  # stopped early
        best = max(h.dev_accuracy for h in history)
        # restored parameters reproduce the best epoch's dev accuracy
        assert evaluate(model, dev_set).accuracy == best
        # stopping rule: the tail after the best epoch is at most patience+1 long
        best_epoch = max(history, key=lambda h: (h.dev_accuracy, -h.epoch)).epoch
        assert history[-1].epoch - best_epoch <= config.patience + 1

    @pytest.mark.parametrize(
        "accuracies, epochs, patience, best_epoch",
        [
            ([0.5, 0.7], 2, 5, 2),  # best is the final epoch: nothing to restore
            ([0.7, 0.5, 0.6], 3, 5, 1),  # ran to the limit past the best epoch
            ([0.5, 0.7, 0.6, 0.6], 10, 1, 2),  # stopped early by patience
            ([0.7, 0.7], 2, 5, 1),  # a tie does not move the best epoch
            ([0.4], 1, 0, 1),
        ],
    )
    def test_returns_best_epoch_parameters(self, monkeypatch, accuracies, epochs, patience, best_epoch):
        """Scripted dev accuracies; the returned weights are exactly those
        the best epoch ended with, whether or not a snapshot was needed."""
        snapshots = []
        scripted = iter(accuracies)

        def fake_evaluate(model, dev_set):
            snapshots.append([p.value.copy() for p in model.parameters()])
            return SimpleNamespace(accuracy=next(scripted))

        monkeypatch.setattr(train_eval, "evaluate", fake_evaluate)
        data = self._separable_examples(8, seed=12)
        model, history = train(build_word_cnn(tiny_word_config(), seed=0), data, data,
                               TrainConfig(batch_size=4, epochs=epochs, patience=patience, seed=0))
        assert [h.dev_accuracy for h in history] == accuracies
        for p, want in zip(model.parameters(), snapshots[best_epoch - 1]):
            assert (p.value == want).all()

    def test_epochs_one_runs_single_epoch(self):
        model = build_word_cnn(tiny_word_config(), seed=0)
        data = self._separable_examples(8, seed=12)
        _, history = train(model, data, data, TrainConfig(batch_size=4, epochs=1, seed=0))
        assert [h.epoch for h in history] == [1]

    def test_empty_sets_rejected(self):
        model = build_word_cnn(tiny_word_config(), seed=0)
        data = self._separable_examples(4)
        with pytest.raises(InputError, match=r"^train dataset has no examples$"):
            train(model, [], data, TrainConfig())
        with pytest.raises(InputError, match=r"^dev dataset has no examples$"):
            train(model, data, [], TrainConfig())

    @pytest.mark.parametrize("config, cls, attrs", [
        (TrainConfig(epochs=1, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6), Adam,
         {"lr": 0.01, "beta1": 0.8, "beta2": 0.99, "eps": 1e-6}),
        (TrainConfig(epochs=1, optimizer="sgd", lr=0.05, momentum=0.5), Sgd, {"lr": 0.05, "momentum": 0.5}),
    ], ids=["adam", "sgd"])
    def test_builds_the_configured_optimizer(self, monkeypatch, config, cls, attrs):
        stepped = []
        for optimizer_cls in (Adam, Sgd):
            monkeypatch.setattr(optimizer_cls, "step", lambda opt: stepped.append(opt))
        data = self._separable_examples(4)
        train(build_word_cnn(tiny_word_config(), seed=0), data, data, config)
        assert stepped and all(type(opt) is cls for opt in stepped)
        assert {name: getattr(stepped[0], name) for name in attrs} == attrs

    def test_sgd_also_trains(self):
        model = build_word_cnn(tiny_word_config(), seed=4)
        batch = self._separable_examples(8, seed=13)
        config = TrainConfig(batch_size=8, epochs=300, patience=300, shuffle=False,
                             optimizer="sgd", lr=0.05, momentum=0.9, seed=0)
        _, history = train(model, batch, batch, config)
        assert min(h.train_loss for h in history) < 0.05

    def test_bad_config_rejected(self):
        from quadcode.errors import InputError

        with pytest.raises(InputError):
            TrainConfig(batch_size=0)
        with pytest.raises(InputError):
            TrainConfig(epochs=0)
        with pytest.raises(InputError):
            TrainConfig(patience=-1)


# Two dropout training steps, each followed by an Adam step, of a char model
# whose fc1 input is 3456 wide and whose convs run (N*T, C*K) GEMMs of a few
# thousand rows, large enough for OpenBLAS to split them across threads: one
# on 16 unpadded records, then one on 32 right-PADded records, which takes
# the live prefix.
_BLAS_STEP = """
import hashlib, json, sys
import numpy as np
from quadcode import models, rng
from quadcode.tensor_nn.optim import Adam
config = models.CharCnnConfig(alphabet_size=30, embed_dim=16, length=512, hidden=(256, 256),
                              convs=tuple(models.ConvSpec(64, k, p) for k, p in ((7, 3), (3, None), (3, None), (3, 3))))
model = models.CharCnn(config, seed=3)
adam = Adam(model.parameters())
examples = models.make_gradcheck_examples(model, count=48, seed=3)
for j, example in enumerate(examples[16:]):
    example.indices[20 + j :] = 0
grads = []
for step, batch in enumerate((examples[:16], examples[16:])):
    gens = [rng.stream(3, rng.DROPOUT, step, j) for j in range(len(batch))]
    models.batch_loss(model, batch, training=True, dropout_rngs=gens, accumulate=True)
    grads.append(hashlib.sha256(b"".join(p.grad.tobytes() for p in model.parameters())).hexdigest())
    adam.step()
assert model._live_prefix(np.stack([e.indices for e in examples[16:]])) is not None
models.save_checkpoint(model, sys.argv[1])
with open(sys.argv[1], "rb") as fh:
    print(json.dumps({"grads": grads, "checkpoint": hashlib.sha256(fh.read()).hexdigest()}))
"""


def test_char_step_identical_with_one_and_two_blas_threads(tmp_path):
    src_root = str(Path(quadcode.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src_root, os.environ.get("PYTHONPATH")) if p)
    out = []
    for threads in (1, 2):
        # BLAS reads its thread count at import, hence a fresh interpreter
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", _BLAS_STEP, str(tmp_path / f"{threads}.ckpt")],
                              env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        out.append(json.loads(done.stdout))
    assert out[0] == out[1]
    assert (tmp_path / "1.ckpt").read_bytes() == (tmp_path / "2.ckpt").read_bytes()


class TestHistoryFiles:
    def test_round_trip(self, tmp_path):
        history = [EpochStats(1, 1.25, 0.5), EpochStats(2, 0.75, 0.625)]
        path = tmp_path / "history.jsonl"
        write_history(history, path)
        assert read_history(path) == history

    def test_written_shape(self, tmp_path):
        path = tmp_path / "history.jsonl"
        write_history([EpochStats(1, 1.0, 0.25)], path)
        assert path.read_text(encoding="utf-8") == '{"epoch":1,"train_loss":1.0,"dev_accuracy":0.25}\n'

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"epoch":1,"train_loss":1.0,"dev_accuracy":0.25}\n{"epoch":2}\n', encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            read_history(path)

    def test_over_deep_line_reports_position(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"epoch":1,"train_loss":1.0,"dev_accuracy":0.25}\n' + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: line 2: invalid JSON: nested too deeply$"):
            read_history(path)

    @pytest.mark.parametrize("line, fault", [
        ('{"epoch":"x","train_loss":null,"dev_accuracy":[1]}', "'epoch' must be an integer"),
        ('{"epoch":true,"train_loss":1.0,"dev_accuracy":0.5}', "'epoch' must be an integer"),
        ('{"epoch":2,"train_loss":null,"dev_accuracy":0.5}', "'train_loss' must be a finite number"),
        ('{"epoch":2,"train_loss":1.0,"dev_accuracy":[1]}', "'dev_accuracy' must be a finite number"),
        ('{"epoch":2,"train_loss":false,"dev_accuracy":0.5}', "'train_loss' must be a finite number"),
        ('{"epoch":2,"train_loss":NaN,"dev_accuracy":0.5}', "'train_loss' must be a finite number"),
        ('{"epoch":2,"train_loss":1.0,"dev_accuracy":1' + "0" * 400 + "}", "'dev_accuracy' must be a finite number"),
        ('{"epoch":2,"train_loss":1.0,"dev_accuracy":0.5,"extra":0}', "a history line holds exactly the keys"),
        ('[2, 1.0, 0.5]', "a history line holds exactly the keys"),
    ], ids=["found_example", "bool_epoch", "null_loss", "list_accuracy", "bool_loss", "nan_loss",
            "huge_int_accuracy", "extra_key", "not_an_object"])
    def test_mistyped_line_is_line_numbered_input_error(self, tmp_path, line, fault):
        path = tmp_path / "history.jsonl"
        path.write_text('{"epoch":1,"train_loss":1.0,"dev_accuracy":0.25}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: line 2: {re.escape(fault)}"):
            read_history(path)

    def test_integer_loss_and_accuracy_read_as_floats(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"epoch":1,"train_loss":2,"dev_accuracy":1}\n', encoding="utf-8")
        [stats] = read_history(path)
        assert stats == EpochStats(1, 2.0, 1.0) and isinstance(stats.train_loss, float)
