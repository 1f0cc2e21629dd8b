"""The package's own gradient checker: passes on healthy models, catches a
deliberately corrupted backward pass, and reports deterministically."""

from dataclasses import replace

import numpy as np
import pytest

from quadcode.models import (
    CharCnn,
    build_word_cnn,
    make_gradcheck_examples,
    tiny_char_config,
    tiny_word_config,
)
from quadcode.tensor_nn import layers
from quadcode.text_encoding import EncodedExample
from quadcode.tensor_nn.gradcheck import finite_difference_check, relative_error


class TestRelativeError:
    def test_zero_when_equal(self):
        assert relative_error(3.0, 3.0) == 0.0

    def test_symmetric(self):
        assert relative_error(1.0, 2.0) == relative_error(2.0, 1.0)

    def test_both_zero(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_scale_free(self):
        small = relative_error(1e-8, 1.1e-8)
        large = relative_error(1e8, 1.1e8)
        assert abs(small - large) < 1e-3


class TestHealthyModels:
    def test_word_model_passes(self):
        model = build_word_cnn(tiny_word_config(), seed=0)
        examples = make_gradcheck_examples(model, count=2, seed=0)
        report = finite_difference_check(model, examples, seed=0)
        assert report.max_rel_error < 1e-4
        assert all(c.coords_checked > 0 for c in report.checks)

    def test_char_model_passes(self):
        model = CharCnn(tiny_char_config(), seed=0)
        examples = make_gradcheck_examples(model, count=2, seed=0)
        report = finite_difference_check(model, examples, seed=0)
        assert report.max_rel_error < 1e-4

    def test_char_model_passes_on_the_live_prefix(self, monkeypatch):
        # 64 right-PADded records: the backward pass takes the live prefix.
        # Drawn biases keep the conv outputs over the all-zero PAD tail off
        # the ReLU kink, where zero-initialised biases would put them.
        model = CharCnn(tiny_char_config(), seed=0)
        gen = np.random.default_rng(0)
        for p in model.parameters():
            if p.name.endswith(".b"):
                p.value[...] = gen.uniform(-0.1, 0.1, size=p.value.shape)
        examples = []
        for _ in range(64):
            indices = np.zeros(model.config.length, dtype=np.int64)
            live = int(gen.integers(1, 6))
            indices[:live] = gen.integers(1, model.config.alphabet_size, size=live)
            examples.append(EncodedExample(indices, int(gen.integers(0, 4))))
        widths, forward = [], model.embedding.forward
        monkeypatch.setattr(model.embedding, "forward", lambda x, ctx: (widths.append(x.shape[1]), forward(x, ctx))[1])
        report = finite_difference_check(model, examples, seed=0)
        assert widths[0] < model.config.length
        assert report.max_rel_error < 1e-4
        assert all(c.coords_checked > 0 for c in report.checks)

    def test_frozen_embedding_skipped(self):
        # a frozen table's backward writes no gradient, so there is nothing to check
        model = build_word_cnn(replace(tiny_word_config(), embeddings_trainable=False), seed=0)
        examples = make_gradcheck_examples(model, count=2, seed=0)
        report = finite_difference_check(model, examples, seed=0)
        assert report.max_rel_error < 1e-4
        assert [c.name for c in report.checks if c.coords_checked == 0] == ["embedding"]

    def test_every_parameter_reported(self):
        model = build_word_cnn(tiny_word_config(), seed=1)
        examples = make_gradcheck_examples(model, count=1, seed=1)
        report = finite_difference_check(model, examples, seed=1)
        assert [c.name for c in report.checks] == [p.name for p in model.parameters()]

    def test_deterministic_report(self):
        model = build_word_cnn(tiny_word_config(), seed=2)
        examples = make_gradcheck_examples(model, count=2, seed=2)
        a = finite_difference_check(model, examples, seed=5)
        b = finite_difference_check(model, examples, seed=5)
        assert a == b

    def test_seed_changes_sampled_coords(self):
        model = build_word_cnn(tiny_word_config(), seed=2)
        examples = make_gradcheck_examples(model, count=1, seed=2)
        a = finite_difference_check(model, examples, seed=5)
        b = finite_difference_check(model, examples, seed=6)
        # same verdict, very likely different coordinates hence different errors
        assert a.max_rel_error < 1e-4 and b.max_rel_error < 1e-4
        assert any(x.max_rel_error != y.max_rel_error for x, y in zip(a.checks, b.checks))

    def test_report_lines_render(self):
        model = CharCnn(tiny_char_config(), seed=0)
        examples = make_gradcheck_examples(model, count=1, seed=0)
        report = finite_difference_check(model, examples, seed=0)
        text = "\n".join(report.lines())
        assert "overall" in text and "max rel err" in text


class TestNegativeControl:
    def test_corrupted_conv_backward_is_caught(self, monkeypatch):
        # Scale the weight gradient by 1.1: a bug the checker must flag loudly.
        from quadcode.tensor_nn import ops

        true_backward = ops.conv1d_backward

        def corrupted(x, w, grad_y, grad_w, grad_b):
            grad_x = true_backward(x, w, grad_y, grad_w, grad_b)
            grad_w *= 1.1
            return grad_x

        model = build_word_cnn(tiny_word_config(), seed=0)
        examples = make_gradcheck_examples(model, count=2, seed=0)
        monkeypatch.setattr(layers.ops, "conv1d_backward", corrupted)
        report = finite_difference_check(model, examples, seed=0)
        assert report.max_rel_error > 1e-2
        bad = {c.name for c in report.checks if c.max_rel_error > 1e-2}
        assert any(name.startswith("branch_k") and name.endswith(".w") for name in bad)

    def test_dropped_relu_gate_is_caught(self, monkeypatch):
        from quadcode.tensor_nn import ops

        monkeypatch.setattr(layers.ops, "relu_backward", lambda x, g: np.asarray(g, dtype=np.float64))
        model = CharCnn(tiny_char_config(), seed=3)
        examples = make_gradcheck_examples(model, count=2, seed=3)
        report = finite_difference_check(model, examples, seed=3)
        assert report.max_rel_error > 1e-2


class TestPinnedCoordinates:
    def test_pad_row_never_sampled(self):
        model = build_word_cnn(tiny_word_config(), seed=4)
        examples = make_gradcheck_examples(model, count=2, seed=4)
        # crank the sample count so the PAD row would certainly be hit if eligible
        report = finite_difference_check(model, examples, max_coords_per_param=50, seed=4)
        assert report.max_rel_error < 1e-4

    def test_pinned_mask_set_on_embedding(self):
        model = build_word_cnn(tiny_word_config(), seed=0)
        embed = next(p for p in model.parameters() if "embed" in p.name)
        assert embed.pinned is not None
        assert embed.pinned[0].all()
        assert not embed.pinned[1:].any()
