"""Model wiring: parameter counts against a closed-form oracle, layer shape
traces against an independent length-law recomputation, prediction behavior,
and the checkpoint container."""

import hashlib
import json
import re
import struct
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from quadcode import cli, models, rng
from quadcode.models import (
    CharCnn,
    CharCnnConfig,
    CheckpointError,
    ConvSpec,
    InvalidConfigError,
    WordCnn,
    WordCnnConfig,
    _config_from_obj,
    batch_loss,
    build_word_cnn,
    implied_param_count,
    load_checkpoint,
    make_gradcheck_examples,
    parameter_count,
    predict,
    save_checkpoint,
    shape_trace,
    tiny_char_config,
    tiny_word_config,
)
from quadcode.text_encoding import (
    CharEncoder,
    EncodedExample,
    Vocabulary,
    WordEncoder,
    build_char_alphabet,
    build_vocab,
    load_embeddings,
)
from quadcode.corpus import SentenceRecord
from quadcode.tensor_nn.layers import INFER, Branches, MaxPool1d, PassContext, ReLU
from quadcode.tensor_nn import ops, optim
from quadcode.tensor_nn.optim import Adam, NonFiniteGradientError, Sgd

# --- oracles ------------------------------------------------------------------


def word_param_count_closed_form(v, d, frames, kernels, hidden, classes):
    """Parameter total written straight from the architecture definition."""
    total = v * d  # embedding
    for k in kernels:
        total += frames * d * k + frames  # conv weight + bias per branch
    concat = frames * len(kernels)
    total += hidden * concat + hidden  # first dense
    total += classes * hidden + classes  # classifier
    return total


def char_param_count_closed_form(a, d, convs, hidden, classes, flat):
    total = a * d
    c_in = d
    for frames, kernel, _pool in convs:
        total += frames * c_in * kernel + frames
        c_in = frames
    widths = [flat, *hidden]
    for n_in, n_out in zip(widths, widths[1:]):
        total += n_out * n_in + n_out
    total += classes * widths[-1] + classes
    return total


def char_lengths_by_hand(length, convs):
    out = []
    for _frames, kernel, pool in convs:
        length = length - kernel + 1
        if pool:
            length //= pool
        out.append(length)
    return out


class TestConfigValidation:
    def test_word_requires_three_distinct_kernels(self):
        with pytest.raises(InvalidConfigError):
            WordCnnConfig(vocab_size=10, kernels=(3, 4))
        with pytest.raises(InvalidConfigError):
            WordCnnConfig(vocab_size=10, kernels=(3, 3, 5))

    def test_four_way_classifier_enforced(self):
        with pytest.raises(InvalidConfigError):
            WordCnnConfig(vocab_size=10, classes=5)
        with pytest.raises(InvalidConfigError):
            CharCnnConfig(alphabet_size=10, classes=3)

    def test_dropout_range(self):
        with pytest.raises(InvalidConfigError):
            WordCnnConfig(vocab_size=10, dropout=1.0)
        WordCnnConfig(vocab_size=10, dropout=0.0)

    def test_bad_conv_spec_rejected(self):
        with pytest.raises(InvalidConfigError):
            CharCnnConfig(alphabet_size=8, convs=[[4, 0, None]])
        with pytest.raises(InvalidConfigError):
            CharCnnConfig(alphabet_size=8, convs=[ConvSpec(4, 3, 0)])

    def test_one_hot_dimension_tie(self):
        with pytest.raises(InvalidConfigError):
            CharCnnConfig(alphabet_size=10, embed_dim=32, one_hot=True)
        CharCnnConfig(alphabet_size=10, embed_dim=10, one_hot=True)

    def test_too_short_input_names_failing_layer(self):
        # a config no model can be built from is refused when it is made
        with pytest.raises(InvalidConfigError, match=r"^conv2: output length -1 < 1 for input length 11$"):
            CharCnnConfig(alphabet_size=10, length=11)
        with pytest.raises(InvalidConfigError, match=r"^branch_k5\.conv: output length 0 < 1 for input length 4$"):
            WordCnnConfig(vocab_size=10, length=4, pool=1)
        with pytest.raises(InvalidConfigError, match=r"^branch_k4\.pool: output length 0 < 1 for input length 4$"):
            WordCnnConfig(vocab_size=10, length=4)


class TestConfigCodec:
    """The checkpoint header stores a config as asdict(config); reading it back
    goes through JSON, so tuples come back as lists."""

    CONFIGS = [tiny_word_config(), WordCnnConfig(vocab_size=20000), tiny_char_config(), CharCnnConfig(alphabet_size=70)]

    @pytest.mark.parametrize("config", CONFIGS, ids=["word_tiny", "word_full", "char_tiny", "char_full"])
    def test_round_trip(self, config):
        kind = "word" if isinstance(config, WordCnnConfig) else "char"
        assert _config_from_obj("x.ckpt", kind, asdict(config)) == config
        assert _config_from_obj("x.ckpt", kind, json.loads(json.dumps(asdict(config)))) == config


class TestParameterCounts:
    def test_full_scale_word_model(self):
        config = WordCnnConfig(vocab_size=5000, embed_dim=128)
        model = build_word_cnn(config, seed=0)
        want = word_param_count_closed_form(5000, 128, 256, (3, 4, 5), 150, 4)
        assert parameter_count(model) == want == 1_149_938

    def test_tiny_word_model(self):
        config = tiny_word_config()
        model = build_word_cnn(config, seed=0)
        want = word_param_count_closed_form(
            config.vocab_size, config.embed_dim, config.frames, config.kernels, config.hidden, 4
        )
        assert parameter_count(model) == want

    def test_full_scale_char_model(self):
        config = CharCnnConfig(alphabet_size=70)
        model = CharCnn(config, seed=0)
        flat = 256 * char_lengths_by_hand(512, [(256, 7, 3), (256, 3, 0), (256, 3, 0), (256, 3, 3)])[-1]
        assert flat == 13_824
        want = char_param_count_closed_form(
            70, 32, [(256, 7, 3), (256, 3, 0), (256, 3, 0), (256, 3, 3)], (1024, 1024), 4, flat
        )
        assert parameter_count(model) == want

    def test_tiny_char_model(self):
        config = tiny_char_config()
        model = CharCnn(config, seed=0)
        convs = [(s.frames, s.kernel, s.pool or 0) for s in config.convs]
        flat = config.convs[-1].frames * char_lengths_by_hand(config.length, convs)[-1]
        want = char_param_count_closed_form(
            config.alphabet_size, config.embed_dim, convs, config.hidden, 4, flat
        )
        assert parameter_count(model) == want

    def test_implied_count_without_building(self):
        assert implied_param_count(WordCnnConfig(vocab_size=5000, embed_dim=128)) == 1_149_938
        full_char = CharCnnConfig(alphabet_size=70)
        convs = [(256, 7, 3), (256, 3, 0), (256, 3, 0), (256, 3, 3)]
        assert implied_param_count(full_char) == char_param_count_closed_form(70, 32, convs, (1024, 1024), 4, 13_824)
        one_hot = CharCnnConfig(alphabet_size=8, embed_dim=8, length=32,
                                convs=tiny_char_config().convs, hidden=(16, 16), one_hot=True)
        for model in (build_word_cnn(tiny_word_config(), seed=0), CharCnn(tiny_char_config(), seed=0),
                      CharCnn(one_hot, seed=0)):
            assert implied_param_count(model.config) == parameter_count(model)


class TestShapeTraces:
    def test_word_trace_matches_length_laws(self):
        config = WordCnnConfig(vocab_size=200, embed_dim=32, length=20, frames=16)
        model = build_word_cnn(config, seed=0)
        trace = dict(shape_trace(model))
        assert trace["embedding"] == (32, 20)
        for k in (3, 4, 5):
            conv_len, pool_len = 20 - k + 1, (20 - k + 1) // 2
            assert trace[f"branch_k{k}.conv"] == (16, conv_len)
            assert trace[f"branch_k{k}.pool"] == (16, pool_len)
            assert trace[f"branch_k{k}.flatten"] == (16,)
        assert trace["concat"] == (48,)
        assert trace["fc1"] == (config.hidden,)
        assert trace["fc2"] == (4,)

    def test_full_word_concat_width(self):
        model = build_word_cnn(WordCnnConfig(vocab_size=100), seed=0)
        trace = dict(shape_trace(model))
        assert trace["concat"] == (768,)

    def test_char_trace_matches_length_laws(self):
        config = CharCnnConfig(alphabet_size=32)
        model = CharCnn(config, seed=0)
        by_hand = char_lengths_by_hand(512, [(256, 7, 3), (256, 3, 0), (256, 3, 0), (256, 3, 3)])
        assert by_hand == [168, 166, 164, 54]
        trace = dict(shape_trace(model))
        assert [trace[name][1] for name in ("conv1.pool", "conv2", "conv3", "conv4.pool")] == by_hand
        assert trace["conv1"] == (256, 506)
        assert trace["conv1.pool"] == (256, 168)
        assert trace["conv4.pool"] == (256, 54)
        assert trace["flatten"] == (13_824,)
        assert trace["fc3"] == (4,)

    def test_tiny_word_trace(self):
        # complete and ordered: a reordered, duplicated or extra entry fails
        model = build_word_cnn(tiny_word_config(), seed=0)
        branch = lambda k, conv, pool: [  # noqa: E731
            (f"branch_k{k}.conv", (8, conv)), (f"branch_k{k}.relu", (8, conv)), (f"branch_k{k}.pool", (8, pool)),
            (f"branch_k{k}.global_pool", (8, 1)), (f"branch_k{k}.flatten", (8,)),
        ]
        assert shape_trace(model) == [
            ("embedding", (16, 16)), *branch(3, 14, 7), *branch(4, 13, 6), *branch(5, 12, 6),
            ("concat", (24,)), ("dropout1", (24,)), ("fc1", (12,)), ("fc1.relu", (12,)), ("dropout2", (12,)),
            ("fc2", (4,)),
        ]
        assert [p.name for p in model.parameters()] == [
            "embedding", "branch_k3.w", "branch_k3.b", "branch_k4.w", "branch_k4.b", "branch_k5.w", "branch_k5.b",
            "fc1.w", "fc1.b", "fc2.w", "fc2.b",
        ]

    def test_tiny_char_trace(self):
        model = CharCnn(tiny_char_config(), seed=0)
        assert shape_trace(model) == [
            ("embedding", (8, 32)),
            ("conv1", (6, 26)), ("conv1.relu", (6, 26)), ("conv1.pool", (6, 13)),
            ("conv2", (6, 11)), ("conv2.relu", (6, 11)),
            ("conv3", (6, 9)), ("conv3.relu", (6, 9)),
            ("conv4", (6, 7)), ("conv4.relu", (6, 7)), ("conv4.pool", (6, 3)),
            ("flatten", (18,)),
            ("dropout1", (18,)), ("fc1", (16,)), ("fc1.relu", (16,)),
            ("dropout2", (16,)), ("fc2", (16,)), ("fc2.relu", (16,)),
            ("fc3", (4,)),
        ]
        assert [p.name for p in model.parameters()] == [
            "embedding", "conv1.w", "conv1.b", "conv2.w", "conv2.b", "conv3.w", "conv3.b", "conv4.w", "conv4.b",
            "fc1.w", "fc1.b", "fc2.w", "fc2.b", "fc3.w", "fc3.b",
        ]


def _first_short_layer(length: int, stacks) -> tuple[str | None, int, dict]:
    """By hand, for stacks of (name, kernel, pool or None) convs, each stack
    reading all length input positions, in walk order: the first layer whose
    output length is < 1 and that length (None and 0 when there is none),
    and the output length of every layer before it."""
    lengths = {}
    for stack in stacks:
        out = length
        for name, kernel, pool in stack:
            out = out - kernel + 1
            if out < 1:
                return name, out, lengths
            lengths[name] = out
            if pool is not None:
                name = f"{name.removesuffix('.conv')}.pool"
                out //= pool
                if out < 1:
                    return name, out, lengths
                lengths[name] = out
    return None, 0, lengths


# kernel triples in walk order: ascending, descending and mixed
WORD_KERNELS = [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 6, 5), (2, 7, 4), (6, 1, 3)]


class TestLengthLawGrid:
    """Configs on a grid near the smallest buildable length: construction
    raises exactly when a conv or pool output computed by hand is < 1, naming
    the first such layer, and a config that builds traces those lengths."""

    @pytest.mark.parametrize("length", range(1, 25))
    def test_word(self, length):
        for kernels in WORD_KERNELS:
            for pool in range(1, 6):
                branches = [[(f"branch_k{k}.conv", k, pool)] for k in kernels]
                short, out, lengths = _first_short_layer(length, branches)
                make = lambda: WordCnnConfig(vocab_size=5, embed_dim=2, length=length, frames=2,  # noqa: E731
                                             kernels=kernels, pool=pool, hidden=2)
                if short is not None:
                    with pytest.raises(InvalidConfigError) as info:
                        make()
                    assert str(info.value) == f"{short}: output length {out} < 1 for input length {length}"
                    continue
                trace = dict(shape_trace(WordCnn(make(), seed=None)))
                assert {name: trace[name][1] for name in lengths} == lengths
                assert all(trace[f"branch_k{k}.global_pool"] == (2, 1) for k in kernels)

    @pytest.mark.parametrize("length", range(1, 25))
    def test_char(self, length):
        for k1 in range(1, 8):
            for p1 in (None, *range(1, 6)):
                for k2, p2 in ((1, None), (3, 2), (7, None), (2, 5)):
                    stack = [("conv1", k1, p1), ("conv2", k2, p2)]
                    short, out, lengths = _first_short_layer(length, [stack])
                    make = lambda: CharCnnConfig(alphabet_size=5, embed_dim=2, length=length,  # noqa: E731
                                                 convs=[(2, k, p) for _, k, p in stack], hidden=(2,))
                    if short is not None:
                        with pytest.raises(InvalidConfigError) as info:
                            make()
                        assert str(info.value) == f"{short}: output length {out} < 1 for input length {length}"
                        continue
                    model = CharCnn(make(), seed=None)
                    trace = dict(shape_trace(model))
                    assert {name: trace[name][1] for name in lengths} == lengths
                    assert trace["flatten"] == (2 * [*lengths.values()][-1],)
                    assert implied_param_count(model.config) == parameter_count(model)


class TestPredict:
    def test_zeroed_classifier_gives_uniform_probs_class_zero(self):
        model = build_word_cnn(tiny_word_config(), seed=0)
        for p in model.parameters():
            if p.name.startswith("fc2"):
                p.value[:] = 0.0
        indices = np.ones(16, dtype=np.int64)
        cls, probs = predict(model, indices)
        assert cls == 0
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_repeat_prediction_identical(self):
        model = CharCnn(tiny_char_config(), seed=1)
        indices = np.arange(32, dtype=np.int64) % 8
        a = predict(model, indices)
        b = predict(model, indices)
        assert a[0] == b[0]
        assert (a[1] == b[1]).all()

    def test_positive_scaling_of_classifier_preserves_argmax(self):
        model = build_word_cnn(tiny_word_config(), seed=2)
        indices = (np.arange(16, dtype=np.int64) % 49) + 1
        before, _ = predict(model, indices)
        for p in model.parameters():
            if p.name.startswith("fc2"):
                p.value *= 3.0
        after, _ = predict(model, indices)
        assert before == after

    def test_probs_sum_to_one(self):
        model = build_word_cnn(tiny_word_config(), seed=3)
        gen = np.random.default_rng(0)
        for _ in range(20):
            indices = gen.integers(0, 50, size=16, dtype=np.int64)
            _, probs = predict(model, indices)
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_batch_rows_match_single_predictions(self):
        for model in (build_word_cnn(tiny_word_config(), seed=3), CharCnn(tiny_char_config(), seed=3)):
            gen = np.random.default_rng(1)
            batch = gen.integers(0, 8, size=(5, model.config.length), dtype=np.int64)
            classes, probs = predict(model, batch)
            assert classes.shape == (5,) and probs.shape == (5, 4)
            for row, cls, p in zip(batch, classes, probs):
                single_cls, single_p = predict(model, row)
                assert single_cls == cls and np.abs(single_p - p).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 5, 32])
    @pytest.mark.parametrize("kind", ["word", "char"])
    def test_inference_logits_are_the_eval_logits(self, kind, n):
        model = build_word_cnn(tiny_word_config(), seed=9) if kind == "word" else CharCnn(tiny_char_config(), seed=9)
        size = model.config.vocab_size if kind == "word" else model.config.alphabet_size
        indices = np.random.default_rng(n).integers(0, size, size=(n, model.config.length), dtype=np.int64)
        want = model.forward_logits(indices, PassContext())[0]
        assert model.forward_logits(indices, INFER)[0].tobytes() == want.tobytes()

    def test_full_scale_char_inference_logits_are_the_eval_logits(self):
        model = CharCnn(CharCnnConfig(alphabet_size=70), seed=9)
        indices = np.random.default_rng(9).integers(0, 70, size=(32, model.config.length), dtype=np.int64)
        want = model.forward_logits(indices, PassContext())[0]
        assert model.forward_logits(indices, INFER)[0].tobytes() == want.tobytes()

    def test_predict_writes_no_parameter_and_no_index(self):
        for model in (build_word_cnn(tiny_word_config(), seed=10), CharCnn(tiny_char_config(), seed=10)):
            indices = np.random.default_rng(10).integers(0, 8, size=(5, model.config.length), dtype=np.int64)
            before = [(p.value.tobytes(), p.grad.tobytes()) for p in model.parameters()]
            given = indices.copy()
            predict(model, indices)
            assert [(p.value.tobytes(), p.grad.tobytes()) for p in model.parameters()] == before
            assert indices.tobytes() == given.tobytes()

    def test_eval_forward_needs_no_rng(self):
        # an inference forward carries no generator; dropout must not ask for one
        model = build_word_cnn(tiny_word_config(), seed=4)
        predict(model, np.ones(16, dtype=np.int64))


def _padded(gen, size: int, length: int, lengths, pad_inside: bool = False) -> np.ndarray:
    """Records of the given lengths of random non-PAD indices, right-PADded to
    length; pad_inside puts a PAD in the middle of each record of 3 or more."""
    indices = np.zeros((len(lengths), length), dtype=np.int64)
    for row, live in zip(indices, lengths):
        row[:live] = gen.integers(1, size, size=live)
        if pad_inside and live >= 3:
            row[live // 2] = 0
    return indices


def _mixed(gen, n: int, length: int) -> list[int]:
    """n record lengths of 1 to about a tenth of length, as held-out news records are."""
    return gen.integers(1, length // 10 + 3, size=n).tolist()


# name -> (batch size or None for the scale's own, record lengths, pad_inside)
PADDED_BATCHES = {
    "all_pad": (None, lambda gen, n, length: [0] * n, False),
    "one_char_record": (None, lambda gen, n, length: [1] + [0] * (n - 1), False),
    "mixed": (None, _mixed, False),
    "pad_inside_the_text": (None, _mixed, True),
    "full_length_record": (None, lambda gen, n, length: [length, *_mixed(gen, n - 1, length)], False),
    "single_record": (1, lambda gen, n, length: [length // 8], False),
    "single_one_char_record": (1, lambda gen, n, length: [1], False),
}


def _with_drawn_biases(model):
    """model with biases drawn from uniform(-0.1, 0.1): the zero biases of a
    build leave every conv output over an all-zero PAD tail at zero, where
    the ReLUs pass no gradient, so the tail would take none."""
    gen = np.random.default_rng(len(model.values))
    for p in model.parameters():
        if p.name.endswith(".b"):
            p.value[...] = gen.uniform(-0.1, 0.1, size=p.value.shape)
    return model


@pytest.fixture(scope="module")
def char_models() -> dict:
    """One tiny and one full-scale char model with drawn biases, and the
    batch size at which each model's conv GEMMs have whole tiles of
    columns, so that an inference forward may run on the live prefix."""
    return {"tiny": (_with_drawn_biases(CharCnn(tiny_char_config(), seed=9)), 64),
            "full": (_with_drawn_biases(CharCnn(CharCnnConfig(alphabet_size=70), seed=9)), 32)}


def _embedding_widths(model, monkeypatch) -> list[int]:
    """From now on, the input width of each of the model's embedding forwards."""
    widths = []
    forward = model.embedding.forward
    monkeypatch.setattr(model.embedding, "forward", lambda x, ctx: (widths.append(x.shape[1]), forward(x, ctx))[1])
    return widths


def _inference_logits(model, indices, monkeypatch) -> tuple[np.ndarray, int]:
    """The INFER logits and the input width the embedding saw."""
    widths = _embedding_widths(model, monkeypatch)
    logits = model.forward_logits(indices, INFER)[0]
    monkeypatch.undo()
    return logits, widths[0]


class TestLivePrefix:
    """Char inference runs the conv stack on the batch's live prefix alone;
    its logits must stay bit-identical to the full cache-keeping forward's."""

    @pytest.mark.parametrize("case", PADDED_BATCHES.keys())
    @pytest.mark.parametrize("scale", ["tiny", "full"])
    def test_padded_inference_logits_are_the_eval_logits(self, char_models, monkeypatch, scale, case):
        model, tiled = char_models[scale]
        n, lengths, pad_inside = PADDED_BATCHES[case]
        gen = np.random.default_rng(len(case))
        length = model.config.length
        indices = _padded(gen, model.config.alphabet_size, length, lengths(gen, n or tiled, length), pad_inside)
        want = model.forward_logits(indices, PassContext())[0]
        got, width = _inference_logits(model, indices, monkeypatch)
        assert got.tobytes() == want.tobytes()
        # one record's GEMMs have a partial tile of columns, and a full-length record leaves no PAD tail
        assert (width < length) == (n is None and case != "full_length_record")

    @pytest.mark.parametrize("variant", ["one_hot", "non_zero_pad_row"])
    @pytest.mark.parametrize("scale", ["tiny", "full"])
    def test_variant_models(self, monkeypatch, scale, variant):
        config, n = (tiny_char_config(), 64) if scale == "tiny" else (CharCnnConfig(alphabet_size=70), 32)
        if variant == "one_hot":
            config = replace(config, embed_dim=config.alphabet_size, one_hot=True)
        model = CharCnn(config, seed=11)
        gen = np.random.default_rng(11)
        if variant == "non_zero_pad_row":
            model.embedding.param.value[0] = gen.uniform(-1.0, 1.0, size=config.embed_dim)
        indices = _padded(gen, config.alphabet_size, config.length, _mixed(gen, n, config.length))
        want = model.forward_logits(indices, PassContext())[0]
        got, width = _inference_logits(model, indices, monkeypatch)
        assert got.tobytes() == want.tobytes() and width < config.length

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ragged_batches(self, char_models, monkeypatch, n):
        # batches whose conv GEMMs end in a partial tile walk the full input:
        # that tile's kernel can round the same column differently
        model, _ = char_models["tiny"]
        gen = np.random.default_rng(n)
        length = model.config.length
        for _ in range(8):
            indices = _padded(gen, model.config.alphabet_size, length, gen.integers(0, length // 2, size=n))
            want = model.forward_logits(indices, PassContext())[0]
            assert _inference_logits(model, indices, monkeypatch)[0].tobytes() == want.tobytes()

    def test_traced_forwards_walk_the_full_input(self, char_models, monkeypatch):
        model, tiled = char_models["tiny"]
        indices = np.zeros((tiled, model.config.length), dtype=np.int64)
        ctx = PassContext(backward_follows=False, trace=[])
        model.forward_logits(indices, ctx)
        assert [(name, shape[1:]) for name, shape in ctx.trace] == shape_trace(model)
        assert ctx.trace[0] == ("embedding", (tiled, 8, 32))
        widths = _embedding_widths(model, monkeypatch)
        model.forward_logits(indices, PassContext(trace=[]))
        model.forward_logits(indices, PassContext(backward_follows=False, trace=[]))
        assert widths == [32, 32]

    def test_training_forward_walks_the_prefix(self, char_models, monkeypatch):
        model, tiled = char_models["tiny"]
        indices = np.zeros((tiled, model.config.length), dtype=np.int64)
        widths = _embedding_widths(model, monkeypatch)
        model.forward_logits(indices, PassContext())
        model.forward_logits(indices, INFER)
        assert widths == [22, 22]  # the all-PAD prefix of the tiny stack, as inference takes it

    def test_word_inference_walks_the_full_input(self, monkeypatch):
        # the word model's seq opens with its branches, so no layer is position-local
        model = build_word_cnn(tiny_word_config(), seed=9)
        indices = _padded(np.random.default_rng(0), 50, 16, [3] * 64)
        want = model.forward_logits(indices, PassContext())[0]
        got, width = _inference_logits(model, indices, monkeypatch)
        assert got.tobytes() == want.tobytes() and width == 16


def _training_pass(model, indices, monkeypatch, trace: bool):
    """One training pass with a backward over indices, traced (which walks
    the full input) or not: the per-example loss bytes, a copy of each
    parameter's gradient, the input width the embedding saw and the
    gradient its backward was given."""
    n = len(indices)
    labels = np.arange(n) % 4
    seen = {}
    forward, backward = model.embedding.forward, model.embedding.backward
    monkeypatch.setattr(model.embedding, "forward", lambda x, ctx: (seen.setdefault("width", x.shape[1]), forward(x, ctx))[1])
    monkeypatch.setattr(model.embedding, "backward",
                        lambda cache, grad: (seen.setdefault("grad", grad.copy()), backward(cache, grad))[1])
    ctx = PassContext(rngs=[np.random.default_rng([5, j]) for j in range(n)], trace=[] if trace else None)
    logits, caches = model.forward_logits(indices, ctx)
    losses, probs = ops.softmax_cross_entropy(logits, labels)
    model.backward_from_logits(caches, ops.softmax_cross_entropy_backward(probs, labels) / n)
    monkeypatch.undo()
    assert caches == []
    return losses.tobytes(), {p.name: p.grad.copy() for p in model.parameters()}, seen["width"], seen["grad"]


def _assert_within_1e12(got: np.ndarray, want: np.ndarray, name: str) -> None:
    """got agrees with want to within 1e-12 of want's largest magnitude."""
    assert got.shape == want.shape, name
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0), name


def _assert_training_pass_is_the_full_walk(model, indices, monkeypatch, prefix: bool) -> None:
    """The untraced training pass gives the traced full walk's loss bytes,
    and the same bytes again when repeated. When it walks the full input,
    every parameter gradient and the gradient the embedding is given are
    the full walk's bytes. When it takes the live prefix (prefix), each
    parameter gradient agrees with the full walk's to within 1e-12 of its
    largest entry, the same numbers summed in another order, and the
    embedding is given the gradient of the positions up to the first of the
    PAD tail, whose column holds the tail's sum."""
    length = model.config.length
    want_loss, want_grads, want_width, want_grad_in = _training_pass(model, indices, monkeypatch, trace=True)
    loss, grads, width, grad_in = _training_pass(model, indices, monkeypatch, trace=False)
    again = _training_pass(model, indices, monkeypatch, trace=False)
    assert want_width == length and (width < length) == prefix
    assert loss == want_loss == again[0]
    assert grads.keys() == want_grads.keys()
    for name in want_grads:
        assert grads[name].tobytes() == again[1][name].tobytes(), name
        if prefix:
            _assert_within_1e12(grads[name], want_grads[name], name)
        else:
            assert grads[name].tobytes() == want_grads[name].tobytes(), name
    if not prefix:
        assert grad_in.tobytes() == want_grad_in.tobytes()
        return
    tail = grad_in.shape[2] - 1
    live = np.flatnonzero(indices.any(axis=0))
    assert tail == (live[-1] + 1 if live.size else 0)
    _assert_within_1e12(grad_in, ops.tail_sum(want_grad_in, tail), "embedding input")


class TestPrefixTraining:
    """A training forward runs the conv stack on the live prefix, and its
    backward runs those layers on the prefix, each given its output
    gradient up to the output's first tail column, which holds the tail's
    sum. The loss stays the full walk's bytes and every gradient agrees
    with the full walk's to within 1e-12; a batch that walks the full input
    keeps the full walk's bytes."""

    @pytest.mark.parametrize("case", ["all_pad", "mixed", "pad_inside_the_text", "full_length_record", "long_record"])
    @pytest.mark.parametrize("scale", ["tiny", "full"])
    def test_padded_batches(self, char_models, monkeypatch, scale, case):
        model, tiled = char_models[scale]
        length = model.config.length
        gen = np.random.default_rng(len(case))
        if case == "long_record":  # one record of 200 characters at full scale
            lengths, pad_inside = [200 if scale == "full" else 4, *_mixed(gen, tiled - 1, length)], False
        else:
            _, lengths, pad_inside = PADDED_BATCHES[case]
            lengths = lengths(gen, tiled, length)
        indices = _padded(gen, model.config.alphabet_size, length, lengths, pad_inside)
        _assert_training_pass_is_the_full_walk(model, indices, monkeypatch, prefix=case != "full_length_record")

    @pytest.mark.parametrize("variant", ["one_hot", "non_zero_pad_row"])
    @pytest.mark.parametrize("scale", ["tiny", "full"])
    def test_variant_models(self, monkeypatch, scale, variant):
        config, n = (tiny_char_config(), 64) if scale == "tiny" else (CharCnnConfig(alphabet_size=70), 32)
        if variant == "one_hot":
            config = replace(config, embed_dim=config.alphabet_size, one_hot=True)
        model = _with_drawn_biases(CharCnn(config, seed=11))
        gen = np.random.default_rng(11)
        if variant == "non_zero_pad_row":
            model.embedding.param.value[0] = gen.uniform(-1.0, 1.0, size=config.embed_dim)
        indices = _padded(gen, config.alphabet_size, config.length, _mixed(gen, n, config.length))
        _assert_training_pass_is_the_full_walk(model, indices, monkeypatch, prefix=True)

    @pytest.mark.parametrize("n", [*range(1, 9), 33])
    def test_ragged_batches_walk_the_full_input(self, char_models, monkeypatch, n):
        # their conv GEMMs end in a partial tile of columns
        model, _ = char_models["tiny"]
        gen = np.random.default_rng(n)
        length = model.config.length
        indices = _padded(gen, model.config.alphabet_size, length, gen.integers(0, length // 2, size=n))
        _assert_training_pass_is_the_full_walk(model, indices, monkeypatch, prefix=False)

    def test_unpadded_batch_walks_the_full_input(self, char_models, monkeypatch):
        model, tiled = char_models["tiny"]
        gen = np.random.default_rng(4)
        length = model.config.length
        indices = _padded(gen, model.config.alphabet_size, length, [length] * tiled)
        _assert_training_pass_is_the_full_walk(model, indices, monkeypatch, prefix=False)


class TestBatchLoss:
    def _examples(self, n, length=16, vocab=50, seed=0):
        gen = np.random.default_rng(seed)
        return [
            EncodedExample(gen.integers(1, vocab, size=length, dtype=np.int64), int(gen.integers(0, 4)))
            for _ in range(n)
        ]

    def test_mean_of_singletons(self):
        model = build_word_cnn(tiny_word_config(), seed=5)
        examples = self._examples(3)
        whole = batch_loss(model, examples)
        singles = [batch_loss(model, [e]) for e in examples]
        assert abs(whole - sum(singles) / 3) < 1e-12

    def test_accumulated_grad_is_mean_gradient(self):
        model = build_word_cnn(tiny_word_config(), seed=6)
        examples = self._examples(4, seed=1)
        batch_loss(model, examples, accumulate=True)
        batched = {p.name: p.grad.copy() for p in model.parameters()}
        for p in model.parameters():
            p.zero_grad()
        summed = {p.name: np.zeros_like(p.grad) for p in model.parameters()}
        for e in examples:
            batch_loss(model, [e], accumulate=True)
            for p in model.parameters():
                summed[p.name] += p.grad / 4.0
                p.zero_grad()
        for name in batched:
            np.testing.assert_allclose(batched[name], summed[name], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("kind", ["word", "char"])
    @pytest.mark.parametrize("training", [False, True])
    def test_batch_gradient_equals_singletons(self, kind, training):
        # One batch of B and B batches of one give the same mean gradient,
        # dropout included: example j draws from its own generator either way.
        model = build_word_cnn(tiny_word_config(), seed=8) if kind == "word" else CharCnn(tiny_char_config(), seed=8)
        examples = make_gradcheck_examples(model, count=5, seed=8)
        gens = lambda: [np.random.default_rng([8, j]) for j in range(5)]  # noqa: E731
        whole = batch_loss(model, examples, training=training, dropout_rngs=gens(), accumulate=True)
        batched = [p.grad.copy() for p in model.parameters()]
        summed = [np.zeros_like(p.grad) for p in model.parameters()]
        singles = 0.0
        for e, gen in zip(examples, gens()):
            singles += batch_loss(model, [e], training=training, dropout_rngs=[gen], accumulate=True) / 5
            for p, total in zip(model.parameters(), summed):
                total += p.grad  # each backward writes its own gradient; the sum is ours to keep
        for p, total, want in zip(model.parameters(), summed, batched):
            assert np.abs(total / 5 - want).max() <= 1e-12, p.name
        assert abs(whole - singles) <= 1e-12

    @pytest.mark.parametrize("kind", ["word", "char"])
    def test_loss_only_pass_keeps_no_caches(self, kind):
        model = build_word_cnn(tiny_word_config(), seed=13) if kind == "word" else CharCnn(tiny_char_config(), seed=13)
        examples = make_gradcheck_examples(model, count=3, seed=13)
        forward, follows = model.forward_logits, []

        def recorded(indices, ctx):
            follows.append(ctx.backward_follows)
            return forward(indices, ctx)

        model.forward_logits = recorded
        loss_only = batch_loss(model, examples)
        with_backward = batch_loss(model, examples, accumulate=True)
        assert follows == [False, True]
        assert loss_only.hex() == with_backward.hex()

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_training_needs_generators_whatever_the_rate(self, rate):
        from quadcode.errors import QuadcodeError

        model = build_word_cnn(replace(tiny_word_config(), dropout=rate), seed=0)
        examples = make_gradcheck_examples(model, count=2, seed=0)
        with pytest.raises(QuadcodeError, match="^training-mode dropout needs one random generator per example$"):
            batch_loss(model, examples, training=True, accumulate=True)

    def test_empty_batch_rejected(self):
        from quadcode.errors import QuadcodeError

        model = build_word_cnn(tiny_word_config(), seed=0)
        with pytest.raises(QuadcodeError):
            batch_loss(model, [])

    @pytest.mark.parametrize("kind", ["word", "char"])
    def test_backward_leaves_only_the_last_batch_gradient(self, kind):
        def build():
            return build_word_cnn(tiny_word_config(), seed=4) if kind == "word" else CharCnn(tiny_char_config(), seed=4)

        model, fresh = build(), build()
        examples = make_gradcheck_examples(model, count=4, seed=4)
        batch_loss(model, examples[:2], accumulate=True)
        batch_loss(model, examples[2:], accumulate=True)
        batch_loss(fresh, examples[2:], accumulate=True)
        for p, q in zip(model.parameters(), fresh.parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), p.name

    def test_pad_embedding_row_gets_no_gradient(self):
        model = build_word_cnn(tiny_word_config(), seed=7)
        indices = np.zeros(16, dtype=np.int64)  # all PAD
        indices[:4] = 5
        batch_loss(model, [EncodedExample(indices, 1)], accumulate=True)
        embed = next(p for p in model.parameters() if p.name == "embedding")
        assert (embed.grad[0] == 0.0).all()
        assert np.abs(embed.grad[5]).max() > 0.0


def _array_refs(cache) -> list:
    """Weak references to the arrays a layer cache holds."""
    parts = cache if isinstance(cache, tuple) else (cache,)
    return [weakref.ref(part) for part in parts if isinstance(part, np.ndarray)]


def _leaf_caches(layers, caches) -> list:
    """(layer, cache) for each layer of a walk, inside Branches too, in forward order."""
    pairs = []
    for (_, layer), cache in zip(layers, caches):
        if isinstance(layer, Branches):
            for branch, branch_caches in zip(layer.branches, cache[0]):
                pairs += _leaf_caches(branch, branch_caches)
        else:
            pairs.append((layer, cache))
    return pairs


class TestTrainingCaches:
    """A training forward keeps the least its backward reads, and the
    backward drops each layer's cache as soon as that layer is done."""

    @pytest.mark.parametrize("kind", ["word", "char"])
    def test_each_cache_dies_once_its_backward_has_run(self, kind):
        model = build_word_cnn(tiny_word_config(), seed=11) if kind == "word" else CharCnn(tiny_char_config(), seed=11)
        examples = make_gradcheck_examples(model, count=3, seed=11)
        indices = np.stack([e.indices for e in examples])
        conv_outputs = []

        def record(conv):
            forward = conv.forward

            def recorded(x, ctx):
                y, cache = forward(x, ctx)
                gemm = y.base
                conv_outputs.append(gemm is not None and gemm.shape == (y.shape[1], y.shape[0] * y.shape[2]))
                return y, cache

            conv.forward = recorded

        # the walks that start with a conv: the word model's three branches, the char model's seq
        walks = model.seq[0][1].branches if kind == "word" else [model.seq]
        for walk in walks:
            record(walk[0][1])
        ctx = PassContext(rngs=[np.random.default_rng([11, j]) for j in range(3)])
        logits, caches = model.forward_logits(indices, ctx)
        assert conv_outputs and all(conv_outputs)  # a view of the GEMM output, never a copy

        layers = [("embedding", model.embedding), *model.seq]
        masks = [cache.dtype for layer, cache in _leaf_caches(layers, caches) if isinstance(layer, ReLU)]
        offsets = [cache[0].dtype for layer, cache in _leaf_caches(layers, caches) if isinstance(layer, MaxPool1d)]
        assert masks and set(masks) == {np.dtype(bool)}
        assert offsets and set(offsets) == {np.dtype(np.uint8)}

        # each walk's first layer is a conv: when its backward starts, every
        # later layer of the walk (and, for the word model, the head) is done
        if kind == "word":
            branch_caches = caches[1][0]
            head_refs = [ref for cache in caches[2:] for ref in _array_refs(cache)]
            laters = [head_refs + [ref for cache in cache_list[1:] for ref in _array_refs(cache)]
                      for cache_list in branch_caches]
        else:
            branch_caches = []
            laters = [[ref for cache in caches[2:] for ref in _array_refs(cache)]]
        alive = []
        for walk, later in zip(walks, laters):
            assert later
            conv = walk[0][1]

            def checked(cache, grad, backward=conv.backward, later=later):
                alive.append(sum(ref() is not None for ref in later))
                return backward(cache, grad)

            conv.backward = checked
        model.backward_from_logits(caches, np.ones_like(logits))
        assert alive == [0] * len(walks)
        assert caches == [] and all(cache_list == [] for cache_list in branch_caches)

    @pytest.mark.parametrize("kind, limit_mib", [("word", 30), ("char", 120)])
    def test_full_scale_training_step_activation_peak(self, kind, limit_mib):
        # The parameters, their gradients and Adam's moments exist before
        # the step; what the step's forward and backward hold on top of them
        # is its activation memory. The traced counts repeat exactly.
        if kind == "word":
            model, size = build_word_cnn(WordCnnConfig(vocab_size=20000), seed=12), 20000
        else:
            model, size = CharCnn(CharCnnConfig(alphabet_size=70), seed=12), 70
        optimizer = Adam(model.parameters())
        gen = np.random.default_rng(12)
        examples = [EncodedExample(gen.integers(1, size, size=model.config.length, dtype=np.int64), int(gen.integers(0, 4)))
                    for _ in range(32)]
        gens = [rng.stream(12, rng.DROPOUT, 0, j) for j in range(32)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batch_loss(model, examples, training=True, dropout_rngs=gens, accumulate=True)
            optimizer.step()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20, f"{peak / 2**20:.1f} MiB"


class TestBuildDeterminism:
    def test_same_seed_same_weights(self):
        a = build_word_cnn(tiny_word_config(), seed=9)
        b = build_word_cnn(tiny_word_config(), seed=9)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert (pa.value == pb.value).all()

    def test_different_seed_different_weights(self):
        a = build_word_cnn(tiny_word_config(), seed=9)
        b = build_word_cnn(tiny_word_config(), seed=10)
        assert any((pa.value != pb.value).any() for pa, pb in zip(a.parameters(), b.parameters()))

    @pytest.mark.parametrize("scale", ["tiny", "full"])
    @pytest.mark.parametrize("kind", ["word", "char"])
    def test_init_is_drawn_as_gen_uniform_draws_it(self, monkeypatch, kind, scale):
        # a build draws each init straight into its Storage view: the bits
        # gen.uniform(low, high, size) gives, leaving each stream where it would
        configs = {"word": (tiny_word_config(), WordCnnConfig(vocab_size=20000)),
                   "char": (tiny_char_config(), CharCnnConfig(alphabet_size=70))}
        config = configs[kind][scale == "full"]
        streams, stream = {}, rng.stream
        monkeypatch.setattr(models.rng, "stream", lambda seed, *path: streams.setdefault(path, stream(seed, *path)))
        model = (WordCnn if kind == "word" else CharCnn)(config, seed=3)
        init, embed = stream(3, rng.INIT), stream(3, rng.EMBED)
        for p in model.parameters():
            if p.name == "embedding":
                want = embed.uniform(-0.25, 0.25, size=p.value.shape)
                want[0] = 0.0
            elif p.name.endswith(".w"):
                fan_in, fan_out = (p.value[0].size, p.value.shape[0] * p.value.shape[-1]) if p.value.ndim == 3 else p.value.shape[::-1]
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                want = init.uniform(-limit, limit, size=p.value.shape)
            else:
                want = np.zeros(p.value.shape)
            assert p.value.tobytes() == want.tobytes(), p.name
        assert streams[(rng.INIT,)].random(4).tobytes() == init.random(4).tobytes()
        assert streams[(rng.EMBED,)].random(4).tobytes() == embed.random(4).tobytes()

    def test_pad_row_zero_at_init(self):
        for model in (build_word_cnn(tiny_word_config(), seed=0), CharCnn(tiny_char_config(), seed=0)):
            embed = next(p for p in model.parameters() if p.name == "embedding")
            assert (embed.value[0] == 0.0).all()

    def test_embedding_init_range(self):
        for model in (build_word_cnn(tiny_word_config(), seed=7), CharCnn(tiny_char_config(), seed=7)):
            body = next(p for p in model.parameters() if p.name == "embedding").value[1:]
            assert (body > -0.25).all() and (body < 0.25).all()
            assert np.abs(body).max() > 0.01  # actually random, not zeros

    def test_pretrained_embeddings_installed(self, tmp_path):
        vocab = build_vocab([SentenceRecord(id="a", lang="en", text="alpha beta")])
        config = replace(tiny_word_config(), vocab_size=vocab.size)
        model = build_word_cnn(config, seed=0)
        embed = next(p for p in model.parameters() if p.name == "embedding")
        before = embed.value.copy()
        path = tmp_path / "vecs.txt"
        path.write_text("alpha " + " ".join(["0.125"] * config.embed_dim) + "\n", encoding="utf-8")
        load_embeddings(path, vocab, embed.value)
        covered = np.arange(vocab.size) == vocab.index_of("alpha")
        assert (embed.value[covered] == 0.125).all()
        assert (embed.value[~covered] == before[~covered]).all()
        assert (embed.value[0] == 0.0).all()

    def test_one_hot_char_table_frozen(self):
        config = CharCnnConfig(
            alphabet_size=8, embed_dim=8, length=32,
            convs=(ConvSpec(6, 7, 2), ConvSpec(6, 3), ConvSpec(6, 3), ConvSpec(6, 3, 2)),
            hidden=(16, 16), one_hot=True,
        )
        model = CharCnn(config, seed=0)
        embed = next(p for p in model.parameters() if p.name == "embedding")
        assert embed.frozen
        want = np.eye(8)
        want[0] = 0.0
        assert (embed.value == want).all()


class TestFrozenEmbedding:
    # sha256 of the checkpoint below in format version 2; its parameter and
    # probe bytes are those training wrote when every backward still
    # scattered into the frozen table
    GOLDEN = "eedf75c7c22c1f0a8339614b3519ebdc651e7be243d48f70673c5efe26c102d4"

    def test_one_hot_table_takes_no_gradient(self, tmp_path):
        config = CharCnnConfig(alphabet_size=8, embed_dim=8, length=32,
                               convs=tiny_char_config().convs, hidden=(16, 16), one_hot=True)
        model = CharCnn(config, seed=5)
        embed = model.embedding.param
        adam = Adam(model.parameters(), lr=0.01)
        examples = make_gradcheck_examples(model, count=4, seed=5)
        for step in range(2):
            gens = [np.random.default_rng([step, j]) for j in range(2)]
            batch_loss(model, examples[2 * step : 2 * step + 2], training=True, dropout_rngs=gens, accumulate=True)
            assert not embed.grad.any()
            adam.step()
            assert not embed.grad.any()
        path = tmp_path / "one_hot.ckpt"
        save_checkpoint(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN


def _assert_laid_out(model) -> None:
    """Every value and gradient a view into the model's one value array and
    one gradient array, back to back in parameters() order."""
    assert model.values.shape == model.grads.shape == (implied_param_count(model.config),)
    assert model.values.dtype == model.grads.dtype == np.float64
    start = 0
    for p in model.parameters():
        for array, flat in ((p.value, model.values), (p.grad, model.grads)):
            assert array.flags.c_contiguous and array.flags.writeable
            assert array.ctypes.data == flat.ctypes.data + 8 * start and np.shares_memory(array, flat)
        start += p.size
    assert start == model.values.size


_ONE_HOT = CharCnnConfig(alphabet_size=8, embed_dim=8, length=32, convs=tiny_char_config().convs,
                         hidden=(16, 16), one_hot=True)


class TestParameterLayout:
    @pytest.mark.parametrize("kind", ["word", "char"])
    def test_built_and_loaded_parameters_are_views_of_the_model_arrays(self, tmp_path, kind):
        model = build_word_cnn(tiny_word_config(), seed=3) if kind == "word" else CharCnn(tiny_char_config(), seed=3)
        _assert_laid_out(model)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path).model
        _assert_laid_out(loaded)
        assert loaded.values.tobytes() == model.values.tobytes()

    def test_skeleton_is_laid_out_over_zeros(self):
        for model in (WordCnn(tiny_word_config(), seed=None), CharCnn(_ONE_HOT, seed=None)):
            _assert_laid_out(model)
            assert not model.values.any()

    def test_loaded_values_are_the_file_block(self, tmp_path, monkeypatch):
        buffers = []
        read = models._read_aligned
        monkeypatch.setattr(models, "_read_aligned", lambda p: buffers.append(read(p)) or buffers[-1])
        one_hot = CharCnn(_ONE_HOT, seed=3)
        frozen = build_word_cnn(replace(tiny_word_config(), embeddings_trainable=False), seed=3)
        # a PAD row and a one-hot table that no build writes: a load that re-zeroed the PAD row or
        # wrote the identity again would change the block
        one_hot.embedding.param.value[...] *= 2.0
        for model in (one_hot, frozen):
            model.embedding.param.value[0] = 0.5
        for model in (CharCnn(tiny_char_config(), seed=3), one_hot, frozen):
            path = tmp_path / "model.ckpt"
            save_checkpoint(model, path)
            loaded = load_checkpoint(path).model
            assert np.shares_memory(loaded.values, buffers[-1])
            data = path.read_bytes()
            start = 16 + struct.unpack_from("<Q", data, 8)[0]
            assert data[start : start + loaded.values.nbytes] == loaded.values.tobytes()
            assert buffers[-1].tobytes() == data and loaded.values.tobytes() == model.values.tobytes()

    @pytest.mark.parametrize("kind", ["word", "char"])
    def test_full_scale_build_and_load_allocation_peak(self, tmp_path, kind):
        # A build allocates the model's two-row block and one init draw at a time, a load the
        # file's bytes and the block. tracemalloc counts every byte allocated, zero pages never
        # written (a loaded model's value row) included, so these bound allocations, not RSS.
        config = WordCnnConfig(vocab_size=20000) if kind == "word" else CharCnnConfig(alphabet_size=70)
        block, slack = 2 * 8 * implied_param_count(config), 16 * 2**20
        tracemalloc.start()
        try:
            model = (WordCnn if kind == "word" else CharCnn)(config, seed=12)
            build_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(p.value.nbytes for p in model.parameters())
        assert build_peak <= block + largest + slack, f"{build_peak / 2**20:.1f} MiB"
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        del model
        tracemalloc.start()
        try:
            load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert load_peak <= path.stat().st_size + block + slack, f"{load_peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("make", [lambda ps: Sgd(ps, lr=0.1, momentum=0.9), lambda ps: Adam(ps, lr=0.01)],
                             ids=["sgd", "adam"])
    @pytest.mark.parametrize("kind", ["one_hot_char", "frozen_word"])
    def test_frozen_embedding_untouched(self, make, kind):
        if kind == "one_hot_char":
            model = CharCnn(_ONE_HOT, seed=5)
        else:
            model = build_word_cnn(replace(tiny_word_config(), embeddings_trainable=False), seed=5)
        embed = model.embedding.param
        embed.grad.reshape(-1)[1] = np.nan  # a frozen gradient is neither read nor written
        value, grad, rest = embed.value.tobytes(), embed.grad.tobytes(), model.values[embed.size :].copy()
        opt = make(model.parameters())
        examples = make_gradcheck_examples(model, count=2, seed=5)
        for _ in range(2):
            batch_loss(model, examples, accumulate=True)
            opt.step()
        assert embed.value.tobytes() == value and embed.grad.tobytes() == grad
        assert (model.values[embed.size :] != rest).any()

    @pytest.mark.parametrize("make", [lambda ps: Sgd(ps, lr=0.1, momentum=0.9), lambda ps: Adam(ps, lr=0.01)],
                             ids=["sgd", "adam"])
    def test_non_finite_gradient_names_its_parameter_and_writes_nothing(self, make):
        # 64 frames a conv put fc1.w past the first slice an update walks (optim._SLICE)
        config = replace(tiny_char_config(), convs=[ConvSpec(64, c.kernel, c.pool) for c in tiny_char_config().convs])
        model = CharCnn(config, seed=4)
        opt = make(model.parameters())
        examples = make_gradcheck_examples(model, count=2, seed=4)
        batch_loss(model, examples, accumulate=True)
        opt.step()  # moves the optimizer state off zero
        batch_loss(model, examples, accumulate=True)
        fc1 = next(p for p in model.parameters() if p.name == "fc1.w")
        assert model.values.ctypes.data + optim._SLICE * 8 < fc1.grad.ctypes.data
        fc1.grad.reshape(-1)[fc1.size // 2] = np.nan

        def state():
            moments = {k: v.tobytes() if isinstance(v, np.ndarray) else v
                       for k, v in vars(opt).items() if not isinstance(v, list)}  # and Adam's t
            return model.values.tobytes(), model.grads.tobytes(), moments

        before = state()
        with pytest.raises(NonFiniteGradientError) as err:
            opt.step()
        assert err.value.name == "fc1.w"
        assert state() == before


class TestCheckpoints:
    def _model_and_path(self, tmp_path, seed=0):
        model = build_word_cnn(tiny_word_config(), seed=seed)
        return model, tmp_path / "model.ckpt"

    def test_round_trip_bit_exact(self, tmp_path):
        model, path = self._model_and_path(tmp_path)
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for pa, pb in zip(model.parameters(), loaded.model.parameters()):
            assert pa.name == pb.name
            assert (pa.value == pb.value).all()  # zero ulps apart

    def test_round_trip_same_predictions(self, tmp_path):
        model, path = self._model_and_path(tmp_path, seed=3)
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        gen = np.random.default_rng(5)
        for _ in range(10):
            indices = gen.integers(0, 50, size=16, dtype=np.int64)
            ca, pa = predict(model, indices)
            cb, pb = predict(loaded.model, indices)
            assert ca == cb and (pa == pb).all()

    def test_encoder_and_metadata_round_trip(self, tmp_path):
        records = [SentenceRecord(id="a", lang="en", text="alpha beta gamma")]
        encoder = WordEncoder(build_vocab(records), 16)
        model = build_word_cnn(replace(tiny_word_config(), vocab_size=encoder.vocab.size), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, encoder=encoder, quad_map_digest="abc123", metadata={"seed": 7})
        loaded = load_checkpoint(path)
        assert loaded.quad_map_digest == "abc123"
        assert loaded.metadata["seed"] == 7
        assert (loaded.encoder.encode("alpha!") == encoder.encode("alpha!")).all()

    def test_save_is_deterministic(self, tmp_path):
        model, _ = self._model_and_path(tmp_path, seed=4)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, first)
        save_checkpoint(model, second)
        assert first.read_bytes() == second.read_bytes()

    def test_char_model_round_trip(self, tmp_path):
        model = CharCnn(tiny_char_config(), seed=2)
        path = tmp_path / "char.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.model.kind == "char"
        for pa, pb in zip(model.parameters(), loaded.model.parameters()):
            assert (pa.value == pb.value).all()

    def test_flipped_byte_detected(self, tmp_path):
        model, path = self._model_and_path(tmp_path)
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=r": integrity digest does not match contents$"):
            load_checkpoint(path)

    def test_truncated_file_detected(self, tmp_path):
        model, path = self._model_and_path(tmp_path)
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_magic_detected(self, tmp_path):
        model, path = self._model_and_path(tmp_path)
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"hi")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    # sha256 of the files _golden_checkpoint writes in format version 2:
    # any drift in layout fails here.
    GOLDEN = {
        "word": "a721c86db7757535cd4ec34d744294b28f937dfbdc54244092e555de448bbae6",
        "char": "a94dd08693807413c79929d71f0ad5f904533e5b5f01d1dffde39fda4cd84b8f",
    }

    def _golden_checkpoint(self, kind, path):
        records = [SentenceRecord(id="a", lang="en", text="alpha beta gamma beta"),
                   SentenceRecord(id="b", lang="en", text="delta alpha")]
        if kind == "word":
            encoder = WordEncoder(build_vocab(records), 16)
            model = build_word_cnn(replace(tiny_word_config(), vocab_size=encoder.vocab.size), seed=11)
        else:
            alphabet = build_char_alphabet(records)
            encoder = CharEncoder(alphabet, 32)
            model = CharCnn(replace(tiny_char_config(), alphabet_size=alphabet.size), seed=12)
        # Multiples of 1/8 keep every probe sum exact, so the stored logits do
        # not depend on the order in which the BLAS build adds.
        for p in model.parameters():
            p.value[...] = np.round(p.value * 8) / 8
        save_checkpoint(model, path, encoder=encoder, quad_map_digest="ab" * 32,
                        metadata={"seed": 11, "note": "golden"}, probe_seed=13)

    @pytest.mark.parametrize("kind", ["word", "char"])
    def test_format_matches_golden(self, tmp_path, kind):
        path = tmp_path / f"{kind}.ckpt"
        self._golden_checkpoint(kind, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN[kind]
        loaded = load_checkpoint(path)
        assert loaded.model.kind == kind and loaded.sha256 == self.GOLDEN[kind]

    def test_loaded_sha256_is_the_file_digest(self, tmp_path):
        model, path = self._model_and_path(tmp_path, seed=5)
        save_checkpoint(model, path)
        assert load_checkpoint(path).sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_digest_checked_before_header(self, tmp_path):
        model, path = self._model_and_path(tmp_path)
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        assert blob[16:17] == b"{"
        blob[16] ^= 0xFF  # not UTF-8: a header parsed first would fail as unreadable
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=r": integrity digest does not match contents$"):
            load_checkpoint(path)

    def _sealed(self, body: bytes) -> bytes:
        return body + hashlib.sha256(body).digest()

    @pytest.mark.parametrize("build", [WordCnn, CharCnn], ids=["build_word_cnn", "build_char_cnn"])
    def test_loaded_parameters_are_aligned_views_of_one_buffer(self, tmp_path, build):
        model = build(tiny_word_config() if build is WordCnn else tiny_char_config(), seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        params = load_checkpoint(path).model.parameters()
        roots = set()
        for p in params:
            v = p.value
            assert v.dtype == np.float64 and v.flags.c_contiguous and v.flags.writeable and v.flags.aligned
            assert v.ctypes.data % 8 == 0
            while v.base is not None:
                v = v.base
            roots.add(id(v))
        assert len(roots) == 1
        for a, b in zip(params, params[1:]):  # back to back, in declaration order
            assert b.value.ctypes.data == a.value.ctypes.data + a.value.nbytes

    def test_every_header_alignment_loads(self, tmp_path):
        model, path = self._model_and_path(tmp_path, seed=6)
        save_checkpoint(model, path)
        data = path.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        residues = set()
        for pad in range(8):  # JSON allows trailing whitespace after the header object
            raw = data[16 : 16 + header_len] + b" " * pad
            residues.add((16 + len(raw)) % 8)
            path.write_bytes(self._sealed(data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + header_len : -32]))
            loaded = load_checkpoint(path)  # replays the probes
            for pa, pb in zip(model.parameters(), loaded.model.parameters()):
                assert (pa.value == pb.value).all() and pb.value.flags.aligned
        assert residues == set(range(8))

    @pytest.mark.parametrize("delta", [1, -1, 10**6, 2**63])
    def test_wrong_header_length(self, tmp_path, delta):
        model, path = self._model_and_path(tmp_path)
        save_checkpoint(model, path)
        data = path.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        body = data[:8] + struct.pack("<Q", header_len + delta) + data[16:-32]
        path.write_bytes(body + data[-32:])
        with pytest.raises(CheckpointError, match=r": integrity digest does not match contents$"):
            load_checkpoint(path)
        path.write_bytes(self._sealed(body))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "integrity digest" not in str(err.value)

    @pytest.mark.parametrize("sealed", [False, True])
    def test_truncated_inside_parameter_block(self, tmp_path, capsys, sealed):
        model, path = self._model_and_path(tmp_path)
        save_checkpoint(model, path)
        data = path.read_bytes()
        cut = 16 + struct.unpack_from("<Q", data, 8)[0] + 8 * 100 + 3
        path.write_bytes(self._sealed(data[:cut]) if sealed else data[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        infile = tmp_path / "in.jsonl"
        infile.write_text('{"id": "a", "lang": "en", "text": "w2 w3"}\n', encoding="utf-8")
        code = cli.main(["predict", "--checkpoint", str(path), "--in", str(infile), "--out", str(tmp_path / "o.jsonl")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("build", [WordCnn, CharCnn], ids=["build_word_cnn", "build_char_cnn"])
    def test_adam_step_on_loaded_model_saves_like_the_original(self, tmp_path, build):
        model = build(tiny_word_config() if build is WordCnn else tiny_char_config(), seed=8)
        save_checkpoint(model, tmp_path / "start.ckpt")
        loaded = load_checkpoint(tmp_path / "start.ckpt").model
        examples = make_gradcheck_examples(model, count=3, seed=9)
        for m, name in ((model, "original.ckpt"), (loaded, "loaded.ckpt")):
            gens = [np.random.default_rng(j) for j in range(len(examples))]
            batch_loss(m, examples, training=True, dropout_rngs=gens, accumulate=True)
            Adam(m.parameters(), lr=0.01).step()
            save_checkpoint(m, tmp_path / name)
        assert (tmp_path / "loaded.ckpt").read_bytes() == (tmp_path / "original.ckpt").read_bytes()
        assert (tmp_path / "loaded.ckpt").read_bytes() != (tmp_path / "start.ckpt").read_bytes()

    def test_loaded_model_has_zero_grads(self, tmp_path):
        model = CharCnn(tiny_char_config(), seed=2)
        path = tmp_path / "char.ckpt"
        save_checkpoint(model, path)
        for p in load_checkpoint(path).model.parameters():
            assert p.grad.shape == p.value.shape and not p.grad.any()

    @pytest.mark.parametrize("build", [WordCnn, CharCnn], ids=["build_word_cnn", "build_char_cnn"])
    def test_load_draws_no_init(self, tmp_path, monkeypatch, build):
        model = build(tiny_word_config() if build is WordCnn else tiny_char_config(), seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        paths = []
        true_stream = rng.stream
        monkeypatch.setattr(rng, "stream", lambda seed, *path: paths.append(path) or true_stream(seed, *path))
        loaded = load_checkpoint(path)
        assert not [p for p in paths if p[:1] in ((rng.INIT,), (rng.EMBED,))]
        for pa, pb in zip(model.parameters(), loaded.model.parameters()):
            assert (pa.value == pb.value).all()

    @pytest.mark.parametrize(
        "forge",
        [
            lambda h: {**h, "params": [{**h["params"][0], "shape": 5}, *h["params"][1:]]},
            lambda h: [h],
            lambda h: {**h, "probe": {"count": "x"}},
            lambda h: {**h, "probe": {"count": 0}},
            lambda h: {**h, "params": "all"},
            lambda h: {**h, "config": {**h["config"], "vocab_size": 10**12}},
            lambda h: {**h, "config": {**h["config"], "vocab_size": 50.0}},
            lambda h: {**h, "config": {**h["config"], "hidden": "wide"}},
            lambda h: b"[" * 100_000 + b"]" * 100_000,
            lambda h: {**h, "kind": ["word"]},
        ],
        ids=["shape_int", "header_list", "probe_count_str", "probe_count_zero", "params_str",
             "vocab_huge", "vocab_float", "hidden_str", "nested_too_deep", "kind_list"],
    )
    def test_forged_header_with_valid_digest(self, tmp_path, capsys, forge):
        model, path = self._model_and_path(tmp_path)
        save_checkpoint(model, path)
        data = path.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        header = forge(json.loads(data[16 : 16 + header_len]))
        raw = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
        body = data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + header_len : -32]
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        code = cli.main(["eval", "--checkpoint", str(path), "--test", str(tmp_path / "t.jsonl"),
                         "--report", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1

    def test_probe_count_true_is_not_a_count(self, tmp_path, capsys):
        # JSON true parses to a Python bool, which isinstance(..., int) accepts
        model, path = self._model_and_path(tmp_path)
        save_checkpoint(model, path)
        data = path.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16 : 16 + header_len])
        probe_at = len(data) - 32 - header["probe"]["count"] * (model.config.length + model.config.classes) * 8
        probe_in = data[probe_at : probe_at + model.config.length * 8]
        logits = model.forward_logits(np.frombuffer(probe_in, dtype="<i8")[None], INFER)[0]
        first_probe = probe_in + logits.astype("<f8").tobytes()  # a one-row forward, as the load runs it

        def forged(count):
            raw = json.dumps({**header, "probe": {**header["probe"], "count": count}}).encode("utf-8")
            body = data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + header_len : probe_at] + first_probe
            path.write_bytes(self._sealed(body))

        forged(1)
        load_checkpoint(path)  # the same one-probe file with an integer count loads
        forged(True)
        with pytest.raises(CheckpointError, match="bad probe block description"):
            load_checkpoint(path)
        code = cli.main(["eval", "--checkpoint", str(path), "--test", str(tmp_path / "t.jsonl"),
                         "--report", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "forge, field",
        [
            (lambda h: {**h, "metadata": 5}, "metadata"),
            (lambda h: {**h, "metadata": [["seed", 1]]}, "metadata"),
            (lambda h: {**h, "quadmap_digest": [1, 2]}, "quadmap_digest"),
            (lambda h: {**h, "quadmap_digest": 7}, "quadmap_digest"),
        ],
        ids=["metadata_int", "metadata_list", "digest_list", "digest_int"],
    )
    def test_metadata_and_quad_map_digest_types(self, tmp_path, forge, field):
        model, path = self._model_and_path(tmp_path)
        save_checkpoint(model, path, quad_map_digest="ab" * 32, metadata={"seed": 1})
        data = path.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        raw = json.dumps(forge(json.loads(data[16 : 16 + header_len]))).encode("utf-8")
        path.write_bytes(self._sealed(data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + header_len : -32]))
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: header {field} "):
            load_checkpoint(path)

    def test_missing_metadata_and_quad_map_digest_read_as_empty(self, tmp_path):
        model, path = self._model_and_path(tmp_path)
        save_checkpoint(model, path, quad_map_digest="ab" * 32, metadata={"seed": 1})
        data = path.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16 : 16 + header_len])
        del header["metadata"], header["quadmap_digest"]
        raw = json.dumps(header).encode("utf-8")
        path.write_bytes(self._sealed(data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + header_len : -32]))
        loaded = load_checkpoint(path)
        assert loaded.metadata == {} and loaded.quad_map_digest is None

    @pytest.mark.parametrize("kind", ["word", "char"])
    @pytest.mark.parametrize(
        "forge",
        [
            lambda c: {k: v for k, v in c.items() if k != "dropout"},
            lambda c: {**c, "dtype": "float32"},
            lambda c: [c],
        ],
        ids=["missing_key", "extra_key", "config_list"],
    )
    def test_config_keys_must_be_the_config_fields(self, tmp_path, capsys, kind, forge):
        model = build_word_cnn(tiny_word_config(), seed=0) if kind == "word" else CharCnn(tiny_char_config(), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        load_checkpoint(path)  # the honest checkpoint loads
        data = path.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16 : 16 + header_len])
        raw = json.dumps({**header, "config": forge(header["config"])}).encode("utf-8")
        path.write_bytes(self._sealed(data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + header_len : -32]))
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(path)
        infile = tmp_path / "in.jsonl"
        infile.write_text('{"id": "a", "lang": "en", "text": "w2 w3"}\n', encoding="utf-8")
        code = cli.main(["predict", "--checkpoint", str(path), "--in", str(infile), "--out", str(tmp_path / "o.jsonl")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1 and "config" in err

    @pytest.mark.parametrize(
        "kind, forge",
        [
            ("word", lambda e: {"tokens": e["tokens"] + [f"extra{i}" for i in range(32)],
                                "counts": e["counts"] + [1] * 32}),
            ("char", lambda e: {"tokens": e["tokens"][:5], "counts": e["counts"][:5]}),
        ],
        ids=["word_vocab_larger", "char_alphabet_smaller"],
    )
    def test_encoder_that_does_not_fit_the_model(self, tmp_path, capsys, kind, forge):
        path = tmp_path / "model.ckpt"
        if kind == "word":
            encoder = WordEncoder(Vocabulary([f"w{i}" for i in range(2, 50)], [1] * 48), 16)
            save_checkpoint(build_word_cnn(tiny_word_config(), seed=0), path, encoder=encoder)
        else:
            encoder = CharEncoder(Vocabulary([chr(0x61 + i) for i in range(2, 8)], [1] * 6), 32)
            save_checkpoint(CharCnn(tiny_char_config(), seed=0), path, encoder=encoder)
        load_checkpoint(path)  # the honest checkpoint loads
        data = path.read_bytes()
        header_len = struct.unpack_from("<Q", data, 8)[0]
        header = json.loads(data[16 : 16 + header_len])
        raw = json.dumps({**header, "encoder": forge(header["encoder"])}).encode("utf-8")
        body = data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + header_len : -32]
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        infile = tmp_path / "in.jsonl"
        infile.write_text('{"id": "a", "lang": "en", "text": "w2 w3 abc"}\n', encoding="utf-8")
        code = cli.main(["predict", "--checkpoint", str(path), "--in", str(infile), "--out", str(tmp_path / "o.jsonl")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and "does not fit" in err

    @pytest.mark.parametrize(
        "encoder",
        [
            CharEncoder(Vocabulary([chr(0x100 + i) for i in range(48)], [1] * 48), 7),
            WordEncoder(Vocabulary([f"w{i}" for i in range(47)], [1] * 47), 16),
            WordEncoder(Vocabulary([f"w{i}" for i in range(48)], [1] * 48), 17),
        ],
        ids=["char_encoder", "vocab_one_short", "wrong_length"],
    )
    def test_save_refuses_an_encoder_that_does_not_fit(self, tmp_path, encoder):
        model, path = self._model_and_path(tmp_path)  # vocab_size 50, length 16
        with pytest.raises(CheckpointError, match=r"does not fit the word model \(input size 50, length 16\)$"):
            save_checkpoint(model, path, encoder=encoder)
        assert not path.exists()


class TestGradcheckExamples:
    def test_never_contains_pad(self):
        model = build_word_cnn(tiny_word_config(), seed=0)
        for example in make_gradcheck_examples(model, count=8, seed=0):
            assert (example.indices >= 1).all()
            assert (example.indices < 50).all()
            assert 0 <= example.label <= 3

    def test_seeded(self):
        model = build_word_cnn(tiny_word_config(), seed=0)
        a = make_gradcheck_examples(model, count=2, seed=1)
        b = make_gradcheck_examples(model, count=2, seed=1)
        for ea, eb in zip(a, b):
            assert (ea.indices == eb.indices).all() and ea.label == eb.label
