"""Forward ops against hand-computed values, backward ops against finite
differences, batched ops against a per-example oracle, and optimizer update
arithmetic.

numeric_grad below is the oracle for every backward test in this file. It is
deliberately separate from the package's own gradient checker so the two can
disagree if either is wrong. The naive_* functions are the per-example
reference: plain loops over one example at a time, written from the
definitions, that the batch-major ops must match for every batch size.
"""

import tracemalloc

import numpy as np
import pytest

from quadcode.errors import QuadcodeError
from quadcode.tensor_nn import ops
from quadcode.tensor_nn.layers import EVAL, Dense, Parameter, ReLU, glorot_uniform
from quadcode.tensor_nn.optim import Adam, NonFiniteGradientError, Sgd

EPS = 1e-6
ORACLE_TOL = 1e-12


def numeric_grad(f, x, eps=EPS):
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = f(x)
        flat[i] = keep - eps
        down = f(x)
        flat[i] = keep
        out[i] = (up - down) / (2.0 * eps)
    return grad


def assert_close(got, want, tol=1e-7):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


# --- the per-example oracle -----------------------------------------------------


def naive_conv(x, w, b):
    """One example: x (C, L) -> (F, L-K+1), out[f,t] = b[f] + sum x[c,t+k] w[f,c,k]."""
    frames, _, kernel = w.shape
    steps = x.shape[1] - kernel + 1
    y = np.zeros((frames, steps))
    for f in range(frames):
        for t in range(steps):
            y[f, t] = b[f] + np.sum(x[:, t : t + kernel] * w[f])
    return y


def naive_conv_backward(x, w, grad_y):
    frames, _, kernel = w.shape
    grad_x, grad_w = np.zeros_like(x), np.zeros_like(w)
    for f in range(frames):
        for t in range(grad_y.shape[1]):
            grad_w[f] += grad_y[f, t] * x[:, t : t + kernel]
            grad_x[:, t : t + kernel] += grad_y[f, t] * w[f]
    return grad_x, grad_w, grad_y.sum(axis=1)


def naive_maxpool(x, width):
    """One example: (F, L) -> maxima and first-argmax positions of each window."""
    frames, length = x.shape
    steps = length // width
    y, argmax = np.zeros((frames, steps)), np.zeros((frames, steps), dtype=np.int64)
    for f in range(frames):
        for s in range(steps):
            window = list(x[f, s * width : (s + 1) * width])
            argmax[f, s] = s * width + window.index(max(window))
            y[f, s] = max(window)
    return y, argmax


def naive_maxpool_backward(grad_y, argmax, length):
    grad_x = np.zeros((grad_y.shape[0], length))
    for f in range(grad_y.shape[0]):
        for s in range(grad_y.shape[1]):
            grad_x[f, argmax[f, s]] += grad_y[f, s]
    return grad_x


def naive_dense(x, w, b):
    return w @ x + b


def naive_dense_backward(x, w, grad_y):
    return w.T @ grad_y, np.outer(grad_y, x), grad_y


def naive_embedding(table, indices):
    """One example: (L,) indices -> (d, L)."""
    return np.stack([table[i] for i in indices], axis=1)


def naive_embedding_backward(indices, grad_y, table_shape):
    grad = np.zeros(table_shape)
    for t, i in enumerate(indices):
        grad[i] += grad_y[:, t]
    return grad


def naive_softmax_cross_entropy(logits, label):
    shifted = logits - logits.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    probs = np.exp(log_probs)
    grad = probs.copy()
    grad[label] -= 1.0
    return -log_probs[label], probs, grad


@pytest.mark.parametrize("n", [1, 3])
class TestBatchedAgainstPerExample:
    """Every batched op equals the per-example loop, row by row."""

    def test_conv(self, n):
        gen = np.random.default_rng(100 + n)
        x = gen.normal(size=(n, 3, 11))
        w = gen.normal(size=(4, 3, 3))
        b = gen.normal(size=4)
        grad_y = gen.normal(size=(n, 4, 9))
        y = ops.conv1d(x, w, b)
        grad_w, grad_b = np.full_like(w, np.nan), np.full(4, np.nan)  # every entry must be written
        grad_x = ops.conv1d_backward(x, w, grad_y, grad_w, grad_b)
        want_w, want_b = np.zeros_like(w), np.zeros(4)
        for j in range(n):
            assert_close(y[j], naive_conv(x[j], w, b), ORACLE_TOL)
            gx, gw, gb = naive_conv_backward(x[j], w, grad_y[j])
            assert_close(grad_x[j], gx, ORACLE_TOL)
            want_w += gw
            want_b += gb
        assert_close(grad_w, want_w, ORACLE_TOL)
        assert_close(grad_b, want_b, ORACLE_TOL)

    def test_maxpool_with_ties(self, n):
        gen = np.random.default_rng(200 + n)
        # small integers make ties within windows common
        x = gen.integers(0, 3, size=(n, 4, 13)).astype(np.float64)
        grad_y = gen.normal(size=(n, 4, 4))
        y, argmax = ops.maxpool1d_with_argmax(x, 3)
        grad_x = ops.maxpool1d_backward(grad_y, argmax, 13)
        for j in range(n):
            want_y, want_arg = naive_maxpool(x[j], 3)
            assert (y[j] == want_y).all() and (argmax[j] == want_arg).all()
            assert_close(grad_x[j], naive_maxpool_backward(grad_y[j], want_arg, 13), ORACLE_TOL)

    def test_dense(self, n):
        gen = np.random.default_rng(300 + n)
        x = gen.normal(size=(n, 7))
        w = gen.normal(size=(5, 7))
        b = gen.normal(size=5)
        grad_y = gen.normal(size=(n, 5))
        y = ops.dense(x, w, b)
        grad_w, grad_b = np.full_like(w, np.nan), np.full(5, np.nan)  # every entry must be written
        grad_x = ops.dense_backward(x, w, grad_y, grad_w, grad_b)
        want_w, want_b = np.zeros_like(w), np.zeros(5)
        for j in range(n):
            assert_close(y[j], naive_dense(x[j], w, b), ORACLE_TOL)
            gx, gw, gb = naive_dense_backward(x[j], w, grad_y[j])
            assert_close(grad_x[j], gx, ORACLE_TOL)
            want_w += gw
            want_b += gb
        assert_close(grad_w, want_w, ORACLE_TOL)
        assert_close(grad_b, want_b, ORACLE_TOL)

    def test_embedding_repeats_across_examples(self, n):
        gen = np.random.default_rng(400 + n)
        table = gen.normal(size=(6, 3))
        indices = gen.integers(0, 6, size=(n, 8))
        indices[:, 0] = 2  # row 2 repeats within and across examples
        indices[:, 1] = 2
        grad_y = gen.normal(size=(n, 3, 8))
        y = ops.embedding_lookup(table, indices)
        got = np.zeros_like(table)
        ops.embedding_backward(indices, grad_y, got)
        want = np.zeros_like(table)
        for j in range(n):
            assert_close(y[j], naive_embedding(table, indices[j]), ORACLE_TOL)
            want += naive_embedding_backward(indices[j], grad_y[j], table.shape)
        assert_close(got, want, ORACLE_TOL)

    def test_softmax_cross_entropy(self, n):
        gen = np.random.default_rng(500 + n)
        logits = gen.normal(scale=5.0, size=(n, 4))
        labels = gen.integers(0, 4, size=n)
        losses, probs = ops.softmax_cross_entropy(logits, labels)
        grad = ops.softmax_cross_entropy_backward(probs, labels)
        assert losses.shape == (n,)
        for j in range(n):
            loss, p, g = naive_softmax_cross_entropy(logits[j], labels[j])
            assert abs(losses[j] - loss) <= ORACLE_TOL
            assert_close(probs[j], p, ORACLE_TOL)
            assert_close(grad[j], g, ORACLE_TOL)
            assert_close(ops.softmax(logits)[j], p, ORACLE_TOL)

    def test_dropout_rows_follow_their_own_generators(self, n):
        rate = 0.3
        x = np.random.default_rng(600).normal(size=(n, 2, 5))
        y, mask = ops.dropout(x, rate, [np.random.default_rng([7, j]) for j in range(n)], training=True)
        for j in range(n):
            want = (np.random.default_rng([7, j]).random((2, 5)) >= rate) / (1.0 - rate)
            assert (mask[j] == want).all()
            assert (y[j] == x[j] * want).all()


class TestConvForward:
    def test_hand_example(self):
        # x = [1,2,3], w = [1,1]: windows [1,2] and [2,3] -> [3, 5]
        y = ops.conv1d(np.array([[[1.0, 2.0, 3.0]]]), np.array([[[1.0, 1.0]]]), np.zeros(1))
        assert y.tolist() == [[[3.0, 5.0]]]

    def test_kernel_one_with_bias_is_scaled_shift(self):
        x = np.array([[[1.0, -2.0, 4.0]]])
        y = ops.conv1d(x, np.array([[[2.0]]]), np.array([10.0]))
        assert y.tolist() == [[[12.0, 6.0, 18.0]]]

    def test_multi_channel_sums_channels(self):
        x = np.array([[[1.0, 2.0], [10.0, 20.0]]])
        w = np.array([[[1.0], [1.0]]])  # F=1, C=2, K=1
        assert ops.conv1d(x, w, np.zeros(1)).tolist() == [[[11.0, 22.0]]]

    def test_output_length_law(self):
        gen = np.random.default_rng(0)
        y = ops.conv1d(gen.normal(size=(2, 3, 17)), gen.normal(size=(5, 3, 4)), gen.normal(size=5))
        assert y.shape == (2, 5, 14)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ops.ShapeMismatchError):
            ops.conv1d(np.zeros((1, 2, 8)), np.zeros((4, 3, 2)), np.zeros(4))
        with pytest.raises(ops.ShapeMismatchError):
            ops.conv1d(np.zeros((3, 8)), np.zeros((4, 3, 2)), np.zeros(4))  # no batch axis

    def test_too_short_input_rejected(self):
        with pytest.raises(ops.ShapeMismatchError):
            ops.conv1d(np.zeros((1, 1, 2)), np.zeros((1, 1, 3)), np.zeros(1))

    def test_nonfinite_trapped(self):
        x = np.array([[[1.0, np.inf]]])
        with pytest.raises(ops.NonFiniteTensorError):
            ops.conv1d(x, np.ones((1, 1, 1)), np.zeros(1))


class TestConvBackward:
    def test_against_numeric(self):
        gen = np.random.default_rng(1)
        x = gen.normal(size=(2, 3, 11))
        w = gen.normal(size=(4, 3, 3))
        b = gen.normal(size=4)
        proj = gen.normal(size=(2, 4, 9))  # random linear functional of the output

        def loss_x(x_):
            return float((ops.conv1d(x_, w, b) * proj).sum())

        def loss_w(w_):
            return float((ops.conv1d(x, w_, b) * proj).sum())

        def loss_b(b_):
            return float((ops.conv1d(x, w, b_) * proj).sum())

        grad_w, grad_b = np.empty_like(w), np.empty_like(b)
        grad_x = ops.conv1d_backward(x, w, proj, grad_w, grad_b)
        assert_close(grad_x, numeric_grad(loss_x, x), tol=1e-6)
        assert_close(grad_w, numeric_grad(loss_w, w), tol=1e-6)
        assert_close(grad_b, numeric_grad(loss_b, b), tol=1e-6)

    def test_kernel_spans_whole_input(self):
        gen = np.random.default_rng(2)
        x = gen.normal(size=(2, 2, 5))
        w = gen.normal(size=(3, 2, 5))  # single output step
        proj = gen.normal(size=(2, 3, 1))
        grad_x = ops.conv1d_backward(x, w, proj, np.empty_like(w), np.empty(3))
        assert_close(grad_x, numeric_grad(lambda x_: float((ops.conv1d(x_, w, np.zeros(3)) * proj).sum()), x), tol=1e-6)

    def test_grad_shape_guard(self):
        with pytest.raises(ops.ShapeMismatchError):
            ops.conv1d_backward(np.zeros((1, 1, 5)), np.zeros((1, 1, 2)), np.zeros((1, 1, 5)), np.zeros((1, 1, 2)), np.zeros(1))
        with pytest.raises(ops.ShapeMismatchError):
            ops.conv1d_backward(np.zeros((2, 1, 5)), np.zeros((1, 1, 2)), np.zeros((1, 1, 4)), np.zeros((1, 1, 2)), np.zeros(1))

    def test_weight_gradient_buffer_guard(self):
        # a reshape of a strided buffer would copy, and the written gradient would be lost
        x, w, grad_y = np.zeros((1, 2, 5)), np.zeros((3, 2, 2)), np.zeros((1, 3, 4))
        for grad_w in (np.zeros((3, 2, 3)), np.zeros((3, 2, 4))[:, :, ::2]):
            with pytest.raises(ops.ShapeMismatchError):
                ops.conv1d_backward(x, w, grad_y, grad_w, np.zeros(3))


class TestMaxPool:
    def test_hand_example(self):
        y = ops.maxpool1d_with_argmax(np.array([[[1.0, 5.0, 2.0, 4.0]]]), 2)[0]
        assert y.tolist() == [[[5.0, 4.0]]]

    def test_width_one_identity(self):
        x = np.array([[[3.0, -1.0, 2.0]]])
        assert ops.maxpool1d_with_argmax(x, 1)[0].tolist() == x.tolist()

    def test_trailing_remainder_dropped(self):
        y = ops.maxpool1d_with_argmax(np.array([[[1.0, 2.0, 9.0]]]), 2)[0]
        assert y.tolist() == [[[2.0]]]

    def test_tie_routes_to_first(self):
        x = np.array([[[7.0, 7.0]]])
        y, argmax = ops.maxpool1d_with_argmax(x, 2)
        assert y.tolist() == [[[7.0]]] and argmax.tolist() == [[[0]]]
        grad_x = ops.maxpool1d_backward(np.array([[[1.0]]]), argmax, 2)
        assert grad_x.tolist() == [[[1.0, 0.0]]]

    def test_backward_against_numeric_tie_free(self):
        gen = np.random.default_rng(3)
        # well-separated values so no window has a near-tie
        x = gen.permutation(48).astype(np.float64).reshape(2, 2, 12)
        proj = gen.normal(size=(2, 2, 4))

        def loss(x_):
            return float((ops.maxpool1d_with_argmax(x_, 3)[0] * proj).sum())

        _, argmax = ops.maxpool1d_with_argmax(x, 3)
        grad_x = ops.maxpool1d_backward(proj, argmax, 12)
        assert_close(grad_x, numeric_grad(loss, x), tol=1e-6)

    def test_too_narrow_rejected(self):
        with pytest.raises(ops.ShapeMismatchError):
            ops.maxpool1d_with_argmax(np.zeros((1, 1, 2)), 3)

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 31])
    def test_ties_at_every_width_match_oracle(self, width):
        gen = np.random.default_rng(width)
        x = gen.integers(-1, 2, size=(2, 3, 2 * width + 1)).astype(np.float64)
        y, argmax = ops.maxpool1d_with_argmax(x, width)
        for j in range(2):
            want_y, want_arg = naive_maxpool(x[j], width)
            assert (y[j] == want_y).all() and (argmax[j] == want_arg).all()

    def test_signed_zero_tie_routes_to_first(self):
        _, argmax = ops.maxpool1d_with_argmax(np.array([[[-1.0, -0.0, 0.0, -0.0, 0.0, 0.0]]]), 3)
        assert argmax.tolist() == [[[1, 3]]]

    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_nan_anywhere_in_window_trapped(self, pos):
        x = np.zeros((1, 1, 3))
        x[0, 0, pos] = np.nan
        with pytest.raises(ops.NonFiniteTensorError):
            ops.maxpool1d_with_argmax(x, 3)


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, 2.0]])
        assert ops.dense(x, np.eye(2), np.zeros(2)).tolist() == [[1.0, 2.0]]

    def test_hand_example(self):
        w = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, 0.0]])
        y = ops.dense(np.array([[10.0, 1.0], [0.0, 2.0]]), w, np.array([0.5, 0.0, 0.0]))
        assert y.tolist() == [[12.5, 1.0, 30.0], [4.5, 2.0, 0.0]]

    def test_backward_against_numeric(self):
        gen = np.random.default_rng(4)
        x = gen.normal(size=(3, 7))
        w = gen.normal(size=(5, 7))
        b = gen.normal(size=5)
        proj = gen.normal(size=(3, 5))

        def loss(x_, w_, b_):
            return float((ops.dense(x_, w_, b_) * proj).sum())

        grad_w, grad_b = np.empty_like(w), np.empty_like(b)
        grad_x = ops.dense_backward(x, w, proj, grad_w, grad_b)
        assert_close(grad_x, numeric_grad(lambda x_: loss(x_, w, b), x), tol=1e-6)
        assert_close(grad_w, numeric_grad(lambda w_: loss(x, w_, b), w), tol=1e-6)
        assert_close(grad_b, numeric_grad(lambda b_: loss(x, w, b_), b), tol=1e-6)

    def test_shape_guard(self):
        with pytest.raises(ops.ShapeMismatchError):
            ops.dense(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(ops.ShapeMismatchError):
            ops.dense(np.zeros(4), np.zeros((2, 4)), np.zeros(2))  # no batch axis
        with pytest.raises(ops.ShapeMismatchError):
            ops.dense_backward(np.zeros((3, 4)), np.zeros((2, 4)), np.zeros((1, 2)), np.zeros((2, 4)), np.zeros(2))


class TestReluDropout:
    def test_relu_values(self):
        assert ops.relu(np.array([[-1.0, 2.0]])).tolist() == [[0.0, 2.0]]
        assert ops.relu(np.array([[0.0]])).tolist() == [[0.0]]

    def test_relu_backward_gates_on_input(self):
        x = np.array([[-1.0, 2.0, 0.0]])
        g = ops.relu_backward(x, np.array([[5.0, 5.0, 5.0]]))
        assert g.tolist() == [[0.0, 5.0, 0.0]]

    def test_relu_backward_against_numeric(self):
        gen = np.random.default_rng(5)
        x = gen.normal(size=(2, 9)) + 0.05  # nudge away from the kink
        proj = gen.normal(size=(2, 9))
        assert_close(
            ops.relu_backward(x, proj),
            numeric_grad(lambda x_: float((ops.relu(x_) * proj).sum()), x),
            tol=1e-6,
        )

    def test_dropout_off_is_identity(self):
        x = np.array([[1.0, 2.0, 3.0]])
        y, mask = ops.dropout(x, 0.5, None, training=False)
        assert y.tolist() == x.tolist() and mask.tolist() == [[1.0, 1.0, 1.0]]
        y, mask = ops.dropout(x, 0.0, None, training=True)
        assert y.tolist() == x.tolist() and mask.tolist() == [[1.0, 1.0, 1.0]]

    def test_dropout_requires_generator_when_active(self):
        with pytest.raises(QuadcodeError):
            ops.dropout(np.ones((1, 3)), 0.5, None, training=True)
        with pytest.raises(QuadcodeError):  # one generator per example
            ops.dropout(np.ones((2, 3)), 0.5, [np.random.default_rng(0)], training=True)

    def test_dropout_bad_rate(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(QuadcodeError):
                ops.dropout(np.ones((1, 3)), rate, [np.random.default_rng(0)], training=True)

    def test_dropout_keep_rate_and_mean(self):
        gens = [np.random.default_rng([6, j]) for j in range(4)]
        x = np.ones((4, 25_000))
        y, mask = ops.dropout(x, 0.5, gens, training=True)
        kept = (mask > 0).mean()
        assert abs(kept - 0.5) < 0.01
        # inverted scaling keeps the expectation: mean within 2%
        assert abs(y.mean() - 1.0) < 0.02
        assert set(np.unique(y)) <= {0.0, 2.0}

    def test_dropout_backward_uses_mask(self):
        mask = np.array([[0.0, 2.0, 2.0]])
        assert ops.dropout_backward(mask, np.array([[1.0, 1.0, 3.0]])).tolist() == [[0.0, 2.0, 6.0]]


class TestConcatFlattenEmbedding:
    def test_concat_and_backward_partition(self):
        a, b = np.array([[1.0, 2.0], [4.0, 5.0]]), np.array([[3.0], [6.0]])
        y = ops.concat([a, b])
        assert y.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        grads = ops.concat_backward([2, 1], np.array([[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]]))
        assert grads[0].tolist() == [[10.0, 20.0], [40.0, 50.0]] and grads[1].tolist() == [[30.0], [60.0]]

    def test_concat_shape_guard(self):
        with pytest.raises(ops.ShapeMismatchError):
            ops.concat([np.zeros((1, 1, 2)), np.zeros((1, 1, 3))])
        with pytest.raises(ops.ShapeMismatchError):  # batch sizes differ
            ops.concat([np.zeros((1, 2)), np.zeros((2, 2))])
        with pytest.raises(ops.ShapeMismatchError):
            ops.concat_backward([2, 2], np.zeros((1, 3)))

    def test_flatten_row_major_round_trip(self):
        x = np.arange(12, dtype=np.float64).reshape(2, 2, 3)
        flat = ops.flatten(x)
        assert flat.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 7.0, 8.0, 9.0, 10.0, 11.0]]
        assert ops.flatten_backward((2, 2, 3), flat).tolist() == x.tolist()

    def test_embedding_lookup_layout(self):
        table = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        y = ops.embedding_lookup(table, np.array([[2, 1, 1]], dtype=np.int64))
        # (N, d, L): column t of example n is the row for indices[n, t]
        assert y.tolist() == [[[3.0, 1.0, 1.0], [4.0, 2.0, 2.0]]]

    def test_embedding_backward_accumulates_repeats(self):
        indices = np.array([[1, 1, 2], [2, 0, 1]], dtype=np.int64)
        grad_y = np.array([[[1.0, 10.0, 100.0], [2.0, 20.0, 200.0]],
                           [[1000.0, 0.5, 3.0], [2000.0, 0.25, 4.0]]])
        grad = np.full((3, 2), 0.125)  # accumulates on top of what is there
        ops.embedding_backward(indices, grad_y, grad)
        assert grad.tolist() == [[0.625, 0.375], [14.125, 26.125], [1100.125, 2200.125]]

    def test_embedding_backward_against_numeric(self):
        gen = np.random.default_rng(7)
        table = gen.normal(size=(5, 3))
        indices = np.array([[4, 0, 4, 2], [2, 2, 1, 4]], dtype=np.int64)
        proj = gen.normal(size=(2, 3, 4))

        def loss(t_):
            return float((ops.embedding_lookup(t_, indices) * proj).sum())

        grad = np.zeros((5, 3))
        ops.embedding_backward(indices, proj, grad)
        assert_close(grad, numeric_grad(loss, table), tol=1e-6)

    def test_embedding_index_out_of_range(self):
        with pytest.raises(ops.ShapeMismatchError):
            ops.embedding_lookup(np.zeros((3, 2)), np.array([[3]], dtype=np.int64))
        with pytest.raises(ops.ShapeMismatchError):
            ops.embedding_lookup(np.zeros((3, 2)), np.array([[-1]], dtype=np.int64))


class TestSoftmaxLoss:
    def test_uniform_logits(self):
        losses, probs = ops.softmax_cross_entropy(np.zeros((1, 4)), np.array([2]))
        assert abs(losses[0] - np.log(4.0)) < 1e-12
        assert_close(probs, np.full((1, 4), 0.25), tol=1e-12)

    def test_probs_sum_to_one(self):
        gen = np.random.default_rng(8)
        probs = ops.softmax(gen.normal(scale=30.0, size=(50, 4)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
        assert (probs >= 0.0).all()

    def test_shift_invariance(self):
        logits = np.array([[0.3, -1.2, 4.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
        a = ops.softmax(logits)
        b = ops.softmax(logits + np.array([[1000.0], [-500.0]]))
        assert np.abs(a - b).max() < 1e-12

    def test_extreme_logits_stay_finite(self):
        losses, probs = ops.softmax_cross_entropy(np.array([[1e4, 0.0, 0.0, 0.0], [-1e4, 0.0, 0.0, 0.0]]),
                                                  np.array([1, 0]))
        assert np.all(np.isfinite(losses)) and np.all(np.isfinite(probs))

    def test_backward_against_numeric(self):
        gen = np.random.default_rng(9)
        logits = gen.normal(size=(2, 4))
        labels = np.array([3, 0])
        _, probs = ops.softmax_cross_entropy(logits, labels)
        grad = ops.softmax_cross_entropy_backward(probs, labels)
        assert_close(
            grad,
            numeric_grad(lambda z: float(ops.softmax_cross_entropy(z, labels)[0].sum()), logits),
            tol=1e-6,
        )
        assert np.abs(grad.sum(axis=1)).max() < 1e-12  # rows of the Jacobian sum to zero

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ops.NonFiniteTensorError):
            ops.softmax_cross_entropy(np.array([[np.nan, 0.0, 0.0, 0.0]]), np.array([0]))

    def test_class_out_of_range(self):
        with pytest.raises(ops.ShapeMismatchError):
            ops.softmax_cross_entropy(np.zeros((1, 4)), np.array([4]))
        with pytest.raises(ops.ShapeMismatchError):
            ops.softmax_cross_entropy(np.zeros((2, 4)), np.array([0]))  # one label per row


class TestInputDtype:
    """The ops compute in their inputs' dtype: float32 in, float32 out,
    gradients included. Dropout is left out: its mask is float64."""

    F32 = np.float32

    def _rand(self, gen, *shape):
        return gen.standard_normal(shape).astype(self.F32)

    def test_conv_dense_relu_pool_and_backwards(self):
        gen = np.random.default_rng(0)
        x, w, b = self._rand(gen, 2, 3, 8), self._rand(gen, 4, 3, 3), self._rand(gen, 4)
        y = ops.conv1d(x, w, b)
        assert y.dtype == self.F32
        gw, gb = np.empty_like(w), np.empty_like(b)  # the caller's buffers fix the parameter gradients' dtype
        assert ops.conv1d_backward(x, w, self._rand(gen, *y.shape), gw, gb).dtype == self.F32
        pooled, argmax = ops.maxpool1d_with_argmax(y, 2)
        assert pooled.dtype == self.F32
        assert ops.maxpool1d_backward(self._rand(gen, *pooled.shape), argmax, y.shape[2]).dtype == self.F32
        r = ops.relu(pooled)
        assert r.dtype == self.F32
        assert ops.relu_backward(pooled, self._rand(gen, *r.shape)).dtype == self.F32
        v, dw, db = self._rand(gen, 2, 5), self._rand(gen, 3, 5), self._rand(gen, 3)
        assert ops.dense(v, dw, db).dtype == self.F32
        assert ops.dense_backward(v, dw, self._rand(gen, 2, 3), np.empty_like(dw), np.empty_like(db)).dtype == self.F32

    def test_embedding_concat_softmax_and_loss(self):
        gen = np.random.default_rng(1)
        table = self._rand(gen, 6, 4)
        looked_up = ops.embedding_lookup(table, np.array([[1, 2, 5], [0, 3, 3]]))
        assert looked_up.dtype == self.F32
        assert ops.concat([looked_up, looked_up]).dtype == self.F32
        logits = self._rand(gen, 2, 4)
        assert ops.softmax(logits).dtype == self.F32
        labels = np.array([1, 3])
        losses, probs = ops.softmax_cross_entropy(logits, labels)
        assert losses.dtype == self.F32 and probs.dtype == self.F32
        assert ops.softmax_cross_entropy_backward(probs, labels).dtype == self.F32


class TestGlorot:
    def test_bound_and_spread(self):
        gen = np.random.default_rng(10)
        fan_in, fan_out = 30, 20
        w = glorot_uniform(gen, (fan_out, fan_in), fan_in, fan_out)
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (fan_out, fan_in)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound  # fills most of the interval


def _param(name, value, frozen=False):
    return Parameter(name=name, value=np.array(value, dtype=np.float64), frozen=frozen)


class TestOptimizers:
    def test_sgd_hand_step(self):
        p = _param("w", [1.0])
        grad = p.grad
        opt = Sgd([p], lr=0.1)
        p.grad[:] = 0.5
        opt.step()
        assert p.value.tolist() == [0.95]
        p.grad[:] = 0.25  # the next backward writes over what the step left in the buffer
        opt.step()
        assert p.value.tolist() == [0.95 - 0.025]
        assert p.grad is grad

    def test_sgd_momentum_accumulates(self):
        p = _param("w", [0.0])
        opt = Sgd([p], lr=1.0, momentum=0.5)
        p.grad[:] = 1.0
        opt.step()  # v=1, w=-1
        p.grad[:] = 1.0
        opt.step()  # v=1.5, w=-2.5
        assert p.value.tolist() == [-2.5]

    def test_adam_first_step_is_lr_sized(self):
        p = _param("w", [0.0, 0.0])
        p.grad[:] = [0.3, -4.0]
        Adam([p], lr=1e-3).step()
        # bias correction makes the very first update lr * sign(g) (up to eps)
        assert_close(p.value, [-1e-3, 1e-3], tol=1e-6)

    def test_adam_in_place_matches_textbook_formula(self):
        gen = np.random.default_rng(11)
        p = _param("w", gen.normal(size=(3, 4)))
        opt = Adam([p], lr=0.01)
        value, m, v = p.value.copy(), np.zeros((3, 4)), np.zeros((3, 4))
        arrays = (p.value, p.grad, opt._m[0], opt._v[0])
        for t in range(1, 4):
            g = gen.normal(size=(3, 4))
            p.grad[...] = g
            opt.step()
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * np.square(g)
            value = value - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert (p.value == value).all()  # same operations, same order: bit-identical
        assert all(a is b for a, b in zip(arrays, (p.value, p.grad, opt._m[0], opt._v[0])))

    def test_adam_defaults(self):
        opt = Adam([_param("w", [0.0])])
        assert opt.lr == 1e-3 and opt.beta1 == 0.9 and opt.beta2 == 0.999 and opt.eps == 1e-8

    def test_frozen_param_and_grad_untouched(self):
        p = _param("frozen", [2.0], frozen=True)
        q = _param("live", [2.0])
        p.grad[:] = 100.0
        q.grad[:] = 100.0
        for opt in (Sgd([p, q], lr=0.01), Adam([p, q], lr=0.01)):
            q.grad[:] = 100.0
            opt.step()
            assert p.value.tolist() == [2.0]
            assert q.value.tolist() != [2.0]
            assert p.grad.tolist() == [100.0]  # a frozen gradient is neither read nor cleared

    def test_nonfinite_gradient_trapped(self):
        p = _param("w", [1.0])
        p.grad[:] = np.nan
        with pytest.raises(NonFiniteGradientError) as err:
            Adam([p]).step()
        assert err.value.name == "w"

    def test_frozen_nonfinite_grad_ignored(self):
        p = _param("frozen", [1.0], frozen=True)
        p.grad[:] = np.inf
        Sgd([p], lr=0.1).step()  # must not raise

    def test_adam_converges_on_quadratic(self):
        p = _param("w", [5.0])
        opt = Adam([p], lr=0.1)
        for _ in range(400):
            p.grad[:] = 2.0 * p.value  # d/dw w^2
            opt.step()
        assert abs(float(p.value[0])) < 1e-2

    def test_bad_hyperparameters(self):
        p = _param("w", [1.0])
        with pytest.raises(QuadcodeError):
            Sgd([p], lr=0.0)
        with pytest.raises(QuadcodeError):
            Sgd([p], lr=0.1, momentum=1.0)
        with pytest.raises(QuadcodeError):
            Adam([p], lr=-1.0)


class TestGradientWrite:
    """Backward writes the weight gradient into Parameter.grad, never adds to it."""

    def test_dense_backward_allocates_no_weight_sized_array(self):
        gen = np.random.default_rng(12)
        layer = Dense(4096, 512, gen, "fc")
        _, cache = layer.forward(gen.normal(size=(4, 4096)), EVAL)
        grad_y = gen.normal(size=(4, 512))
        tracemalloc.start()
        try:
            layer.backward(cache, grad_y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < layer.w.value.nbytes, peak


def _dead_unit_gradients() -> list[np.ndarray]:
    """Dense -> ReLU with unit 1 dead on the whole batch and a negative
    upstream gradient, so the ReLU passes -0.0 back for that unit; returns
    the weight and bias gradients the Dense backward writes."""
    gen = np.random.default_rng(13)
    dense, relu = Dense(3, 2, gen, "fc"), ReLU()
    dense.w.value[1] = -1.0
    dense.b.value[1] = -1.0
    y, cache = dense.forward(np.abs(gen.normal(size=(4, 3))), EVAL)
    h, relu_cache = relu.forward(y, EVAL)
    grad = relu.backward(relu_cache, -np.abs(gen.normal(size=h.shape)))
    assert (grad[:, 1] == 0.0).all() and np.signbit(grad[:, 1]).all()
    dense.backward(cache, grad)
    return [dense.w.grad.copy(), dense.b.grad.copy()]


class TestSignedZeroGradients:
    """A write keeps a -0.0 gradient entry, where adding it into a zeroed
    buffer gave +0.0. Whichever sign the ops give a dead unit's summed
    gradient, the worst case is forced here: every zero entry written as
    -0.0. Neither optimizer lets that reach a parameter bit or an Adam
    moment bit."""

    @staticmethod
    def _run(make, steps):
        gen = np.random.default_rng(14)
        params = [_param(f"p{i}", gen.normal(size=g.shape)) for i, g in enumerate(steps[0])]
        opt = make(params)
        for step in steps:
            for p, g in zip(params, step):
                p.grad[...] = g
            opt.step()
        return params, opt

    def _steps(self):
        """Dead-unit gradients between random ones, so each zero entry
        follows a step that moved its velocity and moments."""
        dead = _dead_unit_gradients()
        gen = np.random.default_rng(15)
        signed = [np.where(g == 0.0, -0.0, g) for g in dead]
        assert any(np.signbit(g[g == 0.0]).any() for g in signed)
        added = [np.zeros_like(g) + g for g in signed]  # the old arithmetic: add into a zeroed buffer
        assert not any(np.signbit(g[g == 0.0]).any() for g in added)
        randoms = [[gen.normal(size=g.shape) for g in dead] for _ in range(2)]
        return [signed, randoms[0], signed, randoms[1], signed], [added, randoms[0], added, randoms[1], added]

    def test_adam_bits_unchanged(self):
        written, added = self._steps()
        new_params, new = self._run(lambda ps: Adam(ps, lr=0.01), written)
        old_params, old = self._run(lambda ps: Adam(ps, lr=0.01), added)
        for a, b in zip(new_params, old_params):
            assert a.value.tobytes() == b.value.tobytes()
        for a, b in zip(new._m + new._v, old._m + old._v):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd_parameter_bits_unchanged(self, momentum):
        written, added = self._steps()
        new_params, new = self._run(lambda ps: Sgd(ps, lr=0.1, momentum=momentum), written)
        old_params, old = self._run(lambda ps: Sgd(ps, lr=0.1, momentum=momentum), added)
        for a, b in zip(new_params, old_params):
            assert a.value.tobytes() == b.value.tobytes()
        for a, b in zip(new._velocity, old._velocity):
            assert (a == b).all()
        # with momentum 0 a velocity can differ from the old one in the sign of a zero, and only there
        signs_differ = any((np.signbit(a) != np.signbit(b)).any() for a, b in zip(new._velocity, old._velocity))
        assert signs_differ == (momentum == 0.0)
