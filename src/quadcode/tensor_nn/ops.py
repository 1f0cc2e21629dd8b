"""Forward/backward primitives on batch-major numpy arrays.

No tape, no graph: every forward op has a hand-written backward op and the
caller wires them together. Backward contracts are exact analytic gradients
of the forward definitions; the finite-difference suite keeps them honest.
All public forwards validate shapes and trap non-finite outputs. Ops keep
their inputs' dtype, which Parameter fixes at float64; only dropout, whose
mask is float64, returns float64 whatever its input.

Conventions: axis 0 is always the batch axis N, and a single example is
just N=1. Feature maps are (N, channels, length), vectors are (N, n),
logits are (N, classes) and labels (N,). Weights are (out, in) for dense
and (frames, in_channels, kernel) for conv. Backward ops write the
gradient summed over the batch for weights and biases into caller-given
buffers, overwriting them, and return the gradient per example for inputs.

Backward ops read the least state their forward can leave: conv1d_backward
the input (it rebuilds the windows), relu_backward a bool y > 0 mask, so
relu may rectify in place, and maxpool1d_backward narrow in-window offsets.
tail_sum is the backward of repeat_last: it folds the gradient of columns
that repeat one value into the first of them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import QuadcodeError


class ShapeMismatchError(QuadcodeError):
    pass


class NonFiniteTensorError(QuadcodeError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeMismatchError(msg)


def _trap(name: str, out: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise NonFiniteTensorError(f"{name} produced non-finite values")
    return out


# --- convolution --------------------------------------------------------------


def _im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """(N, C, L) -> (C*K, N*T) window matrix, T = L-K+1.

    Column n*T + t holds x[n, :, t:t+K] flattened channel-major, matching
    w.reshape(F, C*K). The windows are a fresh copy, built on demand and
    never kept between forward and backward.
    """
    n, channels, length = x.shape
    windows = sliding_window_view(x, kernel, axis=2).transpose(1, 3, 0, 2)  # (C, K, N, T)
    return np.ascontiguousarray(windows).reshape(channels * kernel, n * (length - kernel + 1))


def conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid 1-d convolution, stride 1, as one GEMM over the whole batch.

    x: (N, C, L), w: (F, C, K), b: (F,) -> (N, F, L-K+1) with
    out[n, f, t] = b[f] + sum_{c,k} x[n, c, t+k] * w[f, c, k].
    The result is a strided (N, F, T) view of the fresh (F, N*T) GEMM
    output, not a contiguous array; a caller that wants one copies it.
    """
    _require(x.ndim == 3, f"conv1d input must be (N, C, L), got {x.shape}")
    _require(w.ndim == 3, f"conv1d weights must be (F, C, K), got {w.shape}")
    frames, c_in, kernel = w.shape
    _require(x.shape[1] == c_in, f"conv1d channels mismatch: input {x.shape[1]}, weights {c_in}")
    _require(b.shape == (frames,), f"conv1d bias must be ({frames},), got {b.shape}")
    _require(x.shape[2] >= kernel, f"conv1d needs L >= K, got L={x.shape[2]}, K={kernel}")
    n, steps = x.shape[0], x.shape[2] - kernel + 1
    y = w.reshape(frames, c_in * kernel) @ _im2col(x, kernel)  # (F, N*T)
    y += b[:, None]
    return _trap("conv1d", y.reshape(frames, n, steps).transpose(1, 0, 2))


def conv1d_backward(
    x: np.ndarray, w: np.ndarray, grad_y: np.ndarray, grad_w: np.ndarray, grad_b: np.ndarray
) -> np.ndarray:
    """grad_x of sum(grad_y * conv1d(x, w, b)), writing grad_w and grad_b.

    grad_w[f,c,k] = sum_{n,t} grad_y[n,f,t] x[n,c,t+k] is one GEMM against
    the rebuilt windows, written into grad_w; grad_x comes from a
    second GEMM giving each window's gradient, scattered back onto the
    positions it covered: grad_x[n,c,t+k] += sum_f grad_y[n,f,t] w[f,c,k].
    """
    frames, c_in, kernel = w.shape
    n, _, length = x.shape
    steps = length - kernel + 1
    _require(grad_y.shape == (n, frames, steps), f"conv1d grad must be ({n}, {frames}, {steps}), got {grad_y.shape}")
    _require(grad_w.shape == w.shape and grad_w.flags.c_contiguous, "conv1d grad_w must be a contiguous array of w's shape")
    gy = grad_y.transpose(1, 0, 2).reshape(frames, n * steps)
    np.matmul(gy, _im2col(x, kernel).T, out=grad_w.reshape(frames, c_in * kernel))
    np.sum(grad_y, axis=(0, 2), out=grad_b)
    grad_cols = (w.reshape(frames, c_in * kernel).T @ gy).reshape(c_in, kernel, n, steps)
    grad_x = np.zeros((n, c_in, length), dtype=grad_cols.dtype)
    for k in range(kernel):
        grad_x[:, :, k : k + steps] += grad_cols[:, k].transpose(1, 0, 2)
    return grad_x


# --- pooling ------------------------------------------------------------------


def maxpool1d(x: np.ndarray, width: int, with_offsets: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Non-overlapping window maxima, (N, F, L) -> (N, F, floor(L/width)),
    plus, when with_offsets, each window's first maximum as an offset into
    it, in the narrowest unsigned type that holds width - 1 (else None).

    Stride equals width; the trailing L mod width positions are dropped.
    One whole-array step per window position rather than an argmax over a
    window axis of 2 or 3, which numpy runs row by row. A position takes
    over only when strictly greater, so the first of equal maxima wins;
    np.maximum carries a NaN through to the output trap. (Of a window whose
    maximum is a zero of both signs, np.maximum picks which zero is output.)
    """
    _require(x.ndim == 3, f"maxpool1d input must be (N, F, L), got {x.shape}")
    _require(width >= 1, f"maxpool1d width must be >= 1, got {width}")
    n, frames, length = x.shape
    steps = length // width
    _require(steps >= 1, f"maxpool1d needs L >= width, got L={length}, width={width}")
    view = x[:, :, : steps * width].reshape(n, frames, steps, width)
    y = view[..., 0].copy()
    # the narrowest index type keeps the per-position temporaries and the training cache small
    inner = np.zeros(y.shape, dtype=np.min_scalar_type(width - 1)) if with_offsets else None
    for i in range(1, width):
        candidate = view[..., i]
        if inner is not None:
            np.maximum(inner, (candidate > y) * inner.dtype.type(i), out=inner)  # later positions carry larger i
        np.maximum(candidate, y, out=y)
    return _trap("maxpool1d", y), inner


def maxpool1d_backward(grad_y: np.ndarray, offsets: np.ndarray, width: int, in_length: int) -> np.ndarray:
    """Route each window's gradient to its recorded in-window offset."""
    _require(grad_y.shape == offsets.shape, f"maxpool1d grad/offsets mismatch: {grad_y.shape} vs {offsets.shape}")
    n, frames, steps = grad_y.shape
    _require(steps * width <= in_length, f"maxpool1d: {steps} windows of {width} exceed input length {in_length}")
    grad_x = np.zeros((n, frames, in_length), dtype=grad_y.dtype)
    windows = grad_x[:, :, : steps * width].reshape(n, frames, steps, width)  # a view: splits the last axis
    # windows are disjoint, so plain assignment cannot collide
    np.put_along_axis(windows, offsets[..., None], grad_y[..., None], axis=3)
    return grad_x


# --- dense / elementwise --------------------------------------------------------


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map x W^T + b with x (N, n), W (m, n), b (m,) -> (N, m)."""
    _require(x.ndim == 2, f"dense input must be (N, n), got {x.shape}")
    _require(w.ndim == 2 and w.shape[1] == x.shape[1], f"dense weights {w.shape} do not match input {x.shape}")
    _require(b.shape == (w.shape[0],), f"dense bias must be ({w.shape[0]},), got {b.shape}")
    y = x @ w.T
    y += b
    return _trap("dense", y)


def dense_backward(
    x: np.ndarray, w: np.ndarray, grad_y: np.ndarray, grad_w: np.ndarray, grad_b: np.ndarray
) -> np.ndarray:
    _require(grad_y.shape == (x.shape[0], w.shape[0]),
             f"dense grad must be ({x.shape[0]}, {w.shape[0]}), got {grad_y.shape}")
    np.matmul(grad_y.T, x, out=grad_w)
    np.sum(grad_y, axis=0, out=grad_b)
    return grad_y @ w


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), into out when given (out=x rectifies in place)."""
    return _trap("relu", np.maximum(x, 0.0, out=out))


def relu_backward(mask: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    """grad_y where the input was positive: mask is the forward's y > 0,
    which equals x > 0 for the finite x that relu lets through."""
    _require(mask.shape == grad_y.shape, f"relu grad shape {grad_y.shape} != mask {mask.shape}")
    return grad_y * mask


def dropout(x: np.ndarray, rate: float, gens: Sequence[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: keep with prob 1-rate and rescale so E[y] = x.

    Row j of the mask is drawn from gens[j] alone, so an example's mask does
    not depend on the batch around it. Returns (y, mask); backward is
    grad * mask. Skipping dropout (no generators, or rate 0) is the
    caller's business: this op always draws a mask.
    """
    if not 0.0 < rate < 1.0:
        raise QuadcodeError(f"dropout rate must be in (0, 1), got {rate}")
    _require(len(gens) == x.shape[0], f"dropout got {len(gens)} generators for a batch of {x.shape[0]}")
    mask = (np.stack([gen.random(x.shape[1:]) for gen in gens]) >= rate) / (1.0 - rate)
    return _trap("dropout", x * mask), mask


def dropout_backward(mask: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    return grad_y * mask


def concat(parts: list[np.ndarray]) -> np.ndarray:
    """Join along the feature axis (axis 1); every other axis must agree."""
    _require(len(parts) >= 1, "concat needs at least one tensor")
    first = parts[0]
    for p in parts:
        _require(p.ndim == first.ndim >= 2 and p.shape[0] == first.shape[0] and p.shape[2:] == first.shape[2:],
                 f"concat shapes disagree beyond axis 1: {[p.shape for p in parts]}")
    return _trap("concat", np.concatenate(parts, axis=1))


def concat_backward(sizes: list[int], grad_y: np.ndarray) -> list[np.ndarray]:
    """Split the gradient back into pieces of the given axis-1 sizes."""
    _require(grad_y.ndim >= 2 and sum(sizes) == grad_y.shape[1],
             f"concat grad must have {sum(sizes)} features on axis 1, got shape {grad_y.shape}")
    return [np.ascontiguousarray(g) for g in np.split(grad_y, np.cumsum(sizes[:-1]), axis=1)]


def flatten(x: np.ndarray) -> np.ndarray:
    """Row-major reshape of each example: (N, ...) -> (N, prod(...))."""
    return x.reshape(x.shape[0], -1)


def flatten_backward(shape: tuple[int, ...], grad_y: np.ndarray) -> np.ndarray:
    _require(grad_y.size == int(np.prod(shape)), f"flatten grad size {grad_y.size} != prod{shape}")
    return grad_y.reshape(shape)


def repeat_last(x: np.ndarray, length: int) -> np.ndarray:
    """x with its last column repeated out to length columns (the last axis):
    a fresh contiguous array."""
    _require(x.ndim >= 1 and 1 <= x.shape[-1] <= length, f"cannot repeat the last column of {x.shape} out to {length}")
    out = np.empty((*x.shape[:-1], length), dtype=x.dtype)
    out[..., : x.shape[-1]] = x
    out[..., x.shape[-1] :] = x[..., -1:]
    return out


def tail_sum(grad: np.ndarray, tail: int) -> np.ndarray:
    """The backward of repeat_last(x, grad.shape[-1]) for an x of tail + 1
    columns (the last axis): grad's first tail + 1 columns, the last
    holding the sum of grad's columns from tail on, which all read one
    value. grad itself when it has no more columns."""
    _require(grad.ndim >= 1 and 0 <= tail < grad.shape[-1], f"no tail column {tail} in a gradient of shape {grad.shape}")
    if grad.shape[-1] == tail + 1:
        return grad
    out = grad[..., : tail + 1].copy()
    np.sum(grad[..., tail:], axis=-1, out=out[..., tail])
    return out


# --- embedding ------------------------------------------------------------------


def embedding_lookup(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Gather rows: (N, L) indices -> (N, d, L), channels first for conv."""
    idx = np.asarray(indices)
    _require(table.ndim == 2, f"embedding table must be 2-d, got {table.shape}")
    _require(idx.ndim == 2 and np.issubdtype(idx.dtype, np.integer),
             f"indices must be an (N, L) integer array, got {idx.dtype} {idx.shape}")
    _require(idx.size >= 1, "embedding_lookup needs at least one index")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise ShapeMismatchError(f"embedding index out of range [0, {table.shape[0]})")
    return _trap("embedding_lookup", np.ascontiguousarray(table[idx].transpose(0, 2, 1)))


def embedding_backward(indices: np.ndarray, grad_y: np.ndarray, out: np.ndarray) -> None:
    """Scatter-add the (N, d, L) gradient onto the looked-up rows of out.

    out is the (V, d) table gradient, updated in place by one unbuffered
    add of all N*L rows, so repeated indices accumulate.
    """
    idx = np.asarray(indices)
    _require(idx.ndim == 2 and grad_y.shape == (idx.shape[0], out.shape[1], idx.shape[1]),
             f"embedding grad must be (N, {out.shape[1]}, L) for {idx.shape} indices, got {grad_y.shape}")
    np.add.at(out, idx.reshape(-1), grad_y.transpose(0, 2, 1).reshape(-1, out.shape[1]))


# --- loss -----------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    """Shift-stabilized softmax over the last axis; rows sum to 1 within 1e-9."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return _trap("softmax", e / e.sum(axis=-1, keepdims=True))


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(losses (N,), probs (N, C)) with losses[n] = -log softmax(logits[n])[labels[n]]."""
    labels = np.asarray(labels)
    _require(logits.ndim == 2, f"softmax_cross_entropy expects (N, classes) logits, got {logits.shape}")
    _require(labels.shape == logits.shape[:1] and np.issubdtype(labels.dtype, np.integer),
             f"labels must be ({logits.shape[0]},) integers, got {labels.dtype} {labels.shape}")
    if not np.all(np.isfinite(logits)):
        raise NonFiniteTensorError("softmax_cross_entropy requires finite logits")
    _require(bool(np.all((labels >= 0) & (labels < logits.shape[1]))),
             f"class labels out of range for {logits.shape[1]} logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(logits.shape[0])
    return -log_probs[rows, labels], np.exp(log_probs)


def softmax_cross_entropy_backward(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of each example's loss w.r.t. its logits: probs - onehot(labels)."""
    grad = probs.copy()
    grad[np.arange(grad.shape[0]), labels] -= 1.0
    return grad
