"""Layer objects: named parameters plus stateless forward/backward pairs.

Every layer works on a whole batch: inputs and outputs carry the batch axis
first, (N, C, L) for feature maps and (N, D) for vectors, and a single
example is a batch of one. forward(x, ctx) returns (output, cache);
backward(cache, grad) writes the batch's summed parameter gradient over
Parameter.grad, never accumulating (a caller that wants a sum over several
backwards sums copies), and returns the gradient w.r.t. the layer input.
Caches live with the caller, so a forward writes neither the parameters
nor its input. run_layers walks (name, layer) pairs forward, appending one
cache per layer (and, when PassContext.trace is a list, (name, output
shape) to it); unwind_layers walks back, popping each cache as its layer's
backward consumes it. Branches runs parallel such lists over one input and
concatenates their outputs; its cache holds one cache list per branch.

Every forward runs the same numeric path: a conv returns its GEMM output
as a strided view, never a contiguous copy, and ReLU rectifies its input
in place. That input is always the fresh output of the Conv1d or Dense in
front of it, which nothing else reads. A cache holds the least its
backward needs: a conv or dense layer's input, a ReLU's 1-byte y > 0
mask, a pool's in-window offsets in the narrowest unsigned type. An
inference forward (INFER: no backward follows) keeps none of them: pools
track no offsets. Conv1d, ReLU and MaxPool1d are position-local: each
output column reads only the input columns under the layer's declared
window, (width, stride), and is computed from them alone once the batch's
output columns are a multiple of its declared tile (Conv1d's GEMM tile, 1
for the others). A window turns L input columns into (L - width) //
stride + 1; models applies that law in one function, to these
declarations when an untraced forward runs the conv stack on the
input's live prefix, and to the same windows read from a model config
when it sizes layers. Each of these layers' backward, and Embedding's,
reads only the first output columns its gradient covers, so the backward
of a prefix forward runs only up to the first column of the tail that
repeats one value, into which the model sums that tail's gradient
(ops.tail_sum).
Dropout runs exactly when the forward carries generators (PassContext.rngs).

Parameter.grad belongs to the backward that writes it: nothing else writes
it (zero_grad aside), which lets Embedding re-zero only the rows it wrote.
A Parameter owns no memory: Conv1d, Dense and Embedding take theirs from
the Storage they are given, which hands every Parameter.value and .grad
out as views into one 1-D array of values and one of gradients, back to
back, so a model is saved, snapshotted and updated as one array. A layer
writes its init draw there only when given a generator, so a layer over
a loaded file's values writes nothing.

Layers reach ops through the module attribute (`ops.conv1d` etc.), which is
what lets the gradcheck negative-control test swap a backward out from under
a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import QuadcodeError
from . import ops


@dataclass
class Parameter:
    """A trainable array and its gradient, which each backward writes over:
    views into a Storage's two rows (Storage.take).

    pinned marks coordinates held at a fixed value by construction (the PAD
    embedding row); their analytic gradient is defined as zero and gradient
    checks must not perturb them.
    """

    name: str
    value: np.ndarray
    grad: np.ndarray = field(repr=False)
    frozen: bool = False
    pinned: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Storage:
    """Every parameter of one model in one np.zeros((2, size)) block: row 1
    holds the gradients and row 0 the values, unless values (a loaded
    file's parameter block) is given. take() hands out the next span of
    each row, so parameters taken in turn lie back to back in that order.
    At full scale the block lies above glibc's 32 MiB mmap ceiling, so
    pages never written (a loaded model's row 0) take no memory."""

    def __init__(self, size: int, values: np.ndarray | None = None):
        block = np.zeros((2, size))  # not zeros_like: untouched pages stay unwritten
        self.values = block[0] if values is None else values
        self.grads = block[1]
        self._taken = 0

    def take(self, name: str, shape: tuple[int, ...], **flags) -> Parameter:
        start, self._taken = self._taken, self._taken + math.prod(shape)
        span = slice(start, self._taken)
        return Parameter(name, self.values[span].reshape(shape), self.grads[span].reshape(shape), **flags)


@dataclass(frozen=True)
class PassContext:
    """Per-forward switches: one dropout generator per example (None: no
    dropout), whether a backward will follow (if not, layers keep no caches),
    and a list that collects (layer name, output shape) when one is given;
    a model walks a traced forward's whole input, never a live prefix."""

    rngs: Sequence[np.random.Generator] | None = None
    backward_follows: bool = True
    trace: list | None = None


INFER = PassContext(backward_follows=False)


def uniform_into(gen: np.random.Generator, out: np.ndarray, low: float, high: float) -> np.ndarray:
    """gen.uniform(low, high, out.shape) drawn straight into out: the same
    bits, and gen left in the same state, without a temporary."""
    gen.random(out=out)
    out *= high - low
    out += low
    return out


def glorot_uniform(gen: np.random.Generator, out: np.ndarray, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform draw into out."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return uniform_into(gen, out, -limit, limit)


class Embedding:
    """Index lookup into a (V, d) table: (N, L) indices -> (N, d, L) maps.

    Given a generator, the table is drawn uniform(-0.25, 0.25) with the PAD
    row (index 0) zeroed. The PAD row takes no gradient, so it stays
    exactly zero through any number of updates. The parameter is named
    "embedding", as checkpoint headers record it. A backward re-zeroes only
    the rows the previous one scattered into (the whole table when that
    batch held at least as many indices as the table has rows, which is
    cheaper), so the gradient outside them must still be zero, as zero_grad
    leaves it.
    """

    def __init__(self, storage: Storage, rows: int, dim: int, gen: np.random.Generator | None = None, trainable=True):
        pinned = np.zeros((rows, dim), dtype=bool)
        pinned[0, :] = True
        self.param = storage.take("embedding", (rows, dim), frozen=not trainable, pinned=pinned)
        if gen is not None:
            uniform_into(gen, self.param.value, -0.25, 0.25)
            self.param.value[0, :] = 0.0
        self.params = [self.param]
        self._written = np.zeros(0, dtype=np.int64)  # the rows the last backward wrote, or ... for all

    def forward(self, indices: np.ndarray, ctx: PassContext):
        return ops.embedding_lookup(self.param.value, indices), indices

    def backward(self, cache, grad: np.ndarray) -> None:
        if not self.param.frozen:  # a frozen table's gradient is never read
            cache = cache[:, : grad.shape[2]]
            self.param.grad[self._written] = 0.0
            ops.embedding_backward(cache, grad, self.param.grad)
            self.param.grad[0, :] = 0.0
            rows = np.array(cache).reshape(-1)  # a copy: the caller may reuse its index array
            self._written = rows if rows.size < len(self.param.grad) else ...


class Conv1d:
    # A conv GEMM (ops.conv1d) whose column count, N times the output length, is a
    # multiple of this computes each column from that column's input alone: OpenBLAS
    # tiles the columns by micro-kernel widths that divide it, and only a last,
    # partial tile runs another kernel, which can round differently.
    tile = 64

    def __init__(self, storage: Storage, in_channels: int, frames: int, kernel: int, gen: np.random.Generator | None, name: str):
        self.window = (kernel, 1)
        self.w = storage.take(f"{name}.w", (frames, in_channels, kernel))
        self.b = storage.take(f"{name}.b", (frames,))
        if gen is not None:
            glorot_uniform(gen, self.w.value, in_channels * kernel, frames * kernel)
        self.params = [self.w, self.b]

    def forward(self, x: np.ndarray, ctx: PassContext):
        return ops.conv1d(x, self.w.value, self.b.value), (x if ctx.backward_follows else None)

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        x = cache[:, :, : grad.shape[2] + self.window[0] - 1]
        return ops.conv1d_backward(x, self.w.value, grad, self.w.grad, self.b.grad)


class Dense:
    def __init__(self, storage: Storage, in_features: int, units: int, gen: np.random.Generator | None, name: str):
        self.w = storage.take(f"{name}.w", (units, in_features))
        self.b = storage.take(f"{name}.b", (units,))
        if gen is not None:
            glorot_uniform(gen, self.w.value, in_features, units)
        self.params = [self.w, self.b]

    def forward(self, x: np.ndarray, ctx: PassContext):
        return ops.dense(x, self.w.value, self.b.value), x

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        return ops.dense_backward(cache, self.w.value, grad, self.w.grad, self.b.grad)


class ReLU:
    params: list[Parameter] = []
    window, tile = (1, 1), 1

    def forward(self, x: np.ndarray, ctx: PassContext):
        y = ops.relu(x, out=x)  # x is the fresh output of the layer in front
        return y, (y > 0.0 if ctx.backward_follows else None)

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        return ops.relu_backward(cache[..., : grad.shape[-1]], grad)


class MaxPool1d:
    params: list[Parameter] = []
    tile = 1

    def __init__(self, width: int):
        self.width = width
        self.window = (width, width)

    def forward(self, x: np.ndarray, ctx: PassContext):
        y, offsets = ops.maxpool1d(x, self.width, with_offsets=ctx.backward_follows)
        return y, ((offsets, x.shape[2]) if ctx.backward_follows else None)

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        offsets, in_length = cache
        return ops.maxpool1d_backward(grad, offsets[..., : grad.shape[-1]], self.width, in_length)


class Dropout:
    params: list[Parameter] = []

    def __init__(self, rate: float):
        self.rate = rate

    def forward(self, x: np.ndarray, ctx: PassContext):
        if ctx.rngs is None or self.rate == 0.0:
            return x, None
        return ops.dropout(x, self.rate, ctx.rngs)

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        return grad if cache is None else ops.dropout_backward(cache, grad)


class Flatten:
    params: list[Parameter] = []

    def forward(self, x: np.ndarray, ctx: PassContext):
        return ops.flatten(x), x.shape

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        return ops.flatten_backward(cache, grad)


def run_layers(layers, x, ctx: PassContext, caches: list):
    """Forward through (name, layer) pairs, appending each layer's cache."""
    for name, layer in layers:
        x, cache = layer.forward(x, ctx)
        caches.append(cache)
        if ctx.trace is not None:
            ctx.trace.append((name, x.shape))
    return x


def unwind_layers(layers, caches: list, grad):
    """Backward through the layers run_layers ran, popping each cache as its
    layer consumes it, so that nothing a finished backward read stays alive."""
    for _, layer in reversed(layers):
        grad = layer.backward(caches.pop(), grad)
    return grad


class Branches:
    """Parallel lists of (name, layer) over one input, outputs concatenated
    along the feature axis in branch order. The input gradient is the sum of
    the branches' input gradients, added in branch order."""

    def __init__(self, branches: list[list[tuple[str, object]]]):
        self.branches = branches
        self.params = [p for branch in branches for _, layer in branch for p in layer.params]

    def forward(self, x: np.ndarray, ctx: PassContext):
        outputs, caches = [], []
        for branch in self.branches:
            caches.append([])
            outputs.append(run_layers(branch, x, ctx, caches[-1]))
        return ops.concat(outputs), (caches, [out.shape[1] for out in outputs])

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        caches, sizes = cache
        grad_x = None
        for branch, branch_caches, part in zip(self.branches, caches, ops.concat_backward(sizes, grad)):
            g = unwind_layers(branch, branch_caches, part)
            grad_x = g if grad_x is None else grad_x + g
        return grad_x


def batch_loss(
    model,
    examples,
    *,
    training: bool = False,
    dropout_rngs: Sequence[np.random.Generator] | None = None,
    accumulate: bool = False,
) -> float:
    """Mean cross entropy over examples in one batched pass; accumulate=True
    also writes the batch's mean-loss gradient over each trainable Parameter.grad.

    A model is anything with forward_logits(indices, ctx) and
    backward_from_logits(caches, grad); examples carry .indices (one
    length for the whole batch) and .label. training=True runs dropout,
    dropout_rngs[j] drawing example j's masks. A loss-only pass keeps no
    caches. The loss gradient is scaled by 1/n, so the written grads are the
    mean-loss gradient whatever the batch size.
    """
    if not examples:
        raise QuadcodeError("batch_loss needs at least one example")
    if training and dropout_rngs is None:
        raise QuadcodeError("training-mode dropout needs one random generator per example")
    n = len(examples)
    indices = np.stack([example.indices for example in examples])
    labels = np.array([example.label for example in examples], dtype=np.int64)
    ctx = PassContext(rngs=dropout_rngs if training else None, backward_follows=accumulate)
    logits, caches = model.forward_logits(indices, ctx)
    losses, probs = ops.softmax_cross_entropy(logits, labels)
    if accumulate:
        model.backward_from_logits(caches, ops.softmax_cross_entropy_backward(probs, labels) / n)
    return float(losses.sum()) / n
