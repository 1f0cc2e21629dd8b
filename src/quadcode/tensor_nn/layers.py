"""Layer objects: named parameters plus stateless forward/backward pairs.

Every layer works on a whole batch: inputs and outputs carry the batch axis
first, (N, C, L) for feature maps and (N, D) for vectors, and a single
example is a batch of one. forward(x, ctx) returns (output, cache);
backward(cache, grad) writes the batch's summed parameter gradient over
Parameter.grad, never accumulating (a caller that wants a sum over several
backwards sums copies), and returns the gradient w.r.t. the layer input.
Caches live with the caller, so a forward writes neither the parameters
nor its input; models._unwind drops each cache as soon as its layer's
backward has returned.

Every forward runs the same numeric path: a conv returns its GEMM output
as a strided view, never a contiguous copy, and ReLU rectifies its input
in place. That input is always the fresh output of the Conv1d or Dense in
front of it, which nothing else reads. A cache holds the least its
backward needs: a conv or dense layer's input, a ReLU's 1-byte y > 0
mask, a pool's in-window offsets in the narrowest unsigned type. An
inference forward (INFER: no backward follows) keeps none of them: pools
track no offsets and dropout draws no mask of ones. Its logits are
bit-identical to an EVAL forward's.

Parameter.grad belongs to the backward that writes it: nothing else writes
it (zero_grad aside), which lets Embedding re-zero only the rows it wrote.

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
    """A trainable array and its gradient buffer, which each backward writes over.

    pinned marks coordinates held at a fixed value by construction (the PAD
    embedding row); their analytic gradient is defined as zero and gradient
    checks must not perturb them.
    """

    name: str
    value: np.ndarray
    frozen: bool = False
    pinned: np.ndarray | None = None
    grad: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        self.grad = np.zeros(self.value.shape)  # not zeros_like: untouched pages stay unwritten

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


@dataclass(frozen=True)
class PassContext:
    """Per-forward switches: training flag, one dropout generator per example,
    and whether a backward will follow (if not, layers keep no caches)."""

    training: bool = False
    rngs: Sequence[np.random.Generator] | None = None
    backward_follows: bool = True


EVAL = PassContext(training=False, rngs=None)
INFER = PassContext(training=False, rngs=None, backward_follows=False)


def glorot_uniform(gen: np.random.Generator | None, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform draw; no generator gives zeros."""
    if gen is None:
        return np.zeros(shape)
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return gen.uniform(-limit, limit, size=shape)


class Embedding:
    """Index lookup into a (V, d) table: (N, L) indices -> (N, d, L) maps.

    The PAD row (index 0) is zeroed here and takes no gradient, so it stays
    exactly zero through any number of updates. The parameter is named
    "embedding", as checkpoint headers record it. A backward re-zeroes only
    the rows the previous one scattered into (the whole table when that
    batch held at least as many indices as the table has rows, which is
    cheaper), so the gradient outside them must still be zero, as zero_grad
    leaves it.
    """

    def __init__(self, table: np.ndarray, trainable: bool = True):
        pinned = np.zeros(np.asarray(table).shape, dtype=bool)
        pinned[0, :] = True
        self.param = Parameter("embedding", table, frozen=not trainable, pinned=pinned)
        self.param.value[0, :] = 0.0
        self._written = np.zeros(0, dtype=np.int64)  # the rows the last backward wrote, or ... for all

    @property
    def params(self) -> list[Parameter]:
        return [self.param]

    def forward(self, indices: np.ndarray, ctx: PassContext):
        return ops.embedding_lookup(self.param.value, indices), indices

    def backward(self, cache, grad: np.ndarray) -> None:
        if not self.param.frozen:  # a frozen table's gradient is never read
            self.param.grad[self._written] = 0.0
            ops.embedding_backward(cache, grad, self.param.grad)
            self.param.grad[0, :] = 0.0
            rows = np.array(cache).reshape(-1)  # a copy: the caller may reuse its index array
            self._written = rows if rows.size < len(self.param.grad) else ...


class Conv1d:
    def __init__(self, in_channels: int, frames: int, kernel: int, gen: np.random.Generator | None, name: str):
        fan_in = in_channels * kernel
        fan_out = frames * kernel
        self.w = Parameter(f"{name}.w", glorot_uniform(gen, (frames, in_channels, kernel), fan_in, fan_out))
        self.b = Parameter(f"{name}.b", np.zeros(frames))

    @property
    def params(self) -> list[Parameter]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, ctx: PassContext):
        return ops.conv1d(x, self.w.value, self.b.value), (x if ctx.backward_follows else None)

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        return ops.conv1d_backward(cache, self.w.value, grad, self.w.grad, self.b.grad)


class Dense:
    def __init__(self, in_features: int, units: int, gen: np.random.Generator | None, name: str):
        self.w = Parameter(f"{name}.w", glorot_uniform(gen, (units, in_features), in_features, units))
        self.b = Parameter(f"{name}.b", np.zeros(units))

    @property
    def params(self) -> list[Parameter]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, ctx: PassContext):
        return ops.dense(x, self.w.value, self.b.value), x

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        return ops.dense_backward(cache, self.w.value, grad, self.w.grad, self.b.grad)


class ReLU:
    params: list[Parameter] = []

    def forward(self, x: np.ndarray, ctx: PassContext):
        y = ops.relu(x, out=x)  # x is the fresh output of the layer in front
        return y, (y > 0.0 if ctx.backward_follows else None)

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        return ops.relu_backward(cache, grad)


class MaxPool1d:
    params: list[Parameter] = []

    def __init__(self, width: int):
        self.width = width

    def forward(self, x: np.ndarray, ctx: PassContext):
        if not ctx.backward_follows:
            return ops.maxpool1d(x, self.width), None
        y, offsets = ops.maxpool1d_with_argmax(x, self.width)
        return y, (offsets, x.shape[2])

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        offsets, in_length = cache
        return ops.maxpool1d_backward(grad, offsets, self.width, in_length)


class Dropout:
    params: list[Parameter] = []

    def __init__(self, rate: float):
        self.rate = rate

    def forward(self, x: np.ndarray, ctx: PassContext):
        if not (ctx.training or ctx.backward_follows):
            return x, None
        y, mask = ops.dropout(x, self.rate, ctx.rngs, ctx.training)
        return y, mask

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        return ops.dropout_backward(cache, grad)


class Flatten:
    params: list[Parameter] = []

    def forward(self, x: np.ndarray, ctx: PassContext):
        return ops.flatten(x), x.shape

    def backward(self, cache, grad: np.ndarray) -> np.ndarray:
        return ops.flatten_backward(cache, grad)


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
    length for the whole batch) and .label. dropout_rngs[j] draws example
    j's dropout masks. The loss gradient is scaled by 1/n, so the written
    grads are the mean-loss gradient whatever the batch size.
    """
    if not examples:
        raise QuadcodeError("batch_loss needs at least one example")
    n = len(examples)
    indices = np.stack([example.indices for example in examples])
    labels = np.array([example.label for example in examples], dtype=np.int64)
    logits, caches = model.forward_logits(indices, PassContext(training=training, rngs=dropout_rngs))
    losses, probs = ops.softmax_cross_entropy(logits, labels)
    if accumulate:
        model.backward_from_logits(caches, ops.softmax_cross_entropy_backward(probs, labels) / n)
    return float(losses.sum()) / n
