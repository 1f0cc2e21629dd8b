"""SGD with momentum and Adam over Parameters taken from one Storage.

Values and gradients lie back to back in one array each, in list order
(layers.Storage), and only leading parameters may be frozen (a frozen
embedding), so the trainable ones are one range of both; each
optimizer's state is one flat array over it.
step() checks the range's gradients once, before any parameter is
touched, and names the first parameter with a non-finite entry. It
neither zeroes nor writes any gradient, and never reads a frozen one. The
hyperparameters are taken as given: TrainConfig owns their rules.

Updates run in place with `out=` arithmetic into scratch buffers of one
slice each, allocated once per step, walking the range in slices small
enough that the passes over a slice stay in cache. The operations and
their order are those of the textbook formulas, so the results are
bit-identical to evaluating them directly over whole arrays.
"""

from __future__ import annotations

from itertools import dropwhile

import numpy as np

from ..errors import QuadcodeError
from .layers import Parameter


# Elements per slice: Adam's value, gradient, m, v and two scratch slices
# (6 x 128 KiB) stay in cache between the passes of one update.
_SLICE = 1 << 14


class NonFiniteGradientError(QuadcodeError):
    def __init__(self, name: str):
        super().__init__(f"non-finite gradient in parameter {name!r}")
        self.name = name


def _flat(arrays: list[np.ndarray]) -> np.ndarray:
    """One 1-D view over arrays that a Storage handed out back to back in one buffer."""
    if not arrays:
        return np.zeros(0)
    owner = arrays[0].base
    if owner is None or any(b.base is not owner or b.ctypes.data != a.ctypes.data + a.nbytes
                            for a, b in zip(arrays, arrays[1:])):
        raise QuadcodeError("an optimizer needs parameters laid out back to back, taken in turn from one layers.Storage")
    return np.frombuffer(owner, np.float64, sum(a.size for a in arrays), arrays[0].ctypes.data - owner.ctypes.data)


def _trainable(params: list[Parameter]) -> tuple[list[Parameter], np.ndarray, np.ndarray]:
    trainable = list(dropwhile(lambda p: p.frozen, params))
    if late := [p.name for p in trainable if p.frozen]:
        raise QuadcodeError(f"frozen parameter {late[0]!r} follows a trainable one; only leading parameters may be frozen")
    return trainable, _flat([p.value for p in trainable]), _flat([p.grad for p in trainable])


def _check_finite(params: list[Parameter], grads: np.ndarray) -> None:
    if not np.isfinite(grads).all():
        raise NonFiniteGradientError(next(p.name for p in params if not np.isfinite(p.grad).all()))


def _pieces(*arrays: np.ndarray):
    for start in range(0, arrays[0].size, _SLICE):
        yield [a[start : start + _SLICE] for a in arrays]


class Sgd:
    """v <- momentum*v + g; w <- w - lr*v.

    A written -0.0 gradient entry (+0.0 once added into zeros) can leave a
    momentum-0 velocity entry at -0.0, not +0.0; w - lr*v is then the same
    bits unless w is -0.0, which no update makes from a value that is not.
    """

    def __init__(self, params: list[Parameter], lr: float, momentum: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._trainable, self._values, self._grads = _trainable(self.params)
        self._velocity = np.zeros(self._values.size)

    def step(self) -> None:
        _check_finite(self._trainable, self._grads)
        scratch = np.empty(min(_SLICE, self._values.size))
        for value, g, v in _pieces(self._values, self._grads, self._velocity):
            v *= self.momentum
            v += g
            value -= np.multiply(v, self.lr, out=scratch[: value.size])


class Adam:
    """Bias-corrected Adam (Kingma & Ba defaults)."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._trainable, self._values, self._grads = _trainable(self.params)
        # not zeros_like: np.zeros leaves the pages unwritten until the first step
        self._m = np.zeros(self._values.size)
        self._v = np.zeros(self._values.size)

    def step(self) -> None:
        _check_finite(self._trainable, self._grads)
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        scratch, step = np.empty((2, min(_SLICE, self._values.size)))
        for value, g, m, v in _pieces(self._values, self._grads, self._m, self._v):
            self._update(value, g, m, v, scratch[: value.size], step[: value.size], bc1, bc2)

    def _update(self, value, g, m, v, tmp, step, bc1: float, bc2: float) -> None:
        """value -= lr * (m / bc1) / (sqrt(v / bc2) + eps) after the moment updates."""
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m *= self.beta1
        m += tmp
        np.square(g, out=tmp)
        tmp *= 1.0 - self.beta2
        v *= self.beta2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, bc1, out=step)
        step *= self.lr
        step /= tmp
        value -= step
