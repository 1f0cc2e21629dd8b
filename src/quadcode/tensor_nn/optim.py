"""SGD with momentum and Adam over Parameter lists.

step() applies the update to every unfrozen parameter and neither zeroes
nor writes any gradient: each backward writes its own over the last, and
frozen ones are never read. Non-finite gradients abort before any parameter
is touched. The hyperparameters are taken as given: TrainConfig owns
their rules and validates what `train` passes.

Updates run in place with `out=` arithmetic into scratch buffers of one
slice each, allocated once per step. Both optimizers walk each parameter
in slices small enough that the passes over a slice stay in cache. The
operations and their order are those of the textbook formulas, so the
results are bit-identical to evaluating them directly over whole arrays.
"""

from __future__ import annotations

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


def _check_finite(params: list[Parameter]) -> None:
    for p in params:
        if not p.frozen and not np.all(np.isfinite(p.grad)):
            raise NonFiniteGradientError(p.name)


def _scratch(params: list[Parameter]) -> np.ndarray:
    return np.empty(min(_SLICE, max((p.size for p in params), default=0)))


def _slices(params: list[Parameter], *states: list[np.ndarray]):
    """(value, grad, *state) slices of at most _SLICE elements over every
    unfrozen parameter; flat views, since all the arrays are contiguous."""
    for p, *arrays in zip(params, *states):
        if p.frozen:
            continue
        flat = [a.reshape(-1) for a in (p.value, p.grad, *arrays)]
        for start in range(0, p.size, _SLICE):
            yield [a[start : start + _SLICE] for a in flat]


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
        self._velocity = [np.zeros(p.value.shape) for p in self.params]

    def step(self) -> None:
        _check_finite(self.params)
        scratch = _scratch(self.params)
        for value, g, v in _slices(self.params, self._velocity):
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
        # not zeros_like: np.zeros leaves the pages unwritten until the first step
        self._m = [np.zeros(p.value.shape) for p in self.params]
        self._v = [np.zeros(p.value.shape) for p in self.params]

    def step(self) -> None:
        _check_finite(self.params)
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        scratch, step = _scratch(self.params), _scratch(self.params)
        for value, g, m, v in _slices(self.params, self._m, self._v):
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
