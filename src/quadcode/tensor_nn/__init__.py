"""Minimal deterministic numeric core: batch-major float64 arrays, the
layer set the two classifiers need, hand-written backward passes, the
batched training loss, SGD/Adam, and a finite-difference gradient checker."""

from . import ops
from .gradcheck import GradCheckReport, finite_difference_check, relative_error
from .layers import (
    EVAL,
    Conv1d,
    Dense,
    Dropout,
    Embedding,
    Flatten,
    MaxPool1d,
    Parameter,
    PassContext,
    ReLU,
    glorot_uniform,
)
from .ops import NonFiniteTensorError, ShapeMismatchError
from .optim import Adam, NonFiniteGradientError, Sgd, make_optimizer

__all__ = [
    "ops",
    "GradCheckReport",
    "finite_difference_check",
    "relative_error",
    "EVAL",
    "Conv1d",
    "Dense",
    "Dropout",
    "Embedding",
    "Flatten",
    "MaxPool1d",
    "Parameter",
    "PassContext",
    "ReLU",
    "glorot_uniform",
    "NonFiniteTensorError",
    "ShapeMismatchError",
    "Adam",
    "NonFiniteGradientError",
    "Sgd",
    "make_optimizer",
]
