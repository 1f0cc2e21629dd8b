"""Mini-batch training with early stopping, and exact evaluation metrics.

Everything downstream of (seed, data, config) is deterministic: epoch
shuffles and per-example dropout masks come from counter-based streams
keyed by (epoch) and (step, example position), each batch runs as one
batched pass whose arithmetic depends only on its contents, and inference
(predict_rows, which dev evaluation also uses) consumes no randomness at all
and runs every forward on one chunk shape, so a record's prediction depends
only on the record and the model.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import rng
from .corpus import json_line, json_lines, write_json_lines
from .errors import InputError, QuadcodeError
from .models import Model, batch_loss, predict
from .ontology import CLASSES
from .tensor_nn.optim import Adam, Sgd
from .text_encoding import EncodedExample


class NonFiniteLossError(QuadcodeError):
    def __init__(self, step: int):
        super().__init__(f"loss became non-finite at optimizer step {step}")
        self.step = step


# also the inference chunk: a full-scale char forward takes its live prefix only on multiples of 32 records
DEFAULT_BATCH_SIZE = 32


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = DEFAULT_BATCH_SIZE
    epochs: int = 30
    patience: int = 5
    shuffle: bool = True
    optimizer: str = "adam"
    lr: float = 1e-3
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 0:
            raise InputError(f"patience must be >= 0, got {self.patience}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.optimizer not in ("adam", "sgd"):
            raise InputError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        for name in ("lr", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InputError(f"{name} must be finite and > 0, got {value}")
        for name in ("momentum", "beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:  # also false for nan
                raise InputError(f"{name} must be in [0, 1), got {value}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_accuracy: float


@dataclass(frozen=True)
class Metrics:
    """Confusion counts plus the derived headline numbers.

    confusion[i, j] counts examples of true class i predicted as j, so row
    sums are true-class counts and accuracy is trace/total.
    """

    confusion: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.confusion, dtype=np.int64)
        if c.shape != (4, 4) or (c < 0).any():
            raise QuadcodeError(f"confusion matrix must be 4x4 nonnegative counts, got {c.shape}")
        object.__setattr__(self, "confusion", c)

    @property
    def total(self) -> int:
        return int(self.confusion.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.confusion) / self.total) if self.total else 0.0

    def _safe_div(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        out = np.zeros(4, dtype=np.float64)
        np.divide(num, den, out=out, where=den > 0)
        return out

    @property
    def precision(self) -> np.ndarray:
        diag = np.diag(self.confusion).astype(np.float64)
        return self._safe_div(diag, self.confusion.sum(axis=0).astype(np.float64))

    @property
    def recall(self) -> np.ndarray:
        diag = np.diag(self.confusion).astype(np.float64)
        return self._safe_div(diag, self.confusion.sum(axis=1).astype(np.float64))

    @property
    def f1(self) -> np.ndarray:
        """2PR / (P + R) per class; 0 where P + R is 0."""
        p, r = self.precision, self.recall
        return self._safe_div(2.0 * p * r, p + r)

    def to_json_obj(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": [float(x) for x in self.precision],
            "recall": [float(x) for x in self.recall],
            "f1": [float(x) for x in self.f1],
            "confusion": self.confusion.tolist(),
            "total": self.total,
        }

    def lines(self) -> list[str]:
        names = [q.value for q in CLASSES]
        width = max(len(n) for n in names)
        out = [f"accuracy {self.accuracy:.4f} over {self.total} examples"]
        for i, name in enumerate(names):
            out.append(
                f"  {name:<{width}}  precision {self.precision[i]:.4f}  recall {self.recall[i]:.4f}  f1 {self.f1[i]:.4f}"
            )
        out.append("confusion (rows true, cols predicted):")
        for i, name in enumerate(names):
            cells = " ".join(f"{int(v):>6}" for v in self.confusion[i])
            out.append(f"  {name:<{width}} {cells}")
        return out


def predict_rows(model: Model, rows: Iterable[np.ndarray]) -> Iterator[tuple[int, np.ndarray]]:
    """(class, probs) per (L,) index row, in order, from one models.predict
    call per DEFAULT_BATCH_SIZE rows, read one chunk at a time; a last,
    shorter chunk is filled with all-PAD rows, whose outputs are dropped."""
    rows = iter(rows)
    while chunk := list(islice(rows, DEFAULT_BATCH_SIZE)):
        pad = [np.zeros_like(chunk[0])] * (DEFAULT_BATCH_SIZE - len(chunk))
        classes, probs = predict(model, np.stack(chunk + pad))
        yield from zip(classes[: len(chunk)].tolist(), probs[: len(chunk)])


def evaluate(model: Model, test_set: Sequence[EncodedExample]) -> Metrics:
    """Dropout-off predictions over the whole set (predict_rows); exact counts."""
    if not test_set:
        raise InputError("test dataset has no examples")
    predicted = [c for c, _ in predict_rows(model, (example.indices for example in test_set))]
    confusion = np.zeros((4, 4), dtype=np.int64)
    np.add.at(confusion, ([example.label for example in test_set], predicted), 1)
    return Metrics(confusion)


def train(
    model: Model,
    train_set: Sequence[EncodedExample],
    dev_set: Sequence[EncodedExample],
    config: TrainConfig,
) -> tuple[Model, list[EpochStats]]:
    """Train in place; returns (model restored to its best dev epoch, history).

    Early stopping: training stops once dev accuracy has failed to improve
    for more than `patience` consecutive epochs, and the parameters from the
    best epoch are restored before returning.
    """
    if not train_set:
        raise InputError("train dataset has no examples")
    if not dev_set:
        raise InputError("dev dataset has no examples")
    train_set = list(train_set)
    dev_set = list(dev_set)
    if config.optimizer == "adam":
        optimizer = Adam(model.parameters(), config.lr, config.beta1, config.beta2, config.eps)
    else:
        optimizer = Sgd(model.parameters(), config.lr, config.momentum)
    n = len(train_set)
    history: list[EpochStats] = []
    best_accuracy = -1.0
    best_epoch = 0
    best_values: np.ndarray | None = None
    wait = 0
    step = 0
    for epoch in range(1, config.epochs + 1):
        if config.shuffle:
            order = rng.stream(config.seed, rng.SHUFFLE, epoch).permutation(n)
        else:
            order = np.arange(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            gens = [rng.stream(config.seed, rng.DROPOUT, step, j) for j in range(len(batch))]
            loss = batch_loss(model, batch, training=True, dropout_rngs=gens, accumulate=True)
            if not math.isfinite(loss):
                raise NonFiniteLossError(step)
            optimizer.step()
            epoch_loss += loss * len(batch)
            step += 1
        dev_accuracy = evaluate(model, dev_set).accuracy
        history.append(EpochStats(epoch, epoch_loss / n, dev_accuracy))
        if dev_accuracy > best_accuracy:
            best_accuracy = dev_accuracy
            best_epoch = epoch
            # the final epoch needs no snapshot: nothing can follow to overwrite it
            best_values = model.values.copy() if epoch < config.epochs else None
            wait = 0
        else:
            wait += 1
            if wait > config.patience:
                break
    if best_epoch != history[-1].epoch:
        model.values[...] = best_values
    return model, history


def write_history(history: Sequence[EpochStats], path: str | Path) -> None:
    """JSONL, one epoch per line with fixed key order."""
    rows = ({"epoch": h.epoch, "train_loss": h.train_loss, "dev_accuracy": h.dev_accuracy} for h in history)
    write_json_lines(map(json_line, rows), path)


def read_history(path: str | Path) -> list[EpochStats]:
    """Each line holds exactly an int epoch and a finite train_loss and
    dev_accuracy; anything else is a line-numbered InputError."""
    out = []
    for where, obj in json_lines(path):
        if not isinstance(obj, dict) or obj.keys() != {"epoch", "train_loss", "dev_accuracy"}:
            raise InputError(f"{where}: a history line holds exactly the keys 'epoch', 'train_loss' and 'dev_accuracy'")
        if type(obj["epoch"]) is not int:
            raise InputError(f"{where}: 'epoch' must be an integer")
        for key in ("train_loss", "dev_accuracy"):
            if type(obj[key]) not in (int, float) or not abs(obj[key]) <= sys.float_info.max:  # also false for nan
                raise InputError(f"{where}: {key!r} must be a finite number")
        out.append(EpochStats(obj["epoch"], float(obj["train_loss"]), float(obj["dev_accuracy"])))
    return out
