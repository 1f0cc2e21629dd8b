"""The two sentence classifiers and their checkpoint format.

Word route: embedding feeding three parallel conv branches (kernel widths
3/4/5, 256 frames each), local maxpool(2), a global max over the remaining
time steps, concat to 768 features, then dense 150 -> dense 4 with dropout
in front of both dense layers.

Char route: character embedding feeding a four-conv stack
(256x7 pool 3, 256x3, 256x3, 256x3 pool 3), flatten, then
dense 1024 -> dense 1024 -> dense 4 with dropout in front of the two
hidden dense layers.

Defaults are the full-scale dimensions above; every width is configurable
so the same code runs desk-scale fixtures and gradient checks.

Every conv and pool is a window (width w, stride s; a pool's stride is
its width) that turns L positions into (L - w) // s + 1. _window_lengths
alone applies that law: to a config's windows when it is made (a config
too short to build names its first layer left with no output), when a
model sizes its global pool or flatten, and to the layers that open seq
when an inference forward picks its live prefix.

Each model is an Embedding plus one named layer list, seq; the word
model's seq starts with ("concat", Branches(...)), its three branches.
One walk over [("embedding", embedding), *seq] serves both (Model):
forward_logits takes (N, L) indices and returns (N, 4) logits with a
cache list holding one entry per layer of the walk, and
backward_from_logits takes the (N, 4) logit gradient and pops that list
empty. An inference forward of the char model over input that ends in PAD
runs the embedding and the conv stack on the live prefix only and repeats
their last output column over the PAD tail (Model._live_prefix), cut
where the windows and tiles that Conv1d, ReLU and MaxPool1d declare
allow (the GEMM tile rule lives on Conv1d, tensor_nn.layers). INFER
logits are bit-identical to those of a caching forward.
Shapes named per layer (shape_trace, the docs above) are those of one
example, without the batch axis.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from itertools import takewhile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import InputError
from .tensor_nn import ops
from .tensor_nn.layers import (
    INFER,
    Branches,
    Conv1d,
    Dense,
    Dropout,
    Embedding,
    Flatten,
    MaxPool1d,
    Parameter,
    PassContext,
    ReLU,
    batch_loss,  # noqa: F401  (the training loss is public as models.batch_loss)
    run_layers,
    unwind_layers,
)
from .text_encoding import CharEncoder, EncodedExample, TextEncodingError, Vocabulary, WordEncoder


class InvalidConfigError(InputError):
    pass


class CheckpointError(InputError):
    pass


# --- configs ------------------------------------------------------------------


def _positive(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidConfigError(f"{name} must be an integer >= 1, got {value!r}")


def _check_head(classes: int, dropout: float) -> None:
    """The fields both configs share: the int 4 classes and a dropout rate in [0, 1)."""
    if type(classes) is not int or classes != 4:
        raise InvalidConfigError(f"classifier is four-way, got classes={classes!r}")
    if not isinstance(dropout, (int, float)) or isinstance(dropout, bool) or not 0.0 <= dropout < 1.0:
        raise InvalidConfigError(f"dropout must be a number in [0, 1), got {dropout!r}")


def _flag(name: str, value: bool) -> None:
    if not isinstance(value, bool):
        raise InvalidConfigError(f"{name} must be true or false, got {value!r}")


@dataclass(frozen=True)
class WordCnnConfig:
    vocab_size: int
    embed_dim: int = 128
    length: int = 64
    frames: int = 256
    kernels: tuple[int, ...] = (3, 4, 5)
    pool: int = 2
    hidden: int = 150
    classes: int = 4
    dropout: float = 0.5
    embeddings_trainable: bool = True

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if len(self.kernels) != 3 or len(set(self.kernels)) != 3:
            raise InvalidConfigError(f"need exactly three distinct kernel widths, got {self.kernels}")
        _check_head(self.classes, self.dropout)
        _flag("embeddings_trainable", self.embeddings_trainable)
        for name in ("vocab_size", "embed_dim", "length", "frames", "pool", "hidden"):
            _positive(name, getattr(self, name))
        for kernel in self.kernels:
            _positive("kernel", kernel)
            _window_lengths(self.length, _branch_windows(self, kernel))
        if self.vocab_size < 2:
            raise InvalidConfigError("vocab_size must cover PAD and UNK (>= 2)")


class ConvSpec(NamedTuple):
    """One conv layer of the char stack; a checkpoint header stores it as [frames, kernel, pool]."""

    frames: int
    kernel: int
    pool: int | None = None


@dataclass(frozen=True)
class CharCnnConfig:
    alphabet_size: int
    embed_dim: int = 32
    length: int = 512
    convs: tuple[ConvSpec, ...] = (
        ConvSpec(256, 7, 3),
        ConvSpec(256, 3),
        ConvSpec(256, 3),
        ConvSpec(256, 3, 3),
    )
    hidden: tuple[int, ...] = (1024, 1024)
    classes: int = 4
    dropout: float = 0.5
    one_hot: bool = False

    def __post_init__(self):
        object.__setattr__(self, "convs", tuple(ConvSpec(*spec) for spec in self.convs))
        object.__setattr__(self, "hidden", tuple(self.hidden))
        _check_head(self.classes, self.dropout)
        _flag("one_hot", self.one_hot)
        if not self.convs:
            raise InvalidConfigError("need at least one conv layer")
        if not self.hidden:
            raise InvalidConfigError("need at least one hidden dense layer")
        for name in ("alphabet_size", "embed_dim", "length"):
            _positive(name, getattr(self, name))
        for h in self.hidden:
            _positive("hidden units", h)
        for spec in self.convs:
            _positive("frames", spec.frames)
            _positive("kernel", spec.kernel)
            if spec.pool is not None:
                _positive("pool", spec.pool)
        if self.alphabet_size < 2:
            raise InvalidConfigError("alphabet_size must cover PAD and UNK (>= 2)")
        if self.one_hot and self.embed_dim != self.alphabet_size:
            raise InvalidConfigError(f"one_hot requires embed_dim == alphabet_size ({self.alphabet_size}), got {self.embed_dim}")
        _window_lengths(self.length, _stack_windows(self))


def _window_lengths(length: int, windows: list[tuple[str, tuple[int, int]]]) -> list[int]:
    """Output length after each named (width, stride) window, applied in turn
    to length input positions: L positions give (L - width) // stride + 1.
    The first window left with no output raises, naming its layer."""
    lengths = []
    out = length
    for name, (width, stride) in windows:
        out = (out - width) // stride + 1
        if out < 1:
            raise InvalidConfigError(f"{name}: output length {out} < 1 for input length {length}")
        lengths.append(out)
    return lengths


def _branch_windows(config: WordCnnConfig, kernel: int) -> list[tuple[str, tuple[int, int]]]:
    """The windows of one word branch: its conv, then its local pool."""
    return [(f"branch_k{kernel}.conv", (kernel, 1)), (f"branch_k{kernel}.pool", (config.pool, config.pool))]


def _stack_windows(config: CharCnnConfig) -> list[tuple[str, tuple[int, int]]]:
    """The windows of the char conv stack: each conv, then its pool if it has one."""
    windows = []
    for i, spec in enumerate(config.convs, start=1):
        windows.append((f"conv{i}", (spec.kernel, 1)))
        if spec.pool is not None:
            windows.append((f"conv{i}.pool", (spec.pool, spec.pool)))
    return windows


def implied_param_count(config: WordCnnConfig | CharCnnConfig) -> int:
    """Parameter count of the model a config builds, computed without building it."""
    if isinstance(config, WordCnnConfig):
        c = config
        convs = sum(c.frames * (c.embed_dim * k + 1) for k in c.kernels)
        return c.vocab_size * c.embed_dim + convs + (3 * c.frames + 1) * c.hidden + (c.hidden + 1) * c.classes
    count = config.alphabet_size * config.embed_dim
    channels = config.embed_dim
    for spec in config.convs:
        count += spec.frames * (channels * spec.kernel + 1)
        channels = spec.frames
    width = channels * _window_lengths(config.length, _stack_windows(config))[-1]
    for units in (*config.hidden, config.classes):
        count += (width + 1) * units
        width = units
    return count


# --- models -------------------------------------------------------------------


def _init_embedding(seed: int | None, rows: int, dim: int) -> np.ndarray:
    """The embedding init: uniform(-0.25, 0.25) from the embedding stream,
    or zeros when seed is None."""
    if seed is None:
        return np.zeros((rows, dim))
    return rng.stream(seed, rng.EMBED).uniform(-0.25, 0.25, size=(rows, dim))


class Model:
    """Both models: an embedding plus one named layer list, seq, walked as
    [("embedding", embedding), *seq]. seed=None builds the same layers with
    zero-filled parameters and draws no random numbers, for a caller that
    overwrites every parameter."""

    def _layers(self) -> list[tuple[str, object]]:
        return [("embedding", self.embedding), *self.seq]

    def parameters(self) -> list[Parameter]:
        return [p for _, layer in self._layers() for p in layer.params]

    def forward_logits(self, indices: np.ndarray, ctx: PassContext):
        """(N, L) indices -> ((N, classes) logits, caches for the backward).

        An inference pass (no backward follows, no trace) over input that
        ends in PAD runs the embedding and the position-local layers that
        open seq on the live prefix alone (_live_prefix), then repeats their
        last output column out to the full input's output length; the rest
        of seq runs as in the full walk.
        """
        caches: list = []
        layers = self._layers()
        if not ctx.backward_follows and ctx.trace is None and (prefix := self._live_prefix(indices)):
            local, cut, length = prefix
            x = run_layers(layers[: 1 + local], indices[:, :cut], ctx, caches)
            x = np.pad(x, ((0, 0), (0, 0), (0, length - x.shape[2])), mode="edge")
            return run_layers(layers[1 + local :], x, ctx, caches), caches
        return run_layers(layers, indices, ctx, caches), caches

    def _live_prefix(self, indices: np.ndarray) -> tuple[int, int, int] | None:
        """(local, cut, length) for (N, L) indices, or None to walk them whole.

        The first local layers of seq are position-local, and length is their
        output length on the full input. From the batch's last non-PAD
        position on, every position looks up the same PAD row, so every
        output column whose window lies there repeats one value. cut < L is
        the shortest prefix whose last output column is such a column and
        whose layers, like the full input's, have whole tiles of output
        columns (each layer's declared window and tile, tensor_nn.layers).
        Input of any length but the config's, which the config was checked
        against, walks whole, where a stack it is too short for fails on shape.
        """
        local = list(takewhile(lambda pair: hasattr(pair[1], "window"), self.seq))
        windows = [(name, layer.window) for name, layer in local]
        if not windows or indices.ndim != 2 or indices.shape[1] != self.config.length:
            return None
        n, full = indices.shape

        def tiled(length: int) -> bool:
            return all(n * out % layer.tile == 0 for out, (_, layer) in zip(_window_lengths(length, windows), local))

        if not tiled(full):
            return None
        live = np.flatnonzero(indices.any(axis=0))
        tail = live[-1] + 1 if live.size else 0  # the first position of the PAD tail
        for _, (_, stride) in windows:
            tail = -(-tail // stride)
        cut = tail + 1  # output columns up to and including the first tail column
        for _, (width, stride) in reversed(windows):
            cut = (cut - 1) * stride + width
        while cut < full and not tiled(cut):
            cut += 1
        return (len(windows), cut, _window_lengths(full, windows)[-1]) if cut < full else None

    def backward_from_logits(self, caches: list, grad: np.ndarray) -> None:
        """Write every parameter's gradient from the (N, classes) logit
        gradient. Consumes caches: a layer's cache is freed once its
        backward has returned."""
        unwind_layers(self._layers(), caches, grad)


class WordCnn(Model):
    kind = "word"

    def __init__(self, config: WordCnnConfig, seed: int | None):
        self.config = config
        init = None if seed is None else rng.stream(seed, rng.INIT)
        table = _init_embedding(seed, config.vocab_size, config.embed_dim)
        self.embedding = Embedding(table, trainable=config.embeddings_trainable)
        self.branches: list[list[tuple[str, object]]] = []
        for kernel in config.kernels:
            pool_len = _window_lengths(config.length, _branch_windows(config, kernel))[-1]
            prefix = f"branch_k{kernel}"
            self.branches.append([
                (f"{prefix}.conv", Conv1d(config.embed_dim, config.frames, kernel, init, prefix)),
                (f"{prefix}.relu", ReLU()),
                (f"{prefix}.pool", MaxPool1d(config.pool)),
                (f"{prefix}.global_pool", MaxPool1d(pool_len)),
                (f"{prefix}.flatten", Flatten()),
            ])
        self.seq = [
            ("concat", Branches(self.branches)),
            ("dropout1", Dropout(config.dropout)),
            ("fc1", Dense(3 * config.frames, config.hidden, init, "fc1")),
            ("fc1.relu", ReLU()),
            ("dropout2", Dropout(config.dropout)),
            ("fc2", Dense(config.hidden, config.classes, init, "fc2")),
        ]
        self.head = self.seq[1:]  # perfbench/tracing.py reads self.branches and self.head

    forward_logits = Model.forward_logits  # perfbench/tracing.py patches each class's own


class CharCnn(Model):
    kind = "char"

    def __init__(self, config: CharCnnConfig, seed: int | None):
        self.config = config
        init = None if seed is None else rng.stream(seed, rng.INIT)
        if config.one_hot:
            table = np.eye(config.alphabet_size)
        else:
            table = _init_embedding(seed, config.alphabet_size, config.embed_dim)
        self.embedding = Embedding(table, trainable=not config.one_hot)
        seq: list[tuple[str, object]] = []
        channels = config.embed_dim
        for i, spec in enumerate(config.convs, start=1):
            seq.append((f"conv{i}", Conv1d(channels, spec.frames, spec.kernel, init, f"conv{i}")))
            seq.append((f"conv{i}.relu", ReLU()))
            if spec.pool is not None:
                seq.append((f"conv{i}.pool", MaxPool1d(spec.pool)))
            channels = spec.frames
        seq.append(("flatten", Flatten()))
        width = channels * _window_lengths(config.length, _stack_windows(config))[-1]
        for j, units in enumerate(config.hidden, start=1):
            seq.append((f"dropout{j}", Dropout(config.dropout)))
            seq.append((f"fc{j}", Dense(width, units, init, f"fc{j}")))
            seq.append((f"fc{j}.relu", ReLU()))
            width = units
        out_name = f"fc{len(config.hidden) + 1}"
        seq.append((out_name, Dense(width, config.classes, init, out_name)))
        self.seq = seq

    forward_logits = Model.forward_logits  # perfbench/tracing.py patches each class's own


def build_word_cnn(config: WordCnnConfig, seed: int = 0) -> WordCnn:
    return WordCnn(config, seed)


def tiny_word_config() -> WordCnnConfig:
    """Gradient-check scale: every layer present, every tensor small."""
    return WordCnnConfig(vocab_size=50, embed_dim=16, length=16, frames=8,
                         kernels=(3, 4, 5), pool=2, hidden=12, dropout=0.5)


def tiny_char_config() -> CharCnnConfig:
    """Same four-conv topology as the full stack, shrunk to length 32.

    The full-scale pools of 3 are narrowed to 2 because kernel 7 plus two
    pool-3 stages needs at least 33 input positions.
    """
    return CharCnnConfig(alphabet_size=8, embed_dim=8, length=32,
                         convs=(ConvSpec(6, 7, 2), ConvSpec(6, 3), ConvSpec(6, 3), ConvSpec(6, 3, 2)),
                         hidden=(16, 16), dropout=0.5)


# --- model-level helpers --------------------------------------------------------


def predict(model: Model, indices: np.ndarray):
    """Inference forward (dropout off, no caches). Ties take the lowest class index.

    (L,) indices give (class, probs of shape (4,)); an (N, L) batch gives
    (classes of shape (N,), probs of shape (N, 4)) from one batched pass.
    """
    indices = np.asarray(indices)
    single = indices.ndim == 1
    logits, _ = model.forward_logits(indices[None] if single else indices, INFER)
    probs = ops.softmax(logits)
    classes = np.argmax(probs, axis=1)
    return (int(classes[0]), probs[0]) if single else (classes, probs)


def shape_trace(model: Model) -> list[tuple[str, tuple[int, ...]]]:
    """(layer name, per-example output shape) per layer from a caching forward
    of one all-PAD input, which walks the whole input."""
    ctx = PassContext(trace=[])
    model.forward_logits(np.zeros((1, model.config.length), dtype=np.int64), ctx)
    return [(name, shape[1:]) for name, shape in ctx.trace]


def parameter_count(model: Model) -> int:
    return sum(p.size for p in model.parameters())


def make_gradcheck_examples(model: Model, count: int = 2, seed: int = 0) -> list[EncodedExample]:
    """Seeded random inputs for finite-difference checks.

    Indices are drawn from [1, size) so the PAD row, whose value is pinned
    at zero, never influences the loss.
    """
    gen = rng.stream(seed, rng.FIXTURE)
    size = _input_size(model.config)
    length = model.config.length
    return [
        EncodedExample(gen.integers(1, size, size=length, dtype=np.int64), int(gen.integers(0, 4)))
        for _ in range(count)
    ]


# --- checkpoints -----------------------------------------------------------------
#
# Layout: magic "QCNN" | u32 version | u64 header length | canonical JSON
# header | float64-LE parameter blobs in declaration order | probe inputs
# (int64-LE) | probe logits (float64-LE) | sha256 of everything before it.
# The header carries config, encoder, quad-map digest, and run metadata, so
# a checkpoint alone suffices to restore and verify the model. Version 2
# stores the encoder as its Vocabulary's two columns, {"tokens", "counts"};
# its kind is the model's and its length config.length. Version 1 stored
# {"kind", "length", "entries": [{"token", "index", "count"}, ...]}.

_MAGIC = b"QCNN"
_VERSION = 2
_PROBE_COUNT = 4


_CONFIG_CLASSES = {"word": WordCnnConfig, "char": CharCnnConfig}


def _config_from_obj(path, kind: str, obj: dict):
    """The header's "config" object back into the config it was written from:
    exactly the config class's fields, by name."""
    cls = _CONFIG_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    names = {f.name for f in fields(cls)}
    if not isinstance(obj, dict) or obj.keys() != names:
        raise CheckpointError(f"{path}: bad {kind} config in checkpoint header: want exactly the keys {sorted(names)}")
    try:
        return cls(**obj)
    except (TypeError, ValueError, InvalidConfigError) as exc:
        raise CheckpointError(f"{path}: bad {kind} config in checkpoint header: {exc}") from None


def _input_size(config: WordCnnConfig | CharCnnConfig) -> int:
    return config.vocab_size if isinstance(config, WordCnnConfig) else config.alphabet_size


_ENCODER_CLASSES = {"word": WordEncoder, "char": CharEncoder}


def _vocabulary(encoder: WordEncoder | CharEncoder) -> Vocabulary:
    return encoder.vocab if isinstance(encoder, WordEncoder) else encoder.alphabet


def _check_encoder_fits(path, kind: str, config: WordCnnConfig | CharCnnConfig, encoder) -> None:
    """An encoder must emit indices the model can look up, at the model's length."""
    want = _ENCODER_CLASSES[kind]
    size = _vocabulary(encoder).size
    if not isinstance(encoder, want) or size != _input_size(config) or encoder.length != config.length:
        raise CheckpointError(
            f"{path}: encoder ({type(encoder).__name__}, {size} entries, length {encoder.length}) does not fit "
            f"the {kind} model (input size {_input_size(config)}, length {config.length})"
        )


def _v1_encoder_columns(path, obj) -> tuple[str, int, dict]:
    """A version-1 encoder as (kind, length, the version-2 columns); each
    entry's index must be its id, so the columns lose nothing."""
    v1 = obj if isinstance(obj, dict) else {}
    kind, length, entries = v1.get("kind"), v1.get("length"), v1.get("entries")
    if kind not in ("word", "char") or type(length) is not int or not isinstance(entries, list):
        raise CheckpointError(
            f'{path}: bad version 1 encoder: want a "kind" of "word" or "char", an integer "length" and an "entries" list'
        )
    for entry_no, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict):
            raise TextEncodingError(f"{path}: vocabulary entry {entry_no}: expected a JSON object")
        if missing := [key for key in ("token", "index", "count") if key not in entry]:
            raise TextEncodingError(f"{path}: vocabulary entry {entry_no}: missing key {missing[0]!r}")
        if type(entry["index"]) is not int or entry["index"] != entry_no + 1:
            raise TextEncodingError(
                f"{path}: vocabulary entry {entry_no}: index {entry['index']!r} is not dense, expected {entry_no + 1}"
            )
    return kind, length, {"tokens": [e["token"] for e in entries], "counts": [e["count"] for e in entries]}


def _encoder_from_obj(path, version: int, kind: str, config: WordCnnConfig | CharCnnConfig, obj):
    """The header's "encoder" back into the encoder it was written from, in
    one validating pass, checked to fit the model."""
    if obj is None:
        return None
    encoder_kind, length = kind, config.length
    if version == 1:
        encoder_kind, length, obj = _v1_encoder_columns(path, obj)
    if not isinstance(obj, dict) or obj.keys() != {"tokens", "counts"}:
        raise CheckpointError(f'{path}: encoder must hold exactly the keys "counts" and "tokens"')
    tokens, counts = obj["tokens"], obj["counts"]
    if not isinstance(tokens, list) or not isinstance(counts, list) or len(tokens) != len(counts):
        raise CheckpointError(f"{path}: encoder tokens and counts must be two lists of equal length")
    for entry_no, (token, count) in enumerate(zip(tokens, counts), start=1):
        if type(token) is not str or type(count) is not int:  # a JSON true is a bool, not an int
            raise TextEncodingError(f"{path}: vocabulary entry {entry_no}: bad field types")
        if count < 0:
            raise TextEncodingError(f"{path}: vocabulary entry {entry_no}: negative count {count}")
    try:  # a duplicate token or a multi-codepoint alphabet entry
        encoder = _ENCODER_CLASSES[encoder_kind](Vocabulary(tokens, counts), length)
    except TextEncodingError as exc:
        raise TextEncodingError(f"{path}: {exc}") from None
    _check_encoder_fits(path, kind, config, encoder)
    return encoder


def _probe_inputs(model: Model, probe_seed: int) -> np.ndarray:
    gen = rng.stream(probe_seed, rng.PROBE)
    return gen.integers(0, _input_size(model.config), size=(_PROBE_COUNT, model.config.length), dtype=np.int64)


def _raw(array: np.ndarray, dtype: str) -> memoryview:
    """The array's bytes in the file's dtype, without a copy when it already matches."""
    return memoryview(np.ascontiguousarray(array, dtype=dtype)).cast("B")


def save_checkpoint(
    model: Model,
    path: str | Path,
    *,
    encoder=None,
    quad_map_digest: str | None = None,
    metadata: dict | None = None,
    probe_seed: int = 0,
) -> None:
    """Write the binary checkpoint; byte-identical for identical state.

    An encoder that does not fit the model is refused before the file is
    opened. Each piece goes to the file and the digest straight from its
    array's memory, so the save holds no copy of the file.
    """
    if encoder is not None:
        _check_encoder_fits(path, model.kind, model.config, encoder)
    vocab = None if encoder is None else _vocabulary(encoder)
    params = model.parameters()
    probe_in = _probe_inputs(model, probe_seed)
    probe_logits = model.forward_logits(probe_in, INFER)[0]
    header = {
        "kind": model.kind,
        "config": asdict(model.config),
        "encoder": None if vocab is None else {"tokens": vocab.tokens, "counts": vocab.counts},
        "quadmap_digest": quad_map_digest,
        "metadata": metadata or {},
        "params": [{"name": p.name, "shape": list(p.value.shape)} for p in params],
        "probe": {"count": _PROBE_COUNT, "seed": probe_seed},
    }
    header_bytes = json.dumps(header, ensure_ascii=False, separators=(",", ":"), sort_keys=True).encode("utf-8")
    pieces = [_MAGIC, struct.pack("<IQ", _VERSION, len(header_bytes)), header_bytes]
    pieces += [_raw(p.value, "<f8") for p in params]
    pieces += [_raw(probe_in, "<i8"), _raw(probe_logits, "<f8")]
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for piece in pieces:
            digest.update(piece)
            fh.write(piece)
        fh.write(digest.digest())


@dataclass
class LoadedCheckpoint:
    model: Model
    encoder: object | None
    quad_map_digest: str | None
    metadata: dict
    sha256: str  # hex digest of the whole file, as a manifest records it


def _read_aligned(path: str | Path) -> np.ndarray:
    """The file's bytes, read once into a fresh buffer placed so that the
    parameter block (after the 16-byte preamble and the header) starts on
    an 8-byte boundary. The header length only sets that shift; load_checkpoint
    checks it afterwards like any other field."""
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        header_len = struct.unpack_from("<Q", head, 8)[0] if len(head) == 16 else 0
        raw = np.empty(size + 8, dtype=np.uint8)
        shift = -(raw.ctypes.data + 16 + header_len) % 8
        data = raw[shift : shift + size]
        data[: len(head)] = np.frombuffer(head, dtype=np.uint8)
        got = len(head)
        view = memoryview(data)
        while got < size and (n := fh.readinto(view[got:])):
            got += n
    return data[:got]


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    """Restore a model and verify digest plus bit-exact probe predictions.

    Checks run in file order: magic, version (1 or 2), the digest before
    the header is parsed, the header (its metadata an object, its quad-map
    digest a string or null), the encoder's tokens and counts (a
    version-1 encoder's entries are first turned into those two columns)
    and that the encoder fits the model, the file size against the
    header before the model is allocated, then every embedding entry
    finite and every probe index in range before the probes are replayed
    (a bad weight anywhere else shows in the replayed logits). The file is
    read once into one aligned buffer and hashed once; every parameter of
    the returned model is a writable float64 view into that buffer, so the
    load makes no second copy of the parameters and draws no init.
    """
    buf = _read_aligned(path)
    data = memoryview(buf)
    if len(data) < 16 + 32 or data[:4] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad or truncated magic)")
    version = struct.unpack_from("<I", data, 4)[0]
    if version not in (1, _VERSION):
        raise CheckpointError(f"{path}: checkpoint format version {version}, this build reads versions 1 and {_VERSION}")
    digest = hashlib.sha256(data[:-32])
    if digest.digest() != data[-32:]:
        raise CheckpointError(f"{path}: integrity digest does not match contents")
    digest.update(data[-32:])
    header_len = struct.unpack_from("<Q", data, 8)[0]
    offset = 16
    if offset + header_len > len(data) - 32:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(str(data[offset : offset + header_len], "utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON and overlong integers are all ValueErrors
        raise CheckpointError(f"{path}: unreadable header: {exc}") from None
    offset += header_len
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    metadata = header.get("metadata", {})
    quad_map_digest = header.get("quadmap_digest")
    if not isinstance(metadata, dict):
        raise CheckpointError(f"{path}: header metadata is not a JSON object")
    if not (quad_map_digest is None or isinstance(quad_map_digest, str)):
        raise CheckpointError(f"{path}: header quadmap_digest is neither a string nor null")

    kind = header.get("kind")
    config = _config_from_obj(path, kind, header.get("config"))
    encoder = _encoder_from_obj(path, version, kind, config, header.get("encoder"))
    probe = header.get("probe")
    count = probe.get("count") if isinstance(probe, dict) else None
    if type(count) is not int or count < 1:  # a JSON true is a bool, not an int
        raise CheckpointError(f"{path}: bad probe block description {probe!r}")
    length = config.length
    # Sizes come from the header, so check them against the file before allocating.
    if offset + (implied_param_count(config) + count * (length + config.classes)) * 8 != len(data) - 32:
        raise CheckpointError(f"{path}: file size does not match the model its header describes")
    model = WordCnn(config, seed=None) if kind == "word" else CharCnn(config, seed=None)

    def take(dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        nonlocal offset
        out = buf[offset : offset + math.prod(shape) * 8].view(dtype).reshape(shape)
        offset += out.nbytes
        return out

    params = model.parameters()
    declared = header.get("params")
    if not isinstance(declared, list) or len(declared) != len(params):
        raise CheckpointError(f"{path}: header parameter list does not match the {len(params)} model parameters")
    for p, meta in zip(params, declared):
        if not isinstance(meta, dict) or meta.get("name") != p.name or meta.get("shape") != list(p.value.shape):
            raise CheckpointError(f"{path}: parameter mismatch at {p.name!r} vs header {meta!r}")
        p.value = take("<f8", p.value.shape)

    # A forward reads only the embedding rows its indices name, so neither
    # the probe replay nor a later predict may meet a bad row unchecked.
    if not np.isfinite(model.embedding.param.value).all():
        raise CheckpointError(f"{path}: non-finite values in the embedding table")
    probe_in = take("<i8", (count, length))
    want = take("<f8", (count, config.classes))
    if probe_in.min() < 0 or probe_in.max() >= _input_size(config):
        raise CheckpointError(f"{path}: probe inputs out of range for an input size of {_input_size(config)}")
    try:
        got = model.forward_logits(probe_in, INFER)[0]
    except ops.NonFiniteTensorError:
        raise CheckpointError(f"{path}: restored model computes non-finite values on its probe inputs") from None
    if not np.array_equal(got, want):
        raise CheckpointError(f"{path}: restored model disagrees with stored probe logits")

    return LoadedCheckpoint(
        model=model,
        encoder=encoder,
        quad_map_digest=quad_map_digest,
        metadata=metadata,
        sha256=digest.hexdigest(),
    )
