"""Per-layer spans recorded from outside the package.

`Tracer.install()` wraps the public functions of the quadcode modules (and
the handful of methods named below) in place; `uninstall()` puts the
originals back. Every layer object a model lists by name gets its own
forward/backward wrapper when the model is built. A wrapper does nothing
but call through unless the tracer is active, so outputs are unchanged; the
benchmark proves that by comparing output bytes of traced and untraced
passes.

Each span has a key chosen from its wrapper and the innermost *mode* (the
kind of work its nearest enclosing span stands for, such as a training step
or an evaluation forward). A key accumulates self time: the span's duration
minus the durations of the spans it directly encloses in the same thread.
Spans whose rule yields no key are not recorded, so their time stays with
the enclosing span. Items mapped by `_parallel.ordered_map` run in an
isolated span stack, and the pool's own cost is its wall time minus the
union of its item intervals.
"""

from __future__ import annotations

import sys
import threading
import types
from time import perf_counter

import numpy as np

from quadcode import cli, corpus, experiments, models, rng, softlabel, text_encoding, train_eval
from quadcode.tensor_nn import ops
from quadcode.tensor_nn.layers import Conv1d, Dense, Embedding, MaxPool1d
from quadcode.tensor_nn.optim import Adam

try:  # the thread pool is slated for removal; without it every item runs inline
    from quadcode import _parallel
except ImportError:
    _parallel = None

# Layers reported under their own table name; every other layer object
# (ReLU, dropout, flatten) and the concat and loss ops sum into layer.other.
_NAMED_LAYERS = (Conv1d, Dense, Embedding, MaxPool1d)
_DENSE_LIKE = (Conv1d, Dense)

# Minimal memory traffic of one Adam update per parameter: read value,
# gradient, m and v, write value, m and v, and zero the gradient.
ADAM_BYTES_PER_PARAM = 8 * 8
FROZEN_BYTES_PER_PARAM = 8


def named_layers(model) -> list[tuple[str, object]]:
    """(table name, layer object) in the order the model lists them."""
    pairs = [("embedding", model.embedding)]
    if model.kind == "word":
        for branch in model.branches:
            pairs.extend(branch)
        pairs.extend(model.head)
    else:
        pairs.extend(model.seq)
    return pairs


def flops_per_example(model) -> dict[str, int]:
    """Forward multiply-add FLOPs (2 per MAC) of each conv and dense layer.

    Conv output lengths come from `models.shape_trace`; backward costs
    twice the forward (input and weight gradients).
    """
    out_len = {name: shape[-1] for name, shape in models.shape_trace(model)}
    flops = {}
    for name, layer in named_layers(model):
        if isinstance(layer, Conv1d):
            frames, channels, kernel = layer.w.value.shape
            flops[name] = 2 * frames * channels * kernel * out_len[name]
        elif isinstance(layer, Dense):
            flops[name] = 2 * layer.w.value.size
    return flops


def optimizer_bytes(params) -> int:
    """Minimal bytes one Adam step moves over these parameters."""
    return sum(p.size * (FROZEN_BYTES_PER_PARAM if p.frozen else ADAM_BYTES_PER_PARAM) for p in params)


class _ThreadState:
    __slots__ = ("frames", "modes", "table", "counts")

    def __init__(self, modes=()):
        self.frames: list[float] = []  # child time of each open span
        self.modes: list[str] = list(modes)
        self.table: dict[str, list] = {}  # key -> [self seconds, calls]
        self.counts: dict[str, float] = {}


class Tracer:
    """Wraps the package in place and accumulates self time per span key."""

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._undo: list[tuple[object, str, object]] = []
        self._rows: list[np.ndarray] = []  # embedding indices of the current step
        self._vocab = 0

    # --- span bookkeeping ------------------------------------------------------

    def _new_state(self, modes=()) -> _ThreadState:
        state = _ThreadState(modes)
        self._states.append(state)
        return state

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = self._new_state()
        return state

    def mode(self) -> str | None:
        modes = self._state().modes
        return modes[-1] if modes else None

    def count(self, name: str, n: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def timed(self, key: str, mode: str | None, fn, *args, **kwargs):
        state = self._state()
        state.frames.append(0.0)
        if mode is not None:
            state.modes.append(mode)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            child = state.frames.pop()
            if mode is not None:
                state.modes.pop()
            if state.frames:
                state.frames[-1] += elapsed
            rec = state.table.get(key)
            if rec is None:
                rec = state.table[key] = [0.0, 0]
            rec[0] += elapsed - child
            rec[1] += 1

    def totals(self) -> tuple[dict[str, list], dict[str, float]]:
        """Self seconds and call counts per key, and counters, over all threads."""
        table: dict[str, list] = {}
        counts: dict[str, float] = {}
        for state in list(self._states):
            for key, (secs, calls) in state.table.items():
                rec = table.setdefault(key, [0.0, 0])
                rec[0] += secs
                rec[1] += calls
            for name, n in state.counts.items():
                counts[name] = counts.get(name, 0) + n
        return table, counts

    # --- wrapper factories -----------------------------------------------------

    def _wrap(self, fn, rule, counter=None):
        """rule(args, kwargs) -> (key, mode), or None to call straight through.

        counter(result), when given, runs inside the span on the wrapped
        call's result.
        """
        body = fn
        if counter is not None:
            def body(*args, **kwargs):
                out = fn(*args, **kwargs)
                counter(out)
                return out

        def wrapper(*args, **kwargs):
            if self.active:
                hit = rule(args, kwargs)
                if hit is not None:
                    return self.timed(hit[0], hit[1], body, *args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _always(self, key, mode=None, count=None):
        """Always record under key; count(args, kwargs) adds to counter key."""

        def rule(args, kwargs):
            if count is not None:
                self.count(key, count(args, kwargs))
            return key, mode

        return rule

    def _in_modes(self, table: dict):
        """Key chosen by the innermost mode; modes absent from table pass through."""

        def rule(args, kwargs):
            key = table.get(self.mode())
            return None if key is None else (key, None)

        return rule

    def _rebind(self, orig, name: str, new) -> None:
        """Point every binding of orig under name in the quadcode modules at new."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("quadcode") and getattr(mod, name, None) is orig:
                setattr(mod, name, new)
                self._undo.append((mod, name, orig))

    def _patch_function(self, module, name: str, rule, counter=None) -> None:
        orig = getattr(module, name)
        self._rebind(orig, name, self._wrap(orig, rule, counter))

    def _patch_attr(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_method(self, owner, name: str, rule) -> None:
        self._patch_attr(owner, name, self._wrap(owner.__dict__[name], rule))

    # --- install ---------------------------------------------------------------

    def install(self) -> None:
        f = self._patch_function
        first_len = lambda args, kwargs: len(args[0])  # noqa: E731
        one = lambda args, kwargs: 1  # noqa: E731

        def read_count(records):
            self.count("corpus.read", len(records))

        def match_count(spans):
            self.count("softlabel.match", 1)
            self.count("softlabel.hits", 1 if spans else 0)

        f(cli, "main", lambda args, kwargs: ("cli.self", "cli." + args[0][0]))
        f(cli, "_write_manifest", self._always("cli.manifest", count=one))
        f(models, "load_checkpoint", self._always("models.load.read", "load", one))
        f(models, "save_checkpoint", self._always("models.save", "save", one))
        f(models, "predict", self._always("models.predict", "eval", one))
        f(models, "batch_loss", self._batch_loss_rule)
        f(train_eval, "train", self._always("train_eval.train", "trainloop", one))
        f(train_eval, "evaluate", self._always("train_eval.evaluate", "evaluate", lambda a, k: len(a[1])))
        f(experiments, "build_encoder", self._always("experiments.encoder_fit", "encoder_fit", one))
        f(rng, "stream", self._in_modes({"trainloop": "rng.streams"}))
        f(softlabel, "label_sentence", self._always("softlabel.label", "label"))
        f(softlabel, "tokenize", self._in_modes({"label": "softlabel.tokenize"}))
        f(softlabel, "match_patterns", self._in_modes({"label": "softlabel.match"}), match_count)
        f(corpus, "read_jsonl", self._always("corpus.read"), read_count)
        f(corpus, "read_alignments", self._always("corpus.read"), read_count)
        f(corpus, "write_jsonl", self._always("corpus.write", count=first_len))
        f(corpus, "transfer_labels", self._always("corpus.transfer", count=lambda a, k: len(a[1])))
        f(corpus, "stratified_split", self._always("corpus.split", count=first_len))
        if _parallel is not None:
            self._rebind(_parallel.ordered_map, "ordered_map", self._ordered_map(_parallel.ordered_map))
        digest = self._in_modes({"load": "models.load.digest", "save": "models.save"})
        self._patch_attr(models, "hashlib", types.SimpleNamespace(sha256=self._wrap(models.hashlib.sha256, digest)))
        probe = self._in_modes({"load": "models.load.probe", "save": "models.save"})
        for cls in (models.WordCnn, models.CharCnn):
            self._patch_attr(cls, "__init__", self._model_init(cls.__dict__["__init__"]))
            self._patch_method(cls, "forward_logits", probe)
        for cls in (text_encoding.WordEncoder, text_encoding.CharEncoder):
            self._patch_method(cls, "encode", self._always("text_encoding.encode", "encode", one))
        self._patch_attr(Adam, "step", self._adam_step(Adam.__dict__["step"]))
        step_ops = {"concat": "fwd", "softmax_cross_entropy": "fwd",
                    "concat_backward": "bwd", "softmax_cross_entropy_backward": "bwd"}
        for name, direction in step_ops.items():
            self._patch_method(ops, name, self._in_modes({"step": f"layer.other.{direction}"}))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    # --- special wrappers ------------------------------------------------------

    def _batch_loss_rule(self, args, kwargs):
        if kwargs.get("training"):
            self.count("step.examples", len(args[1]))
            return "models.batch_loss", "step"
        return "models.batch_loss", "loss"

    def _ordered_map(self, orig):
        def ordered_map(fn, items, **kwargs):
            if not self.active:
                return orig(fn, items, **kwargs)
            caller = self._state()
            modes = tuple(caller.modes)
            isolated: dict[int, _ThreadState] = {}
            intervals: list[tuple[float, float]] = []

            def item(x):
                ident = threading.get_ident()
                state = isolated.get(ident)
                if state is None:
                    state = isolated[ident] = self._new_state(modes)
                saved = getattr(self._local, "state", None)
                self._local.state = state
                start = perf_counter()
                try:
                    return fn(x)
                finally:
                    intervals.append((start, perf_counter()))
                    self._local.state = saved

            start = perf_counter()
            out = orig(item, items, **kwargs)
            elapsed = perf_counter() - start
            if caller.frames:
                caller.frames[-1] += elapsed
            rec = caller.table.setdefault("_parallel.self", [0.0, 0])
            rec[0] += elapsed - _covered(intervals)
            rec[1] += 1
            self.count("_parallel.items", len(out))
            return out

        return ordered_map

    def _model_init(self, init):
        def __init__(model, *args, **kwargs):
            if not self.active:
                return init(model, *args, **kwargs)
            key = "models.load.build" if self.mode() == "load" else "models.build"
            self.timed(key, None, init, model, *args, **kwargs)
            for name, layer in named_layers(model):
                self._instrument_layer(name, layer)

        return __init__

    def _instrument_layer(self, name: str, layer) -> None:
        group = name if isinstance(layer, _NAMED_LAYERS) else "other"
        fwd_key, bwd_key = f"layer.{group}.fwd", f"layer.{group}.bwd"
        eval_key = f"layer.{name}.eval" if isinstance(layer, _DENSE_LIKE) else None
        forward, backward = layer.forward, layer.backward
        embedding = isinstance(layer, Embedding)

        def traced_forward(x, ctx):
            if self.active:
                mode = self.mode()
                if mode == "step":
                    if embedding:
                        self._rows.append(np.asarray(x))
                        self._vocab = layer.param.value.shape[0]
                    return self.timed(fwd_key, None, forward, x, ctx)
                if mode == "eval" and eval_key is not None:
                    return self.timed(eval_key, None, forward, x, ctx)
            return forward(x, ctx)

        def traced_backward(cache, grad):
            if self.active and self.mode() == "step":
                return self.timed(bwd_key, None, backward, cache, grad)
            return backward(cache, grad)

        layer.forward = traced_forward
        layer.backward = traced_backward

    def _adam_step(self, step):
        def traced_step(opt):
            if not self.active:
                return step(opt)
            if self._rows:
                rows = np.unique(np.concatenate(self._rows))
                self.count("embedding.rows", int(np.count_nonzero(rows)) / self._vocab)
                self._rows = []
            self.count("optim.steps", 1)
            self.count("optim.bytes", optimizer_bytes(opt.params))
            return self.timed("optim.step", None, step, opt)

        return traced_step


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


# --- per-layer metrics -------------------------------------------------------------

CONV_FC = ("branch_k3.conv", "branch_k4.conv", "branch_k5.conv",
           "conv1", "conv2", "conv3", "conv4", "fc1", "fc2", "fc3")
POOLS = ("branch_k3.pool", "branch_k3.global_pool", "branch_k4.pool", "branch_k4.global_pool",
         "branch_k5.pool", "branch_k5.global_pool", "conv1.pool", "conv4.pool")
TIMED_LAYERS = ("embedding", *CONV_FC, *POOLS, "other")


def pool_workers() -> int:
    return _parallel.worker_count() if _parallel is not None else 1


def layer_metrics(tracer: Tracer, flops: dict[str, int], workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer self times, normalised per unit of work, with their units.

    Train-phase layer times are per optimizer step, evaluation forwards per
    32 records, so the numbers stay comparable when the per-example core
    becomes batched. A layer the workload's model lacks reads 0.
    """
    table, counts = tracer.totals()

    def secs(key):
        return table.get(key, (0.0, 0))[0]

    def per(value, n, unit_scale=1.0):
        return value / n * unit_scale if n else 0.0

    steps = counts.get("optim.steps", 0)
    records = counts.get("models.predict", 0) / 32
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED_LAYERS:
        out[f"layer.{name}.fwd_ms"] = (per(secs(f"layer.{name}.fwd"), steps, 1e3), "ms")
        out[f"layer.{name}.bwd_ms"] = (per(secs(f"layer.{name}.bwd"), steps, 1e3), "ms")
    for name in CONV_FC:
        out[f"layer.{name}.eval_ms"] = (per(secs(f"layer.{name}.eval"), records, 1e3), "ms")
    for name in CONV_FC:
        busy = secs(f"layer.{name}.fwd") + secs(f"layer.{name}.bwd")
        work = 3 * flops.get(name, 0) * counts.get("step.examples", 0)
        out[f"layer.{name}.gflops"] = (per(work, busy, 1e-9), "GFLOP/s")
    out["embedding.useful_row_ratio"] = (per(counts.get("embedding.rows", 0), steps), "ratio")
    out["optim.step_ms"] = (per(secs("optim.step"), steps, 1e3), "ms")
    out["optim.gbps"] = (per(counts.get("optim.bytes", 0), secs("optim.step"), 1e-9), "GB/s")
    out["rng.streams_ms"] = (per(secs("rng.streams"), steps, 1e3), "ms")
    out["models.batch_loss_ms"] = (per(secs("models.batch_loss"), steps, 1e3), "ms")
    out["models.save_ms"] = (per(secs("models.save"), counts.get("models.save", 0), 1e3), "ms")
    loads = counts.get("models.load.read", 0)
    for part in ("read", "digest", "build", "probe"):
        out[f"models.load.{part}_ms"] = (per(secs(f"models.load.{part}"), loads, 1e3), "ms")
    out["models.predict_ms"] = (per(secs("models.predict"), records, 1e3), "ms")
    out["train_eval.evaluate_ms"] = (per(secs("train_eval.evaluate"), counts.get("train_eval.evaluate", 0), 1e3), "ms")
    out["train_eval.train_s"] = (per(secs("train_eval.train"), counts.get("train_eval.train", 0)), "s")
    out["experiments.encoder_fit_ms"] = (
        per(secs("experiments.encoder_fit"), counts.get("experiments.encoder_fit", 0), 1e3), "ms")
    out["text_encoding.encode_us"] = (
        per(secs("text_encoding.encode"), counts.get("text_encoding.encode", 0), 1e6), "us")
    out["parallel.self_ms"] = (per(secs("_parallel.self"), counts.get("_parallel.items", 0) / 1000, 1e3), "ms/1k_items")
    out["parallel.workers"] = (float(workers), "count")
    out["softlabel.tokenize_us"] = (
        per(secs("softlabel.tokenize"), table.get("softlabel.tokenize", (0.0, 0))[1], 1e6), "us")
    out["softlabel.match_us"] = (per(secs("softlabel.match"), counts.get("softlabel.match", 0), 1e6), "us")
    out["softlabel.hit_ratio"] = (per(counts.get("softlabel.hits", 0), counts.get("softlabel.match", 0)), "ratio")
    for part in ("read", "write", "transfer", "split"):
        out[f"corpus.{part}_us"] = (per(secs(f"corpus.{part}"), counts.get(f"corpus.{part}", 0), 1e6), "us")
    out["cli.manifest_ms"] = (per(secs("cli.manifest"), counts.get("cli.manifest", 0), 1e3), "ms")
    out["cli.self_ms"] = (per(secs("cli.self"), table.get("cli.self", (0.0, 0))[1], 1e3), "ms")
    return out
