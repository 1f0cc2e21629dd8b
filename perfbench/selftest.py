"""Self-test of the benchmark at gradient-check sizes; runs in seconds.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json untraced and traced with tiny model
dimensions (the `--set` overrides of `workloads.tiny`) and checks that:

* every operation passed its oracle;
* the result objects carry exactly BENCHMARK.json's end-to-end metrics
  (untraced) and per-layer metrics (traced), each with its unit and a
  finite value;
* the traced run wrote the same checkpoint, history, soft-label, transfer,
  split and predict bytes as the untraced run (manifests carry a timestamp
  and are not compared);
* uninstalling the tracer restores every binding it replaced;
* the arithmetic oracles pass on a tiny model and fail once its backward
  or its Adam step is changed by a part in a thousand or a billion;
* the full-scale inputs of two seeds have the same properties within
  PROPERTY_TOLERANCE, so a claim made on one seed can be re-checked on
  another.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run
import workloads
from tracing import Tracer
from workloads import SCALES, input_properties, make_inputs, tiny

from quadcode import models, text_encoding
from quadcode.tensor_nn import ops
from quadcode.tensor_nn.optim import Adam

SEED = 7

# Counts (sizes, the vocabulary reached) must match exactly; shares may
# differ by this much absolute, means by this much relative.
PROPERTY_TOLERANCE = 0.1
EXACT_PROPERTIES = ("source_sentences", "target_records", "input_rows", "input_length", "softlabel_hit_ratio")


def _bindings() -> dict:
    """Every module- and class-level binding the tracer may replace."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("quadcode"):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for owner in (models.WordCnn, models.CharCnn, text_encoding.WordEncoder, text_encoding.CharEncoder, Adam, ops):
        out.update({(repr(owner), k): v for k, v in vars(owner).items()})
    return out


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


class _SkewedAdam(Adam):
    """Adam whose step is off by a part in a billion."""

    def step(self) -> None:
        super().step()
        for p in self.params:
            p.value *= 1 + 1e-9


def _oracle_fails(check, model, examples) -> bool:
    try:
        check(model, examples, SEED)
    except AssertionError:
        return True
    return False


def _check_oracles() -> None:
    def fresh():
        model = models.build_word_cnn(models.tiny_word_config(), seed=SEED)
        return model, models.make_gradcheck_examples(model, count=2, seed=SEED)

    grads = lambda model, examples, seed: workloads._check_gradients(model, examples[0], seed)  # noqa: E731
    _check(not _oracle_fails(grads, *fresh()), "gradient check fails on a correct model")
    _check(not _oracle_fails(workloads._check_adam, *fresh()), "Adam check fails on a correct step")

    model, examples = fresh()
    backward = model.backward_from_logits
    model.backward_from_logits = lambda caches, grad: backward(caches, grad * (1 + 1e-3))
    _check(_oracle_fails(grads, model, examples), "gradient check passes a skewed backward")
    workloads.Adam = _SkewedAdam
    try:
        _check(_oracle_fails(workloads._check_adam, *fresh()), "Adam check passes a skewed step")
    finally:
        workloads.Adam = Adam
    print("arithmetic oracles: pass on correct code, fail on a skewed backward and Adam step")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    _check(sorted(w["name"] for w in spec["workloads"]) == sorted(SCALES), "BENCHMARK.json names every workload")
    work = run.ROOT / ".perfbench" / "selftest"
    try:
        for workload, scale in SCALES.items():
            digests = {}
            for trace in (False, True):
                shutil.rmtree(work, ignore_errors=True)
                result, detail = run.measure(workload, SEED, 0.0, trace, work, tiny(scale))
                label = f"{workload} trace={int(trace)}"
                _check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                       f"{label}: operations failed: {detail['failures']}")
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                _check(units == want[trace], f"{label}: metric names or units differ from BENCHMARK.json: "
                                             f"{sorted(set(units.items()) ^ set(want[trace].items()))}")
                _check(all(math.isfinite(m["value"]) for m in result["metrics"].values()), f"{label}: non-finite value")
                digests[trace] = detail["output_digests"]
            _check(digests[False] == digests[True], f"{workload}: traced outputs differ from untraced outputs")
            _check(set(digests[False]) == {"softlabel", "transfer", "split", "train", "predict"},
                   f"{workload}: not every output was compared")
            print(f"{workload}: ok ({len(want[False])} end-to-end, {len(want[True])} per-layer metrics, "
                  "traced outputs byte-identical)")

        for workload, scale in SCALES.items():
            props = []
            for seed in (1, 2):
                shutil.rmtree(work, ignore_errors=True)
                props.append(input_properties(scale, seed, make_inputs(scale, seed, work)))
            for name, first in props[0].items():
                second = props[1][name]
                if name in EXACT_PROPERTIES:
                    ok = first == second
                elif name.endswith("_share"):
                    ok = abs(first - second) <= PROPERTY_TOLERANCE
                elif isinstance(first, dict):
                    ok = first.keys() == second.keys()
                else:
                    ok = abs(first - second) <= PROPERTY_TOLERANCE * abs(first)
                _check(ok, f"{workload}: property {name} is {first} for seed 1 but {second} for seed 2")
            print(f"{workload}: seeds 1 and 2 have the same input properties")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _check_oracles()
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    _check(_bindings() != before, "install replaced nothing")
    tracer.uninstall()
    after = _bindings()
    _check(before.keys() == after.keys() and all(before[k] is after[k] for k in before),
           "uninstall left wrapped bindings behind")
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
