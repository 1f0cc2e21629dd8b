"""Seeded inputs, the CLI pipeline every workload runs, and its output oracles.

Every workload runs the paper's whole pipeline through the public entry
points: soft-label English sentences with the shipped verb dictionary,
move the labels across an aligned parallel corpus onto the target side,
split it, train a model, load the checkpoint, and annotate held-out
records. The workloads differ in which stage carries the volume:

* word_train_predict: the full-scale word model on Latin-script records
  whose training split holds enough distinct tokens to fill the 20000-row
  vocabulary, with sentence lengths straddling the 64-token input.
* char_train_predict: the full-scale char model on Arabic-script records,
  the paper's cross-lingual char setting.

Both soft-label 12000 news-length sentences and transfer and split
thousands of target records, so the soft-labelling and corpus layers are
timed on every workload.

Inputs come from `quadcode.fixtures` plus this module's own generator, both
keyed by the workload seed; the program only ever sees the written files.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import quadcode
from quadcode import cli, models
from quadcode.config import resolve_settings
from quadcode.corpus import AlignmentPair, read_jsonl, stratified_split, write_alignments, write_jsonl
from quadcode.experiments import build_encoder, encode_labelled
from quadcode.fixtures import make_separable_corpus, make_softlabel_fixture
from quadcode.ontology import CLASSES
from quadcode.softlabel import parse_dictionary, tokenize
from quadcode.tensor_nn.optim import Adam
from quadcode.train_eval import read_history

DICTIONARY = Path(quadcode.__file__).parent / "data" / "sample_verb_dict.txt"

# Non-dictionary words that lengthen the fixture's short sentences towards
# news length; `make_inputs` checks that none of them is a dictionary token,
# so the fixture's expected labels stay the oracle.
NEWS_FILLER = (
    "the", "minister", "government", "capital", "talks", "delegation", "after",
    "during", "week", "president", "spokesman", "said", "in", "a", "statement",
    "province", "northern", "southern", "local", "council", "leaders", "ministry",
    "foreign", "reports", "earlier", "this", "month", "security", "region",
    "according", "sources", "state", "media", "tuesday", "friday", "city",
)

TINY_WORD = ("word.embed_dim=16", "word.length=16", "word.frames=8", "word.hidden=12")
TINY_CHAR = ("char.embed_dim=8", "char.length=32", "char.convs=6x7p2,6x3,6x3,6x3p2", "char.hidden=16,16")

LIGHT_REPS = 2  # softlabel, transfer and split calls per pass

# The arithmetic oracles: a central-difference check of the trained model's
# backward and a replay of two Adam steps against the update rule.
# A step can carry a ReLU or max-pool input across its kink; a conv bias
# feeds hundreds of them. So a coordinate passes when the central or either
# one-sided difference agrees (a kink on one side leaves the other exact),
# at any of these step sizes (the smaller, the rarer a kink).
GRADCHECK_EPS = (1e-5, 1e-6, 1e-7)
GRADCHECK_RANDOM = 3   # seeded coordinates per parameter, besides its largest gradient
ADAM_COORDS = 32       # coordinates compared per parameter, half of them its largest gradients


@dataclass(frozen=True)
class Scale:
    model: str                      # "word" or "char"
    script: str                     # target-side script
    sources: int                    # English sentences soft-labelled
    targets: int                    # target records, most of them aligned
    heldout: int                    # records annotated by predict
    filler: tuple[int, int]         # news filler words added to each source sentence
    tokens: tuple[int, int] | None = None  # word targets: tokens per sentence
    pool: int = 0                   # pseudo-words the word targets draw from
    loads: int = 1                  # load_checkpoint calls per pass
    predict_reps: int = 1           # predict calls per pass
    fractions: str = "0.8,0.1,0.1"  # train, dev, test shares of the transferred records
    train_set: tuple[str, ...] = ()  # --set overrides for train


SCALES = {
    # Word targets draw from a pool large enough that the ~400-example
    # training split holds well over 20000 distinct tokens, so the
    # vocabulary reaches its cap. Both send most transferred records to
    # the test split, which keeps training at full model scale affordable
    # while transfer and split still see thousands of records. Train calls
    # take 6 to 9 s, so each run times two calls after the warm-up and
    # leaves the rest of the run to the other calls.
    "word_train_predict": Scale("word", "latin", sources=12000, targets=8000, heldout=256, filler=(12, 24),
                                tokens=(40, 96), pool=200_000, loads=5, predict_reps=2,
                                fractions="0.0525,0.0075,0.94"),
    "char_train_predict": Scale("char", "arabic", sources=12000, targets=12000, heldout=64, filler=(12, 24),
                                loads=2, fractions="0.00565,0.00085,0.9935"),
}


def tiny(scale: Scale) -> Scale:
    """The same pipeline at gradient-check dimensions, for the self-test."""
    overrides = TINY_WORD if scale.model == "word" else TINY_CHAR
    return replace(scale, sources=min(scale.sources, 240), targets=min(scale.targets, 120), heldout=32,
                   pool=min(scale.pool, 4000), loads=1, predict_reps=1, fractions="0.5,0.25,0.25",
                   train_set=overrides)


# --- inputs ------------------------------------------------------------------------


@dataclass
class Inputs:
    """Paths of the written inputs plus everything the oracles compare against."""

    dir: Path
    sources: int
    labelled_sources: list        # (id, label, cameo digits) in input order
    targets: list                 # (id, label, cameo digits) of transferred targets, in order
    report: dict                  # transfer report counts implied by the alignment graph
    heldout_ids: list

    @property
    def source(self) -> Path:
        return self.dir / "source.jsonl"

    @property
    def target(self) -> Path:
        return self.dir / "target.jsonl"

    @property
    def align(self) -> Path:
        return self.dir / "align.jsonl"

    @property
    def heldout(self) -> Path:
        return self.dir / "heldout.jsonl"


def _pseudo_words(indices: np.ndarray) -> list[str]:
    """A distinct seven-letter word for every index below 26**7."""
    x = (indices.astype(np.int64) * 2654435761 + 12345) % 26**7
    letters = np.empty((x.size, 7), dtype=np.uint8)
    for k in range(7):
        x, r = np.divmod(x, 26)
        letters[:, k] = 97 + r
    return letters.view("S7").ravel().astype("U7").tolist()


def _lengthen(records, gen, span, *, news: bool, pool: int = 0):
    """Each record's text kept as one contiguous run inside added words.

    News sentences get `span` filler words from NEWS_FILLER, a capital and a
    full stop. Otherwise `span` bounds the whole sentence's token count and
    the added words are pseudo-words drawn from a pool of `pool`.
    """
    n = len(records)
    cores = [r.text.rstrip(".").lower().split() for r in records]
    counts = gen.integers(span[0], span[1] + 1, size=n)
    if not news:
        counts = np.maximum(counts - np.array([len(c) for c in cores]), 0)
    picks = gen.integers(0, len(NEWS_FILLER) if news else pool, size=int(counts.sum()))
    cuts = (gen.random(n) * (counts + 1)).astype(np.int64)
    words = [NEWS_FILLER[i] for i in picks.tolist()] if news else _pseudo_words(picks)
    out, at = [], 0
    for record, core, k, cut in zip(records, cores, counts.tolist(), cuts.tolist()):
        fill = words[at : at + k]
        at += k
        text = " ".join(fill[:cut] + core + fill[cut:])
        out.append(replace(record, text=text.capitalize() + "." if news else text))
    return out


def make_inputs(scale: Scale, seed: int, directory: Path) -> Inputs:
    """Generate and write one workload's inputs; the same seed gives the same bytes."""
    dict_tokens = {t for p in parse_dictionary(DICTIONARY.read_text(encoding="utf-8")) for t in p.tokens}
    clash = dict_tokens.intersection(NEWS_FILLER)
    if clash:
        raise RuntimeError(f"filler words are dictionary tokens: {sorted(clash)}")
    directory.mkdir(parents=True, exist_ok=True)
    gen = np.random.default_rng([seed, 0x5EED])

    fixture = make_softlabel_fixture(scale.sources, seed)
    sources = _lengthen(fixture.records, gen, scale.filler, news=True)
    labelled = [(r.id, exp[0], exp[1]) for r, exp in zip(sources, fixture.expected) if exp is not None]
    by_class = {c: [s for s in labelled if s[1] is c] for c in CLASSES}

    base = make_separable_corpus(scale.targets, seed, scale.script)
    held = make_separable_corpus(scale.heldout, seed + 1_000_003, scale.script)
    if scale.tokens is not None:
        base = _lengthen(base, gen, scale.tokens, news=False, pool=scale.pool)
        held = _lengthen(held, gen, scale.tokens, news=False, pool=scale.pool)
    held = [replace(r, id=f"ho{i:05d}", label=None) for i, r in enumerate(held)]

    # Alignment graph: each kept target takes a source of its own class
    # (fan-out happens wherever a class has fewer sources than targets),
    # about one in sixteen also gets a later, conflicting pair, and one in
    # twenty is left unaligned and so dropped.
    dropped = set(gen.choice(len(base), size=len(base) // 20, replace=False).tolist())
    pairs, targets, conflicts = [], [], 0
    for j, record in enumerate(base):
        if j in dropped:
            continue
        group = by_class[record.label]
        first = group[int(gen.integers(0, len(group)))]
        pairs.append(AlignmentPair(first[0], record.id))
        targets.append((record.id, record.label, first[2]))
        if gen.random() < 1 / 16:
            other = labelled[int(gen.integers(0, len(labelled)))]
            pairs.append(AlignmentPair(other[0], record.id))
            conflicts += 1

    write_jsonl(sources, directory / "source.jsonl")
    write_jsonl([replace(r, label=None) for r in base], directory / "target.jsonl")
    write_alignments(pairs, directory / "align.jsonl")
    write_jsonl(held, directory / "heldout.jsonl")
    report = {"pairs": len(pairs), "labelled": len(targets), "conflicts": conflicts, "dropped": len(dropped)}
    return Inputs(directory, len(sources), labelled, targets, report, [r.id for r in held])


def input_properties(scale: Scale, seed: int, inputs: Inputs) -> dict:
    """Input properties the workload's costs depend on; fixed for a seed.

    Source sentences are counted in whitespace tokens, which is what the
    tokenizer yields for them (filler words carry no punctuation). The
    vocabulary or alphabet size is the one `train` fits on the split the
    pipeline produces.
    """
    sources = read_jsonl(inputs.source)
    base = read_jsonl(inputs.target)
    props = {
        "source_sentences": len(sources),
        "source_tokens_per_sentence": float(np.mean([len(r.text.split()) for r in sources])),
        "softlabel_hit_ratio": len(inputs.labelled_sources) / len(sources),
        "target_records": len(base),
        "transfer_graph": inputs.report,
    }
    settings = resolve_settings(overrides=list(scale.train_set) + [f"model={scale.model}"])
    labels = {t[0]: t[1] for t in inputs.targets}
    transferred = [replace(r, label=labels[r.id]) for r in base if r.id in labels]
    fractions = tuple(float(x) for x in scale.fractions.split(","))
    encoder = build_encoder(stratified_split(transferred, fractions, seed).train, settings)
    props["input_rows"] = encoder.vocab.size if scale.model == "word" else encoder.alphabet.size
    if scale.model == "word":
        length = settings.word_length
        counts = np.array([len(tokenize(r.text)) for r in base])
    else:
        length = settings.char_length
        counts = np.array([len(r.text) for r in base])
    props.update({
        "input_length": length,
        "target_units_per_sentence": float(counts.mean()),
        "padded_share": float(np.mean(counts < length)),
        "truncated_share": float(np.mean(counts > length)),
    })
    return props


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


# --- the pipeline ------------------------------------------------------------------


class Pipeline:
    """Runs the workload's CLI calls in a closed loop and checks every output.

    Each call counts as one attempted operation; it fails when it returns
    non-zero, raises, or its output breaks the oracle. Output bytes of every
    pass must equal the first pass's, traced or not.
    """

    def __init__(self, scale: Scale, seed: int, inputs: Inputs, work: Path):
        self.scale = scale
        self.seed = seed
        self.inputs = inputs
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.pass_seconds: list[tuple[bool, float]] = []  # (traced, timed seconds) per whole pass
        self.digests: dict[str, str] = {}
        self.trains = 0
        self.train_examples = 0
        self.final_train_loss: float | None = None
        self.loaded = None
        self.failures: list[str] = []

    # paths
    def _p(self, name: str) -> str:
        return str(self.work / name)

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _op(self, what: str, fn, check, tracer=None) -> float | None:
        """Run one timed operation, then its oracle; seconds, or None on failure.

        The tracer, when given, is active for the operation only, never for
        the oracle.
        """
        self.attempted += 1
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                if tracer is not None:
                    tracer.active = True
                start = perf_counter()
                try:
                    result = fn()
                finally:
                    elapsed = perf_counter() - start
                    if tracer is not None:
                        tracer.active = False
        except (Exception, SystemExit):  # a failed operation is data, not a crash
            self._fail(what, traceback.format_exc())
            return None
        try:
            check(result, out.getvalue())
        except Exception as exc:  # an oracle failure, reported with the run
            self._fail(what, f"{type(exc).__name__}: {exc}")
            return None
        return elapsed

    def _fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {why}")
        print(f"FAILED {what}: {why}", file=sys.stderr)

    def _cli(self, argv: list[str]):
        return lambda: cli.main(argv)

    def _same_as_first(self, name: str, paths) -> None:
        digest = digest_files(paths)
        want = self.digests.setdefault(name, digest)
        if digest != want:
            raise AssertionError(f"{name} output bytes differ from the first pass")

    # oracles
    def _check_exit(self, code) -> None:
        if code != 0:
            raise AssertionError(f"exit code {code}")

    def _check_softlabel(self, code, stdout) -> None:
        self._check_exit(code)
        got = [(r.id, r.label, r.cameo.digits) for r in read_jsonl(self._p("src_labelled.jsonl"))]
        if got != self.inputs.labelled_sources:
            raise AssertionError("soft labels differ from the fixture's expected labels")
        if "no_label" not in stdout or sum(int(line.split()[-1]) for line in stdout.splitlines()) != self.inputs.sources:
            raise AssertionError("histogram does not cover every input sentence")
        self._same_as_first("softlabel", [self._p("src_labelled.jsonl")])

    def _check_transfer(self, code, stdout) -> None:
        self._check_exit(code)
        got = [(r.id, r.label, r.cameo.digits) for r in read_jsonl(self._p("tgt_labelled.jsonl"))]
        if got != self.inputs.targets:
            raise AssertionError("transferred labels differ from the alignment graph")
        report = {line.split()[1]: int(line.split()[-1]) for line in stdout.splitlines()}
        if report != self.inputs.report:
            raise AssertionError(f"transfer report {report} != graph {self.inputs.report}")
        self._same_as_first("transfer", [self._p("tgt_labelled.jsonl")])

    def _check_split(self, code, stdout) -> None:
        self._check_exit(code)
        parts = [read_jsonl(self._p(f"split/{name}.jsonl")) for name in ("train", "dev", "test")]
        ids = sorted(r.id for part in parts for r in part)
        if ids != sorted(t[0] for t in self.inputs.targets):
            raise AssertionError("split is not a partition of the transferred records")
        self.train_examples = len(parts[0])
        self._same_as_first("split", [self._p(f"split/{n}.jsonl") for n in ("train", "dev", "test")])

    def _check_train(self, code, stdout) -> None:
        self._check_exit(code)
        history = read_history(self._p("model.ckpt.history.jsonl"))
        if len(history) != 1 or [h.epoch for h in history] != [1]:
            raise AssertionError(f"history has {len(history)} lines, want one per epoch")
        if not all(math.isfinite(h.train_loss) and math.isfinite(h.dev_accuracy) for h in history):
            raise AssertionError("non-finite loss in history")
        self.final_train_loss = history[-1].train_loss
        self._same_as_first("train", [self._p("model.ckpt"), self._p("model.ckpt.history.jsonl")])

    def _check_load(self, loaded, stdout) -> None:
        if loaded.encoder is None or loaded.model.kind != self.scale.model:
            raise AssertionError("checkpoint restored without its encoder or with the wrong model kind")
        self.loaded = loaded

    def _check_predict(self, code, stdout) -> None:
        self._check_exit(code)
        lines = Path(self._p("predict.jsonl")).read_text(encoding="utf-8").splitlines()
        objs = [json.loads(line) for line in lines]
        if [o["id"] for o in objs] != self.inputs.heldout_ids:
            raise AssertionError("predict output is not one line per input, in input order")
        names = [c.value for c in CLASSES]
        probs = np.array([o["probs"] for o in objs], dtype=np.float64)
        if not np.all(np.isfinite(probs)) or np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
            raise AssertionError("probabilities are not finite or do not sum to 1")
        if [o["predicted"] for o in objs] != [names[i] for i in np.argmax(probs, axis=1)]:
            raise AssertionError("predicted class is not the argmax")
        if self.loaded is not None:
            texts = {r.id: r.text for r in read_jsonl(self.inputs.heldout)}
            for o in objs[:: max(1, len(objs) // 8)]:
                cls, p = models.predict(self.loaded.model, self.loaded.encoder.encode(texts[o["id"]]))
                if names[cls] != o["predicted"] or np.max(np.abs(p - np.array(o["probs"]))) > 1e-9:
                    raise AssertionError(f"record {o['id']} disagrees with models.predict")
        self._same_as_first("predict", [self._p("predict.jsonl")])

    def light(self, tracer=None) -> float:
        """One softlabel, transfer and split call; returns the seconds they took."""
        scale, inp = self.scale, self.inputs
        t = self._op("softlabel", self._cli(["softlabel", "--dict", str(DICTIONARY), "--in", str(inp.source),
                                             "--out", self._p("src_labelled.jsonl")]), self._check_softlabel, tracer)
        if t:
            self._sample("label_sentences_per_s", inp.sources / t)
        t1 = self._op("transfer", self._cli(["transfer", "--src", self._p("src_labelled.jsonl"), "--tgt", str(inp.target),
                                             "--align", str(inp.align), "--out", self._p("tgt_labelled.jsonl")]),
                      self._check_transfer, tracer)
        t2 = self._op("split", self._cli(["split", "--in", self._p("tgt_labelled.jsonl"), "--seed", str(self.seed),
                                          "--fractions", scale.fractions, "--outdir", self._p("split")]),
                      self._check_split, tracer)
        if t1 and t2:
            self._sample("transfer_split_records_per_s", scale.targets / (t1 + t2))
        return (t or 0.0) + (t1 or 0.0) + (t2 or 0.0)

    def train(self, tracer=None) -> float:
        """One train call on the last split; returns the seconds it took."""
        scale = self.scale
        overrides = [arg for setting in ("epochs=1", *scale.train_set) for arg in ("--set", setting)]
        t = self._op("train", self._cli(["train", "--model", scale.model, "--train", self._p("split/train.jsonl"),
                                         "--dev", self._p("split/dev.jsonl"), "--seed", str(self.seed), *overrides,
                                         "--out-checkpoint", self._p("model.ckpt")]), self._check_train, tracer)
        self.trains += 1
        # The first train call of a run runs cold: it is checked, not sampled.
        if t and self.trains > 1:
            self._sample("train_examples_per_s", self.train_examples / t)
        return t or 0.0

    def load(self, tracer=None) -> float:
        """`loads` load_checkpoint calls on the last checkpoint; returns their seconds."""
        total = 0.0
        for _ in range(self.scale.loads):
            t = self._op("load", lambda: models.load_checkpoint(self._p("model.ckpt")), self._check_load, tracer)
            if t:
                self._sample("load_s", t)
            total += t or 0.0
        return total

    def predict(self, tracer=None) -> float:
        """`predict_reps` predict calls with the last checkpoint; returns their seconds."""
        total = 0.0
        for _ in range(self.scale.predict_reps):
            t = self._op("predict", self._cli(["predict", "--checkpoint", self._p("model.ckpt"),
                                               "--in", str(self.inputs.heldout), "--out", self._p("predict.jsonl")]),
                         self._check_predict, tracer)
            if t:
                self._sample("predict_records_per_s", len(self.inputs.heldout_ids) / t)
            total += t or 0.0
        return total

    def fill_steps(self) -> list:
        """A pass without `train`, as steps a run repeats in turn until its time is up."""
        return [self.light] * LIGHT_REPS + [self.load, self.predict]

    def run_pass(self, tracer=None) -> float:
        """One whole pass of the pipeline; returns the seconds its timed calls took."""
        total = sum(self.light(tracer) for _ in range(LIGHT_REPS))
        total += self.train(tracer) + self.load(tracer) + self.predict(tracer)
        self.pass_seconds.append((tracer is not None, total))
        return total

    def check_arithmetic(self) -> None:
        """Once per run, untimed: check the trained model's backward and Adam.

        Outputs only compare a run with itself, so these two oracles are
        what fails a change to the gradient or optimizer arithmetic. They
        leave the loaded model's parameters changed.
        """
        if self.loaded is None:
            return
        model = self.loaded.model
        records = read_jsonl(self._p("split/train.jsonl"))[:2]
        examples = encode_labelled(records, self.loaded.encoder)
        self._op("gradcheck", lambda: _check_gradients(model, examples[0], self.seed), lambda *_: None)
        self._op("adam", lambda: _check_adam(model, examples, self.seed), lambda *_: None)


def _check_gradients(model, example, seed: int) -> None:
    """Finite differences of the evaluation-mode loss against the backward.

    Per trainable parameter it checks the coordinate with the largest
    analytic gradient and GRADCHECK_RANDOM seeded ones.
    """
    params = model.parameters()
    for p in params:
        p.zero_grad()
    loss = models.batch_loss(model, [example], accumulate=True)
    gen = np.random.default_rng([seed, 0x6AD])
    for p in params:
        grad = p.grad.reshape(-1).copy()
        p.zero_grad()
        if p.frozen:
            continue
        free = np.arange(p.size) if p.pinned is None else np.flatnonzero(~p.pinned.reshape(-1))
        picks = gen.choice(free, size=min(GRADCHECK_RANDOM, free.size), replace=False).tolist()
        flat = p.value.reshape(-1)
        for coord in {int(free[np.argmax(np.abs(grad[free]))]), *picks}:
            original = flat[coord]
            for eps in GRADCHECK_EPS:
                flat[coord] = original + eps
                plus = models.batch_loss(model, [example])
                flat[coord] = original - eps
                minus = models.batch_loss(model, [example])
                flat[coord] = original
                numeric = ((plus - minus) / (2 * eps), (plus - loss) / eps, (loss - minus) / eps)
                if any(abs(n - grad[coord]) <= 1e-7 + 1e-4 * abs(n) for n in numeric):
                    break
            else:
                raise AssertionError(f"{p.name}[{coord}]: backward {grad[coord]:.6g}, differences {numeric}")


def _check_adam(model, examples, seed: int) -> None:
    """Two Adam steps from fresh state, one per example, against the update rule."""
    params = model.parameters()
    adam = Adam(params)
    gen = np.random.default_rng([seed, 0xADA])
    picks, ref, m, v = [], [], [], []
    for t, example in enumerate(examples, start=1):
        models.batch_loss(model, [example], accumulate=True)
        if t == 1:
            for p in params:
                g = np.abs(p.grad.reshape(-1))
                half = min(ADAM_COORDS // 2, p.size)
                top = np.argpartition(g, g.size - half)[-half:]
                idx = np.union1d(top, gen.choice(p.size, size=half, replace=False))
                picks.append(idx)
                ref.append(p.value.reshape(-1)[idx].copy())
                m.append(np.zeros(idx.size))
                v.append(np.zeros(idx.size))
        grads = [p.grad.reshape(-1)[idx].copy() for p, idx in zip(params, picks)]
        adam.step()
        for p, g, r, mi, vi in zip(params, grads, ref, m, v):
            if p.frozen:
                continue
            mi[...] = adam.beta1 * mi + (1 - adam.beta1) * g
            vi[...] = adam.beta2 * vi + (1 - adam.beta2) * g * g
            r -= adam.lr * (mi / (1 - adam.beta1**t)) / (np.sqrt(vi / (1 - adam.beta2**t)) + adam.eps)
    for p, idx, r in zip(params, picks, ref):
        got = p.value.reshape(-1)[idx]
        if np.any(np.abs(got - r) > 1e-12 + 1e-10 * np.abs(r)):
            raise AssertionError(f"{p.name}: Adam step differs from the update rule by {np.max(np.abs(got - r)):.3g}")
