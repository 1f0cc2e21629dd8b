"""The `quadcode` command: batch pipeline stages over local files.

Every subcommand that writes outputs also writes `<first output>.manifest.json`
(`split`: `<outdir>/split.manifest.json`) recording the resolved
configuration, input digests, and seed, which is enough to replay the
run and get byte-identical outputs. Before it reads any input, each such
subcommand refuses an output (the manifest included) that is the same
file as an input or another output, or whose directory does not exist
(_check_outputs). Exit codes: 0 on success, 2 for bad inputs (missing
files, malformed records, bad flags, an argument that is not UTF-8), 1
for internal errors (out of memory among them), each reported as one
line on stderr.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import experiments
from .corpus import (
    SentenceRecord,
    class_histogram,
    read_alignments,
    read_jsonl,
    record_line,
    stratified_split,
    transfer_labels,
    write_json_lines,
    write_jsonl,
)
from .errors import InputError, QuadcodeError
from .models import (
    CharCnn,
    LoadedCheckpoint,
    WordCnn,
    load_checkpoint,
    make_gradcheck_examples,
    predict,
    save_checkpoint,
    tiny_char_config,
    tiny_word_config,
)
from .ontology import CLASSES, default_quad_map, load_quad_map, quad_map_digest
from .softlabel import code_corpus, load_actor_words, load_dictionary
from .tensor_nn.gradcheck import finite_difference_check
from .train_eval import DEFAULT_BATCH_SIZE, evaluate, write_history

GRADCHECK_THRESHOLD = 1e-4


def _version() -> str:
    try:
        return metadata.version("quadcode")
    except metadata.PackageNotFoundError:
        return "unknown"


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(
    anchor: str | Path,
    command: str,
    *,
    inputs: list[str | Path],
    outputs: list[str | Path],
    config_obj: dict | None = None,
    seed: int | None = None,
    known_digests: dict[str, str] | None = None,
) -> Path:
    """known_digests maps an input path to the sha256 its reader already took,
    so that file is not read a second time."""
    known = known_digests or {}
    manifest = {
        "command": command,
        "config": config_obj or {},
        "inputs": {
            str(p): known.get(str(p)) or _sha256_file(p) for p in inputs if p and Path(p).exists()
        },
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "toolkit_version": _version(),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = _manifest_path(anchor)
    path.write_text(json.dumps(manifest, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    return path


def _manifest_path(anchor: str | Path) -> Path:
    return Path(f"{anchor}.manifest.json")


def _file_key(path: str | Path) -> tuple:
    """Equal for two paths exactly when they name the same file: its device
    and inode when it exists, else the path with every symlink resolved
    (by realpath, which, unlike Path.resolve on Python < 3.13, does not
    raise on a symlink loop)."""
    try:
        stat = os.stat(path)
    except OSError:
        return ("path", os.path.realpath(path))
    return ("file", stat.st_dev, stat.st_ino)


def _check_outputs(inputs: list, outputs: list, *, outdir: Path | None = None) -> None:
    """Refuse, before anything is read or written, an output whose directory
    does not exist (outdir excepted: the command creates it) and an output
    that is the same file as an input or as an earlier output. Inputs left
    unset (None or "") are skipped."""
    seen: dict[tuple, tuple[str, str | Path]] = {}
    for path in inputs:
        if path:
            seen.setdefault(_file_key(path), ("input", path))
    for out in outputs:
        parent = Path(out).parent
        if parent != outdir and not parent.is_dir():
            raise InputError(f"{out}: output directory {parent} does not exist")
        key = _file_key(out)
        if key in seen:
            kind, other = seen[key]
            raise InputError(f"{out}: output is the same file as {kind} {other}")
        seen[key] = ("output", out)


def _resolve_quad_map(path: str | None):
    return load_quad_map(path) if path else default_quad_map()


# --- subcommand handlers -------------------------------------------------------


def _cmd_softlabel(args) -> int:
    inputs = [args.dict, args.quadmap, args.actors, args.infile]
    _check_outputs(inputs, [args.out, _manifest_path(args.out)])
    dictionary = load_dictionary(args.dict)
    quad_map = _resolve_quad_map(args.quadmap)
    actors = load_actor_words(args.actors) if args.actors else None
    hist = code_corpus(dictionary, quad_map, args.infile, args.out, actors)
    for line in hist.lines():
        print(line)
    _write_manifest(
        args.out, "softlabel",
        inputs=inputs,
        outputs=[args.out],
        config_obj={"dict": str(args.dict), "quadmap": args.quadmap, "actors": args.actors},
    )
    return 0


def _cmd_transfer(args) -> int:
    inputs = [args.src, args.tgt, args.align]
    _check_outputs(inputs, [args.out, _manifest_path(args.out)])
    src = read_jsonl(args.src)
    tgt = read_jsonl(args.tgt)
    pairs = read_alignments(args.align)
    labelled, report = transfer_labels(src, tgt, pairs)
    write_jsonl(labelled, args.out)
    for line in report.lines():
        print(line)
    _write_manifest(args.out, "transfer", inputs=inputs, outputs=[args.out])
    return 0


def _cmd_split(args) -> int:
    try:
        fractions = tuple(float(x) for x in args.fractions.split(","))
    except ValueError:
        fractions = ()
    if len(fractions) != 3:
        raise InputError(f"--fractions needs three comma-separated numbers, got {args.fractions!r}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    outdir = Path(args.outdir)
    outputs = [outdir / f"{name}.jsonl" for name in ("train", "dev", "test")]
    _check_outputs([args.infile], [*outputs, _manifest_path(outdir / "split")], outdir=outdir)
    records = read_jsonl(args.infile)
    split = stratified_split(records, fractions, args.seed)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, part, path in zip(("train", "dev", "test"), (split.train, split.dev, split.test), outputs):
        write_jsonl(part, path)
        print(f"{name}: {len(part)} records")
        for line in class_histogram(part).lines():
            print(f"  {line}")
    _write_manifest(
        outdir / "split", "split",
        inputs=[args.infile], outputs=outputs,
        config_obj={"fractions": list(fractions)}, seed=args.seed,
    )
    return 0


def _cmd_train(args) -> int:
    history_path = args.history or f"{args.out_checkpoint}.history.jsonl"
    settings = config_mod.resolve_settings(args.config, args.set)
    if args.model:
        settings.apply({"model": args.model}, source="--model")
    if args.seed is not None:
        settings.apply({"seed": str(args.seed)}, source="--seed")
    if args.embeddings:
        settings.apply({"word.embeddings": args.embeddings}, source="--embeddings")
    # before hours of fitting, not after; the settings name the embeddings file
    inputs = [args.train, args.dev, args.config, args.quadmap, settings.word_embeddings]
    _check_outputs(inputs, [args.out_checkpoint, history_path, _manifest_path(args.out_checkpoint)])
    train_records = read_jsonl(args.train)
    dev_records = read_jsonl(args.dev)
    quad_map = _resolve_quad_map(args.quadmap)
    result = experiments.fit(train_records, dev_records, settings)
    for h in result.history:
        print(f"epoch {h.epoch:>3}  train loss {h.train_loss:.4f}  dev accuracy {h.dev_accuracy:.4f}")
    best = max(h.dev_accuracy for h in result.history)
    save_checkpoint(
        result.model, args.out_checkpoint,
        encoder=result.encoder,
        quad_map_digest=quad_map_digest(quad_map),
        metadata={
            "seed": settings.seed,
            "epochs_run": len(result.history),
            "best_dev_accuracy": best,
            "settings": settings.to_json_obj(),
        },
        probe_seed=settings.seed,
    )
    write_history(result.history, history_path)
    print(f"checkpoint written to {args.out_checkpoint} (best dev accuracy {best:.4f})")
    _write_manifest(
        args.out_checkpoint, "train",
        inputs=inputs,
        outputs=[args.out_checkpoint, history_path],
        config_obj=settings.to_json_obj(), seed=settings.seed,
    )
    return 0


def _require_encoder(loaded: LoadedCheckpoint):
    if loaded.encoder is None:
        raise InputError("checkpoint carries no text encoder; cannot encode raw records")
    return loaded.encoder


def _cmd_eval(args) -> int:
    _check_outputs([args.checkpoint, args.test], [args.report, _manifest_path(args.report)])
    loaded = load_checkpoint(args.checkpoint)
    encoder = _require_encoder(loaded)
    records = read_jsonl(args.test)
    encoded = experiments.encode_labelled(records, encoder)
    metrics = evaluate(loaded.model, encoded)
    for line in metrics.lines():
        print(line)
    report = {
        "checkpoint": str(args.checkpoint),
        "test": str(args.test),
        "model_kind": loaded.model.kind,
        **metrics.to_json_obj(),
    }
    Path(args.report).write_text(json.dumps(report, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    _write_manifest(args.report, "eval", inputs=[args.checkpoint, args.test], outputs=[args.report],
                    known_digests={str(args.checkpoint): loaded.sha256})
    return 0


def _prediction_line(record: SentenceRecord, class_index: int, probs: np.ndarray) -> str:
    """record's line plus its "predicted" class and "probs", each probability
    written by float.__repr__ as the JSON encoder writes a float. The
    probabilities have passed the softmax's finiteness trap, so none is NaN
    or infinite and none needs the encoder's "NaN"/"Infinity" spelling."""
    probs_text = ",".join(map(float.__repr__, probs.tolist()))
    predicted = json.encoder.encode_basestring(CLASSES[class_index].value)
    return record_line(record, f',"predicted":{predicted},"probs":[{probs_text}]')


def _cmd_predict(args) -> int:
    _check_outputs([args.checkpoint, args.infile], [args.out, _manifest_path(args.out)])
    loaded = load_checkpoint(args.checkpoint)
    encoder = _require_encoder(loaded)
    records = read_jsonl(args.infile)

    def annotated():
        for start in range(0, len(records), DEFAULT_BATCH_SIZE):
            chunk = records[start : start + DEFAULT_BATCH_SIZE]
            classes, probs = predict(loaded.model, np.stack([encoder.encode(r.text) for r in chunk]))
            yield from map(_prediction_line, chunk, classes, probs)

    write_json_lines(annotated(), args.out)
    print(f"{len(records)} records annotated")
    _write_manifest(args.out, "predict", inputs=[args.checkpoint, args.infile], outputs=[args.out],
                    known_digests={str(args.checkpoint): loaded.sha256})
    return 0


def _cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.epsilon) and args.epsilon > 0.0):
        raise InputError(f"--epsilon must be finite and > 0, got {args.epsilon}")
    if args.coords < 1:
        raise InputError(f"--coords must be >= 1, got {args.coords}")
    if args.model == "word":
        model = WordCnn(tiny_word_config(), args.seed)
    else:
        model = CharCnn(tiny_char_config(), args.seed)
    examples = make_gradcheck_examples(model, count=2, seed=args.seed)
    report = finite_difference_check(
        model, examples, epsilon=args.epsilon, max_coords_per_param=args.coords, seed=args.seed
    )
    for line in report.lines():
        print(line)
    if report.max_rel_error >= GRADCHECK_THRESHOLD:
        print(f"FAIL: max relative error >= {GRADCHECK_THRESHOLD}", file=sys.stderr)
        return 1
    print(f"OK: max relative error < {GRADCHECK_THRESHOLD}")
    return 0


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcode",
        description="Four-way political event sentence classification pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"quadcode {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("softlabel", help="label sentences from a verb-pattern dictionary")
    p.add_argument("--dict", required=True, help="verb pattern dictionary file")
    p.add_argument("--quadmap", default=None, help="quad-class map file (default: built-in)")
    p.add_argument("--actors", default=None, help="optional actor word list; sentences without one stay unlabelled")
    p.add_argument("--in", dest="infile", required=True, help="input sentences (JSONL)")
    p.add_argument("--out", required=True, help="labelled output (JSONL)")
    p.set_defaults(handler=_cmd_softlabel)

    p = sub.add_parser("transfer", help="copy labels across an aligned parallel corpus")
    p.add_argument("--src", required=True, help="labelled source sentences (JSONL)")
    p.add_argument("--tgt", required=True, help="target sentences (JSONL)")
    p.add_argument("--align", required=True, help="alignment pairs (JSONL with src_id/tgt_id)")
    p.add_argument("--out", required=True, help="labelled target output (JSONL)")
    p.set_defaults(handler=_cmd_transfer)

    p = sub.add_parser("split", help="stratified train/dev/test split")
    p.add_argument("--in", dest="infile", required=True, help="labelled sentences (JSONL)")
    p.add_argument("--fractions", default="0.8,0.1,0.1", help="train,dev,test fractions summing to 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", required=True, help="directory for train/dev/test.jsonl")
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("train", help="train a word or character model")
    p.add_argument("--model", choices=("word", "char"), default=None, help="overrides the config file")
    p.add_argument("--train", required=True, help="labelled training sentences (JSONL)")
    p.add_argument("--dev", required=True, help="labelled development sentences (JSONL)")
    p.add_argument("--config", default=None, help="key = value settings file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one setting (repeatable; beats the config file)")
    p.add_argument("--seed", type=int, default=None, help="overrides config seed")
    p.add_argument("--embeddings", default=None, help="pre-trained word vector file")
    p.add_argument("--quadmap", default=None, help="quad-class map whose digest to record")
    p.add_argument("--history", default=None, help="loss history output (default: <checkpoint>.history.jsonl)")
    p.add_argument("--out-checkpoint", required=True, help="checkpoint output path")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on labelled data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="labelled test sentences (JSONL)")
    p.add_argument("--report", required=True, help="metrics report output (JSON)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("predict", help="annotate sentences with predicted classes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="infile", required=True, help="input sentences (JSONL)")
    p.add_argument("--out", required=True, help="annotated output (JSONL)")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of model gradients")
    p.add_argument("--model", choices=("word", "char"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--coords", type=int, default=6, help="coordinates sampled per parameter")
    p.set_defaults(handler=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for arg in argv:
        try:  # Python passes a byte that is not UTF-8 as a lone surrogate, which no UTF-8 output can hold
            arg.encode("utf-8")
        except UnicodeEncodeError:
            print(f"error: argument {arg!r} is not valid UTF-8", file=sys.stderr)
            return 2
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadcodeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"internal error: out of memory: {exc}" if str(exc) else "internal error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
