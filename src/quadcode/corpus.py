"""Sentence corpora: JSONL ingestion, cross-lingual label transfer, splits.

A corpus is a JSONL file of sentence records. Labels move across languages
through sentence alignments: a labelled source sentence donates its label to
every aligned target sentence, which is how the Arabic training data is
derived from soft-labelled English text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import rng
from .errors import InputError, read_text
from .ontology import CLASSES, CameoCode, OntologyError, QuadClass, QuadClassMap, parse_cameo_code, quad_of


class CorpusError(InputError):
    """Malformed sentence or alignment files, or inconsistent records."""


@dataclass(frozen=True)
class SentenceRecord:
    """One corpus sentence with optional QuadClass label and CAMEO code."""

    id: str
    lang: str
    text: str
    label: QuadClass | None = None
    cameo: CameoCode | None = None
    source: str | None = None


@dataclass(frozen=True)
class AlignmentPair:
    """Links a source-language sentence id to a target-language one; where
    is the "<path>: line N" it was read from, for error messages."""

    src_id: str
    tgt_id: str
    where: str = field(default="", compare=False)


@dataclass
class LabelHistogram:
    """Per-class counts plus the count of unlabelled records."""

    counts: dict[QuadClass, int] = field(default_factory=lambda: {c: 0 for c in CLASSES})
    unlabelled: int = 0

    def add(self, label: QuadClass | None) -> None:
        if label is None:
            self.unlabelled += 1
        else:
            self.counts[label] += 1

    @property
    def total(self) -> int:
        return self.unlabelled + sum(self.counts.values())

    def lines(self) -> list[str]:
        width = max(len(c.value) for c in CLASSES)
        out = [f"{c.value:<{width}}  {self.counts[c]}" for c in CLASSES]
        out.append(f"{'no_label':<{width}}  {self.unlabelled}")
        return out


def _validate_lang(lang: str, where: str) -> str:
    if len(lang) != 2 or not lang.isascii() or not lang.isalpha() or not lang.islower():
        raise CorpusError(f"{where}: lang must be a 2-letter ISO 639-1 code, got {lang!r}")
    return lang


def record_from_obj(obj: dict, where: str, quad_map: QuadClassMap | None = None) -> SentenceRecord:
    """Build a validated record from a parsed JSON object; errors start with where."""
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: record is not a JSON object")
    for key in ("id", "lang", "text"):
        if key not in obj:
            raise CorpusError(f"{where}: missing required key {key!r}")
        if not isinstance(obj[key], str):
            raise CorpusError(f"{where}: key {key!r} must be a string")
    if not obj["id"]:
        raise CorpusError(f"{where}: id must be non-empty")
    if not obj["text"]:
        raise CorpusError(f"{where}: text must be non-empty")
    _validate_lang(obj["lang"], where)

    label = None
    if obj.get("label") is not None:
        try:
            label = QuadClass(obj["label"])
        except ValueError:
            raise CorpusError(f"{where}: unknown label {obj['label']!r}") from None
    cameo = None
    if obj.get("cameo") is not None:
        if not isinstance(obj["cameo"], str):
            raise CorpusError(f"{where}: cameo must be a string")
        try:
            cameo = parse_cameo_code(obj["cameo"])
        except OntologyError as exc:
            raise CorpusError(f"{where}: bad cameo code: {exc}") from None
    if label is not None and cameo is not None and quad_map is not None:
        expected = quad_of(cameo, quad_map)
        if expected is not label:
            raise CorpusError(
                f"{where}: label {label.value} does not match cameo {cameo} (expected {expected.value})"
            )
    source = obj.get("source")
    if source is not None and not isinstance(source, str):
        raise CorpusError(f"{where}: source must be a string")
    return SentenceRecord(obj["id"], obj["lang"], obj["text"], label, cameo, source)


def record_to_obj(record: SentenceRecord) -> dict:
    """Canonical JSON object: fixed key order, optional keys omitted."""
    obj: dict = {"id": record.id, "lang": record.lang, "text": record.text}
    if record.label is not None:
        obj["label"] = record.label.value
    if record.cameo is not None:
        obj["cameo"] = record.cameo.digits
    if record.source is not None:
        obj["source"] = record.source
    return obj


# One encoder for every JSONL line; json.dumps would build one per call.
JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def json_lines(path: str | Path) -> Iterator[tuple[str, object]]:
    """("<path>: line N", parsed value) for each non-blank line of a JSONL file."""
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                where = f"{path}: line {line_no}"
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"{where}: invalid JSON: {exc.msg}") from None
                except RecursionError:
                    raise CorpusError(f"{where}: invalid JSON: nested too deeply") from None
                except ValueError:  # an integer past Python's digit limit
                    raise CorpusError(f"{where}: invalid JSON: integer too long") from None
                yield where, obj
    except UnicodeDecodeError:
        # Decoding runs ahead of the line count; read_text names the bad line.
        read_text(path)
        raise


def read_jsonl(path: str | Path, quad_map: QuadClassMap | None = None) -> list[SentenceRecord]:
    """Read and validate a sentence JSONL file.

    When quad_map is given, records carrying both a label and a cameo code
    are checked for consistency against it.
    """
    records: list[SentenceRecord] = []
    seen: set[str] = set()
    for where, obj in json_lines(path):
        record = record_from_obj(obj, where, quad_map)
        if record.id in seen:
            raise CorpusError(f"{where}: duplicate record id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return records


def write_json_lines(objs: Iterable[object], path: str | Path) -> None:
    """Every JSONL file's writer: one compact raw-UTF-8 JSON value per line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(JSONL_ENCODER.encode(obj) + "\n" for obj in objs)


def write_jsonl(records: Iterable[SentenceRecord], path: str | Path) -> None:
    write_json_lines(map(record_to_obj, records), path)


def read_alignments(path: str | Path) -> list[AlignmentPair]:
    """Read an alignment JSONL file ({"src_id": ..., "tgt_id": ...} per line)."""
    pairs: list[AlignmentPair] = []
    for where, obj in json_lines(path):
        if not isinstance(obj, dict) or not isinstance(obj.get("src_id"), str) or not isinstance(obj.get("tgt_id"), str):
            raise CorpusError(f"{where}: alignment needs string keys 'src_id' and 'tgt_id'")
        pairs.append(AlignmentPair(obj["src_id"], obj["tgt_id"], where))
    return pairs


def write_alignments(pairs: Iterable[AlignmentPair], path: str | Path) -> None:
    write_json_lines(({"src_id": pair.src_id, "tgt_id": pair.tgt_id} for pair in pairs), path)


@dataclass
class TransferReport:
    """Bookkeeping for one label-transfer run."""

    pairs: int = 0
    labelled_targets: int = 0
    conflicts: int = 0
    dropped_targets: int = 0

    def lines(self) -> list[str]:
        return [
            f"alignment pairs      {self.pairs}",
            f"targets labelled     {self.labelled_targets}",
            f"alignment conflicts  {self.conflicts}",
            f"targets dropped      {self.dropped_targets}",
        ]


def transfer_labels(
    src: Sequence[SentenceRecord],
    tgt: Sequence[SentenceRecord],
    pairs: Sequence[AlignmentPair],
) -> tuple[list[SentenceRecord], TransferReport]:
    """Copy labels from aligned source sentences onto target sentences.

    A source aligned to several targets labels all of them. A target aligned
    to several sources keeps the label of the first pair in file order; every
    later pair for that target is counted as a conflict. Targets that appear
    in no pair are dropped. Output preserves target file order.
    """
    src_by_id = {r.id: r for r in src}
    tgt_ids = {r.id for r in tgt}
    assigned: dict[str, tuple[QuadClass, CameoCode | None]] = {}
    report = TransferReport(pairs=len(pairs))
    for pair in pairs:
        source = src_by_id.get(pair.src_id)
        if source is None:
            raise CorpusError(f"{pair.where}: alignment references unknown id {pair.src_id!r}")
        if pair.tgt_id not in tgt_ids:
            raise CorpusError(f"{pair.where}: alignment references unknown id {pair.tgt_id!r}")
        if source.label is None:
            raise CorpusError(f"{pair.where}: aligned source record {source.id!r} carries no label")
        if pair.tgt_id in assigned:
            report.conflicts += 1
            continue
        assigned[pair.tgt_id] = (source.label, source.cameo)

    out: list[SentenceRecord] = []
    for record in tgt:
        if record.id not in assigned:
            report.dropped_targets += 1
            continue
        label, cameo = assigned[record.id]
        out.append(SentenceRecord(record.id, record.lang, record.text, label, cameo, record.source))
    report.labelled_targets = len(out)
    return out, report


@dataclass(frozen=True)
class DatasetSplit:
    train: list[SentenceRecord]
    dev: list[SentenceRecord]
    test: list[SentenceRecord]


def _allocate(n: int, fractions: tuple[float, float, float]) -> list[int]:
    # Largest-remainder rounding: each bucket ends within 1 of n * fraction.
    exact = [n * f for f in fractions]
    base = [math.floor(e) for e in exact]
    leftover = n - sum(base)
    order = sorted(range(len(base)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def stratified_split(
    records: Sequence[SentenceRecord],
    fractions: tuple[float, float, float],
    seed: int,
) -> DatasetSplit:
    """Split labelled records into train/dev/test, stratified per class.

    Deterministic for a fixed seed; per-class counts in every split are
    within one record of exact proportionality.
    """
    if len(fractions) != 3 or not all(f >= 0 for f in fractions):
        raise CorpusError(f"need three non-negative fractions, got {fractions!r}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise CorpusError(f"fractions must sum to 1, got {sum(fractions)!r}")
    seen: set[str] = set()
    by_class: dict[QuadClass, list[SentenceRecord]] = {c: [] for c in CLASSES}
    for record in records:
        if record.label is None:
            raise CorpusError(f"record {record.id!r} has no label")
        if record.id in seen:
            raise CorpusError(f"duplicate record id {record.id!r}")
        seen.add(record.id)
        by_class[record.label].append(record)

    buckets: tuple[list[SentenceRecord], ...] = ([], [], [])
    for quad in CLASSES:
        group = by_class[quad]
        order = rng.stream(seed, rng.SPLIT, quad.index).permutation(len(group))
        shuffled = [group[i] for i in order]
        counts = _allocate(len(group), tuple(fractions))
        at = 0
        for bucket, count in zip(buckets, counts):
            bucket.extend(shuffled[at : at + count])
            at += count
    return DatasetSplit(*buckets)


def class_histogram(records: Iterable[SentenceRecord]) -> LabelHistogram:
    hist = LabelHistogram()
    for record in records:
        hist.add(record.label)
    return hist
