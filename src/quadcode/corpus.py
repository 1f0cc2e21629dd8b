"""Sentence corpora: JSONL ingestion, cross-lingual label transfer, splits.

A corpus is a JSONL file of sentence records. Labels move across languages
through sentence alignments: a labelled source sentence donates its label to
every aligned target sentence, which is how the Arabic training data is
derived from soft-labelled English text.
"""

from __future__ import annotations

import json
import math
import re
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


_LABELS = {c.value: c for c in CLASSES}

# One CameoCode per distinct code string. Only successful parses of already
# stripped text are kept, so a bad code fails on every line it appears on and
# the cache holds at most the 2220 valid codes.
_CAMEO_CODES: dict[str, CameoCode] = {}


def _cameo_code(text: str, where: str) -> CameoCode:
    try:
        code = parse_cameo_code(text)
    except OntologyError as exc:
        raise CorpusError(f"{where}: bad cameo code: {exc}") from None
    if code.digits == text:
        _CAMEO_CODES[text] = code
    return code


def record_from_obj(obj: dict, where: str, quad_map: QuadClassMap | None = None) -> SentenceRecord:
    """Build a validated record from a parsed JSON object; errors start with where."""
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: record is not a JSON object")
    id_, lang, text = obj.get("id"), obj.get("lang"), obj.get("text")
    if type(id_) is not str or type(lang) is not str or type(text) is not str:
        for key in ("id", "lang", "text"):
            if key not in obj:
                raise CorpusError(f"{where}: missing required key {key!r}")
            if not isinstance(obj[key], str):
                raise CorpusError(f"{where}: key {key!r} must be a string")
    if not id_:
        raise CorpusError(f"{where}: id must be non-empty")
    if not text:
        raise CorpusError(f"{where}: text must be non-empty")
    if len(lang) != 2 or not lang.isascii() or not lang.isalpha() or not lang.islower():
        raise CorpusError(f"{where}: lang must be a 2-letter ISO 639-1 code, got {lang!r}")

    label = obj.get("label")
    if label is not None:
        try:
            label = _LABELS[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label such as [1]
            raise CorpusError(f"{where}: unknown label {label!r}") from None
    cameo = obj.get("cameo")
    if cameo is not None:
        if not isinstance(cameo, str):
            raise CorpusError(f"{where}: cameo must be a string")
        cameo = _CAMEO_CODES.get(cameo) or _cameo_code(cameo, where)
    if label is not None and cameo is not None and quad_map is not None:
        expected = quad_of(cameo, quad_map)
        if expected is not label:
            raise CorpusError(
                f"{where}: label {label.value} does not match cameo {cameo} (expected {expected.value})"
            )
    source = obj.get("source")
    if source is not None and not isinstance(source, str):
        raise CorpusError(f"{where}: source must be a string")
    return SentenceRecord(id_, lang, text, label, cameo, source)


# One encoder for the cold JSONL lines (alignments, history); json.dumps would
# build one per call.
JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))
# The C function that encoder applies to every string. record_line quotes with
# it, so a sentence record's line needs no dict and no encoder.
_quote = json.encoder.encode_basestring

# The encoder's twin for reading: json.loads would go through the decode
# wrapper and its keyword checks on every line.
_JSONL_DECODER = json.JSONDecoder()
_JSON_WHITESPACE = " \t\n\r"
_BOM_MESSAGE = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
_LONE_SURROGATE = "a string holds a lone surrogate escape, which UTF-8 cannot encode"
_SURROGATE = re.compile("[\ud800-\udfff]")


def _holds_lone_surrogate(value: object) -> bool:
    """Whether any string in a decoded value, key or element, holds a surrogate.

    The decoder joins an escaped pair such as \\ud83d\\ude00 into one
    character, so a surrogate left over is a lone one, which UTF-8 cannot encode.
    """
    stack = [value]
    while stack:
        value = stack.pop()
        if type(value) is str:
            if _SURROGATE.search(value):
                return True
        elif type(value) is list:
            stack.extend(value)
        elif type(value) is dict:
            stack.extend(value)
            stack.extend(value.values())
    return False


def json_lines(path: str | Path) -> Iterator[tuple[str, object]]:
    """("<path>: line N", parsed value) for each non-blank line of a JSONL file.

    Each line decodes exactly as json.loads would decode it: the same value,
    or the same error message. The one exception is a string holding a lone
    surrogate escape such as "\\udfff": json.loads accepts it, but no
    UTF-8 file can hold it, so it is an error here, before any output opens.
    """
    decode = _JSONL_DECODER.raw_decode
    skip_whitespace = json.decoder.WHITESPACE.match
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if line.isspace():  # the same test as `not line.strip()`, without the copy
                    continue
                where = f"{path}: line {line_no}"
                try:
                    obj, end = decode(line, skip_whitespace(line, 0).end())
                    if line[end:].strip(_JSON_WHITESPACE):
                        raise json.JSONDecodeError("Extra data", line, end)
                except json.JSONDecodeError as exc:
                    # json.loads rejects a leading BOM before it decodes anything.
                    msg = _BOM_MESSAGE if line.startswith("\ufeff") else exc.msg
                    raise CorpusError(f"{where}: invalid JSON: {msg}") from None
                except RecursionError:
                    raise CorpusError(f"{where}: invalid JSON: nested too deeply") from None
                except ValueError:  # an integer past Python's digit limit
                    raise CorpusError(f"{where}: invalid JSON: integer too long") from None
                if "\\u" in line and _holds_lone_surrogate(obj):  # only an escape can make one
                    raise CorpusError(f"{where}: {_LONE_SURROGATE}")
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


def record_line(record: SentenceRecord, tail: str = "") -> str:
    """The record's canonical JSONL line: fixed key order, optional keys
    omitted, the same bytes JSONL_ENCODER writes for the record's object.

    tail holds further members, already encoded and each starting with ",",
    written just before the closing brace.
    """
    line = f'{{"id":{_quote(record.id)},"lang":{_quote(record.lang)},"text":{_quote(record.text)}'
    if record.label is not None:
        line += f',"label":{_quote(record.label.value)}'
    if record.cameo is not None:
        line += f',"cameo":{_quote(record.cameo.digits)}'
    if record.source is not None:
        line += f',"source":{_quote(record.source)}'
    return f"{line}{tail}}}\n"


def json_line(obj: object) -> str:
    """One compact raw-UTF-8 JSON value and its newline."""
    return JSONL_ENCODER.encode(obj) + "\n"


def write_json_lines(lines: Iterable[str], path: str | Path) -> None:
    """Every JSONL file's writer, for lines already formatted (record_line,
    json_line), each ending in its newline."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def write_jsonl(records: Iterable[SentenceRecord], path: str | Path) -> None:
    write_json_lines(map(record_line, records), path)


def read_alignments(path: str | Path) -> list[AlignmentPair]:
    """Read an alignment JSONL file ({"src_id": ..., "tgt_id": ...} per line)."""
    pairs: list[AlignmentPair] = []
    for where, obj in json_lines(path):
        if (
            not isinstance(obj, dict)
            or not isinstance(src_id := obj.get("src_id"), str)
            or not isinstance(tgt_id := obj.get("tgt_id"), str)
        ):
            raise CorpusError(f"{where}: alignment needs string keys 'src_id' and 'tgt_id'")
        pairs.append(AlignmentPair(src_id, tgt_id, where))
    return pairs


def write_alignments(pairs: Iterable[AlignmentPair], path: str | Path) -> None:
    write_json_lines((json_line({"src_id": pair.src_id, "tgt_id": pair.tgt_id}) for pair in pairs), path)


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
