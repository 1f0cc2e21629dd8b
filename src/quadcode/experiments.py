"""End-to-end fitting (records in, trained model out) and result reports.

The report uses a two-section layout: word-based models first, then
character-based models, one accuracy per input condition. The original
full-scale corpora (tens of thousands of soft-labelled sentences and their
aligned translations) are not distributed with this package, so reports
carry the full-scale reference accuracies as context only; fixture-scale
numbers are not comparable to them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Sequence

from .config import Settings
from .corpus import SentenceRecord
from .errors import InputError
from .models import Model, build_char_cnn, build_word_cnn
from .text_encoding import (
    CharEncoder,
    EncodedExample,
    WordEncoder,
    build_char_alphabet,
    build_vocab,
    load_embeddings,
)
from .train_eval import EpochStats, Metrics, evaluate, train

REFERENCE_RESULTS: tuple[tuple[str, str, float], ...] = (
    ("word", "English input", 0.85),
    ("word", "Arabic input", 0.25),
    ("word", "Machine translated input", 0.60),
    ("char", "English input", 0.94),
    ("char", "Arabic input", 0.93),
)

_REFERENCE_NOTE = (
    "reference: accuracies reported for the original full-scale corpora, which are "
    "not distributed with this package; numbers below are not comparable to them"
)


def build_encoder(records: Sequence[SentenceRecord], settings: Settings) -> WordEncoder | CharEncoder:
    """Fit the vocabulary or alphabet on (training) records per settings."""
    if settings.model == "word":
        vocab = build_vocab(records, max_size=settings.word_vocab_max_size,
                            min_count=settings.word_vocab_min_count)
        return WordEncoder(vocab, settings.word_length)
    alphabet = build_char_alphabet(records, max_size=settings.char_alphabet_max_size)
    return CharEncoder(alphabet, settings.char_length)


def encode_labelled(
    records: Sequence[SentenceRecord], encoder: WordEncoder | CharEncoder
) -> list[EncodedExample]:
    out = []
    for record in records:
        if record.label is None:
            raise InputError(f"record {record.id!r} has no label; encode labelled data only")
        out.append(EncodedExample(encoder.encode(record.text), record.label.index))
    return out


@dataclass
class FitResult:
    model: Model
    encoder: WordEncoder | CharEncoder
    history: list[EpochStats]


def fit(
    train_records: Sequence[SentenceRecord],
    dev_records: Sequence[SentenceRecord],
    settings: Settings,
) -> FitResult:
    """Vocabulary/alphabet from the training split only, then train."""
    encoder = build_encoder(train_records, settings)
    enc_train = encode_labelled(train_records, encoder)
    enc_dev = encode_labelled(dev_records, encoder)
    if settings.model == "word":
        config = settings.word_config(vocab_size=encoder.vocab.size)
        model: Model = build_word_cnn(config, seed=settings.seed)
        if settings.word_embeddings:
            load_embeddings(settings.word_embeddings, encoder.vocab, model.embedding.param.value)
    else:
        config = settings.char_config(alphabet_size=encoder.alphabet.size)
        model = build_char_cnn(config, seed=settings.seed)
    model, history = train(model, enc_train, enc_dev, settings.train_config())
    return FitResult(model, encoder, history)


# --- experiment suites -------------------------------------------------------------


@dataclass(frozen=True)
class Condition:
    kind: str  # "word" or "char"
    name: str  # display label, e.g. "latin-script fixture"
    train: tuple[SentenceRecord, ...]
    dev: tuple[SentenceRecord, ...]
    test: tuple[SentenceRecord, ...]


@dataclass(frozen=True)
class ReportRow:
    kind: str
    condition: str
    accuracy: float


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    settings: dict

    def to_json_obj(self) -> dict:
        return {
            "note": _REFERENCE_NOTE,
            "reference_results": [
                {"kind": k, "condition": c, "accuracy": a} for k, c, a in REFERENCE_RESULTS
            ],
            "settings": self.settings,
            "rows": [dataclasses.asdict(r) for r in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), ensure_ascii=False, indent=2) + "\n"

    def render_text(self) -> str:
        lines = ["QuadClass classification accuracy", _REFERENCE_NOTE, ""]
        width = max([len(r.condition) for r in self.rows] + [len(c) for _, c, _ in REFERENCE_RESULTS] + [20])
        for kind, title in (("word", "Word-based models"), ("char", "Character-based models")):
            section = [r for r in self.rows if r.kind == kind]
            reference = [(c, a) for k, c, a in REFERENCE_RESULTS if k == kind]
            lines.append(title)
            for c, a in reference:
                lines.append(f"  {c:<{width}}  {a:.2f}  (reference, full scale)")
            for r in section:
                lines.append(f"  {r.condition:<{width}}  {r.accuracy:.4f}")
            if not section:
                lines.append("  (no runs)")
            lines.append("")
        return "\n".join(lines)


def run_experiment(conditions: Sequence[Condition], settings: Settings) -> ExperimentReport:
    """Train and evaluate every (model kind, condition) row of a suite."""
    rows = []
    for condition in conditions:
        per_run = dataclasses.replace(settings, model=condition.kind)
        result = fit(list(condition.train), list(condition.dev), per_run)
        metrics: Metrics = evaluate(result.model, encode_labelled(list(condition.test), result.encoder))
        rows.append(ReportRow(condition.kind, condition.name, metrics.accuracy))
    return ExperimentReport(tuple(rows), settings.to_json_obj())
