"""End-to-end fitting: records in, trained model out."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .config import Settings
from .corpus import SentenceRecord
from .errors import InputError
from .models import CharCnn, Model, WordCnn
from .text_encoding import (
    CharEncoder,
    EncodedExample,
    WordEncoder,
    build_char_alphabet,
    build_vocab,
    load_embeddings,
)
from .train_eval import EpochStats, train


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
    train_config = settings.train_config()  # bad training settings fail before any work
    encoder = build_encoder(train_records, settings)
    enc_train = encode_labelled(train_records, encoder)
    enc_dev = encode_labelled(dev_records, encoder)
    if settings.model == "word":
        config = settings.word_config(vocab_size=encoder.vocab.size)
        model: Model = WordCnn(config, settings.seed)
        if settings.word_embeddings:
            load_embeddings(settings.word_embeddings, encoder.vocab, model.embedding.param.value)
    else:
        config = settings.char_config(alphabet_size=encoder.alphabet.size)
        model = CharCnn(config, settings.seed)
    model, history = train(model, enc_train, enc_dev, train_config)
    return FitResult(model, encoder, history)

