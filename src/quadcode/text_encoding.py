"""Fixed-size numeric encodings of sentences.

Word route: shared tokenizer → vocabulary ids → embedding table rows.
Character route: codepoints of the lowercased text → alphabet ids feeding a
trainable character embedding (a corpus-derived alphabet generalizes the
fixed Latin alphabet of earlier character ConvNets to Arabic).

Index 0 is PAD and index 1 is UNK everywhere; PAD embedding rows stay zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import SentenceRecord
from .errors import InputError, read_text
from .softlabel import tokenize

PAD = 0
UNK = 1
_RESERVED = 2


class TextEncodingError(InputError):
    pass


class Vocabulary:
    """Dense token→id map with PAD=0 and UNK=1 always present.

    tokens[i] has id i + 2 and was seen counts[i] times. Word vocabularies
    and character alphabets are both Vocabularies; CharEncoder checks that
    an alphabet's tokens are single codepoints.
    """

    def __init__(self, tokens: list[str], counts: list[int]):
        self.tokens = tokens
        self.counts = counts
        self._index: dict[str, int] = dict(zip(tokens, range(_RESERVED, _RESERVED + len(tokens))))
        if len(self._index) != len(tokens):
            seen: set[str] = set()
            for entry_no, token in enumerate(tokens, start=1):
                if token in seen:
                    raise TextEncodingError(f"vocabulary entry {entry_no}: duplicate token {token!r}")
                seen.add(token)

    @property
    def size(self) -> int:
        return len(self.tokens) + _RESERVED

    def index_of(self, token: str) -> int:
        return self._index.get(token, UNK)

    def __contains__(self, token: str) -> bool:
        return token in self._index


def _ranked(counts: Counter, max_size: int | None, min_count: int) -> Vocabulary:
    """Shared ranking rule: count desc, then key ascending; ids from 2 up."""
    if max_size is not None and max_size < _RESERVED:
        raise TextEncodingError(f"max_size must leave room for PAD and UNK, got {max_size}")
    kept = [(k, c) for k, c in counts.items() if c >= min_count]
    kept.sort(key=lambda kc: (-kc[1], kc[0]))
    if max_size is not None:
        kept = kept[: max_size - _RESERVED]
    return Vocabulary([k for k, _ in kept], [c for _, c in kept])


def build_vocab(
    records: Iterable[SentenceRecord], max_size: int | None = None, min_count: int = 1
) -> Vocabulary:
    """Token ids ranked by (count desc, token lexicographic); deterministic.

    max_size counts the PAD/UNK slots, so at most max_size-2 real tokens.
    """
    counts: Counter = Counter()
    for record in records:
        counts.update(tokenize(record.text))
    return _ranked(counts, max_size, min_count)


def build_char_alphabet(records: Iterable[SentenceRecord], max_size: int | None = 256) -> Vocabulary:
    """Most frequent codepoints of the lowercased texts, ties by codepoint."""
    counts: Counter = Counter()
    for record in records:
        counts.update(record.text.lower())
    return _ranked(counts, max_size, 1)


def _fit(indices: list[int], length: int) -> np.ndarray:
    if length < 1:
        raise TextEncodingError(f"encoded length must be >= 1, got {length}")
    out = np.full(length, PAD, dtype=np.int64)
    take = min(len(indices), length)
    out[:take] = indices[:take]
    return out


def encode_words(vocab: Vocabulary, tokens: Sequence[str], length: int) -> np.ndarray:
    """int64[length]: token ids, right-truncated and right-PADded."""
    return _fit([vocab.index_of(t) for t in tokens], length)


def encode_chars(alphabet: Vocabulary, text: str, length: int) -> np.ndarray:
    """int64[length] over the codepoints of text.lower(), whitespace kept."""
    return _fit([alphabet.index_of(ch) for ch in text.lower()], length)


@dataclass(frozen=True)
class EncodedExample:
    """A model-ready example: fixed-length id vector plus class index."""

    indices: np.ndarray
    label: int

    def __post_init__(self):
        if self.indices.dtype != np.int64 or self.indices.ndim != 1:
            raise TextEncodingError("indices must be a 1-d int64 array")
        if not 0 <= self.label <= 3:
            raise TextEncodingError(f"label index out of range: {self.label}")


def load_embeddings(path: str | Path, vocab: Vocabulary, table: np.ndarray) -> None:
    """Overwrite the rows of table covered by the text vectors `token v1 ... vd`.

    Rows the file does not cover keep their values, so the model's own
    random init stays for them. PAD and UNK are never covered; file tokens
    outside the vocabulary are ignored.
    """
    d = table.shape[1]
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(" ")
        token, values = parts[0], parts[1:]
        if not token:
            raise TextEncodingError(f"embedding line {line_no}: missing token")
        if len(values) != d:
            raise TextEncodingError(f"embedding line {line_no}: vector has {len(values)} values, expected {d}")
        if token not in vocab:
            continue
        try:
            row = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise TextEncodingError(f"embedding line {line_no}: {exc}") from None
        if not np.isfinite(row).all():
            raise TextEncodingError(f"embedding line {line_no}: values must be finite")
        table[vocab.index_of(token)] = row


# --- encoder bundles ---------------------------------------------------------
#
# Thin (table, length) pairs that checkpoints can embed and restore, so a
# saved model carries everything needed to encode raw text.


@dataclass(frozen=True)
class WordEncoder:
    vocab: Vocabulary
    length: int

    def encode(self, text: str) -> np.ndarray:
        return encode_words(self.vocab, tokenize(text), self.length)


@dataclass(frozen=True)
class CharEncoder:
    alphabet: Vocabulary
    length: int

    def __post_init__(self):
        for entry_no, token in enumerate(self.alphabet.tokens, start=1):
            if len(token) != 1:
                raise TextEncodingError(
                    f"vocabulary entry {entry_no}: alphabet entry must be a single codepoint, got {token!r}"
                )

    def encode(self, text: str) -> np.ndarray:
        return encode_chars(self.alphabet, text, self.length)

