"""Dictionary-based soft labeling of sentences with CAMEO codes.

This is a deliberately simplified stand-in for a full parser-based event
coder: it assigns a sentence the CAMEO code of the leftmost-longest verb
phrase found in a pattern dictionary, with no constituency parsing and no
actor/role resolution. Good enough to mass-produce (noisy) QuadClass
training labels, which is its only job here.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import LabelHistogram, SentenceRecord, read_jsonl, write_jsonl
from .errors import InputError, read_text
from .ontology import CameoCode, OntologyError, QuadClass, QuadClassMap, parse_cameo_code, quad_of


class SoftLabelError(InputError):
    """Bad verb patterns or dictionary files."""


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation.

    Punctuation means Unicode category P*; interior punctuation survives
    ("u.s."), empty tokens are dropped. Pure and deterministic.
    """
    tokens = []
    for raw in text.lower().split():
        # No code point is both alphanumeric and P*, so such a token has
        # nothing to strip: most news words skip the category walk.
        if raw[0].isalnum() and raw[-1].isalnum():
            tokens.append(raw)
            continue
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            tokens.append(raw[start:end])
    return tokens


def _unmatchable(token: str) -> str | None:
    """Why tokenize never yields token, or None when it yields it for itself.

    Lowercasing is idempotent on every code point, so a token that survives
    its own tokenization is exactly one that some sentence can produce.
    """
    got = tokenize(token)
    if got == [token]:
        return None
    return f"token {token!r} can never match: the tokenizer reads it as {got!r}"


@dataclass(frozen=True)
class VerbPattern:
    """An ordered verb-phrase token sequence mapped to a CAMEO code."""

    tokens: tuple[str, ...]
    code: CameoCode

    def __post_init__(self):
        if not self.tokens:
            raise SoftLabelError("pattern needs at least one token")
        for token in self.tokens:
            reason = _unmatchable(token)
            if reason is not None:
                raise SoftLabelError(f"pattern {reason}")


@dataclass(frozen=True)
class MatchSpan:
    """A dictionary hit: tokens[start : start+length] matched `code`."""

    start: int
    length: int
    code: CameoCode


class _TrieNode:
    __slots__ = ("children", "code")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.code: CameoCode | None = None


class PatternDictionary:
    """Immutable token trie supporting longest-match lookup at a position.

    A token sequence defined twice is rejected. Lookup results depend only
    on the pattern set, never on insertion order.
    """

    def __init__(self, patterns: Iterable[VerbPattern]):
        self._root = _TrieNode()
        for pattern in patterns:
            node = self._root
            for token in pattern.tokens:
                node = node.children.setdefault(token, _TrieNode())
            if node.code is not None:
                raise SoftLabelError(f"pattern defined twice: {' '.join(pattern.tokens)!r}")
            node.code = pattern.code

    def longest_match_at(self, tokens: Sequence[str], start: int) -> tuple[int, CameoCode] | None:
        """Longest pattern matching tokens[start:]; O(max pattern length)."""
        node = self._root
        best: tuple[int, CameoCode] | None = None
        for i in range(start, len(tokens)):
            node = node.children.get(tokens[i])
            if node is None:
                break
            if node.code is not None:
                best = (i - start + 1, node.code)
        return best


def match_patterns(dictionary: PatternDictionary, tokens: Sequence[str]) -> list[MatchSpan]:
    """Non-overlapping leftmost-longest scan, spans sorted by start.

    At each position the longest matching pattern wins and scanning resumes
    right after it; positions with no match advance by one token. A position
    whose token starts no pattern is skipped before the trie walk.
    """
    starts = dictionary._root.children
    spans: list[MatchSpan] = []
    free = 0  # first position past the last span
    for pos, token in enumerate(tokens):
        if pos < free or token not in starts:
            continue
        hit = dictionary.longest_match_at(tokens, pos)
        if hit is not None:
            length, code = hit
            spans.append(MatchSpan(pos, length, code))
            free = pos + length
    return spans


def label_sentence(
    dictionary: PatternDictionary,
    quad_map: QuadClassMap,
    text: str,
    actor_words: frozenset[str] | None = None,
) -> tuple[QuadClass, CameoCode] | None:
    """Label a sentence from its first dictionary hit, or return None.

    With actor_words set, a sentence is only labelled if at least one token
    is in that list (a minimal actor gate; off by default).
    """
    tokens = tokenize(text)
    if actor_words is not None and not any(t in actor_words for t in tokens):
        return None
    spans = match_patterns(dictionary, tokens)
    if not spans:
        return None
    code = spans[0].code
    return quad_of(code, quad_map), code


def code_corpus(
    dictionary: PatternDictionary,
    quad_map: QuadClassMap,
    in_path: str | Path,
    out_path: str | Path,
    actor_words: frozenset[str] | None = None,
) -> LabelHistogram:
    """Soft-label a sentence JSONL file; only labelled records are written.

    Returns the per-class histogram; histogram total equals the input record
    count (labelled + no-label). Output preserves input order.
    """
    hist = LabelHistogram()
    labelled: list[SentenceRecord] = []
    for record in read_jsonl(in_path):
        result = label_sentence(dictionary, quad_map, record.text, actor_words)
        if result is None:
            hist.add(None)
            continue
        quad, code = result
        hist.add(quad)
        labelled.append(SentenceRecord(record.id, record.lang, record.text, quad, code, record.source))
    write_jsonl(labelled, out_path)
    return hist


# --- dictionary file format -------------------------------------------------
#
# One pattern per line: "token token ... -> CODE". '#' starts a comment.
# Tokens are lowercased on load, and each must be a token the tokenizer
# yields (no edge punctuation), or the pattern could never match.


def parse_dictionary(text: str) -> list[VerbPattern]:
    patterns: list[VerbPattern] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        phrase, sep, code_text = line.partition("->")
        if not sep:
            raise SoftLabelError(f"dictionary line {line_no}: expected 'tokens -> CODE', got {raw!r}")
        tokens = tuple(t.lower() for t in phrase.split())
        try:
            patterns.append(VerbPattern(tokens, parse_cameo_code(code_text)))
        except (OntologyError, SoftLabelError) as exc:
            raise SoftLabelError(f"dictionary line {line_no}: {exc}") from None
    return patterns


def load_dictionary(path: str | Path) -> PatternDictionary:
    return PatternDictionary(parse_dictionary(read_text(path)))


def load_actor_words(path: str | Path) -> frozenset[str]:
    """One actor word per line, '#' comments; tokens lowercased.

    Each word must be a single token the tokenizer yields, or it could
    never gate a sentence.
    """
    words = set()
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        word = raw.split("#", 1)[0].strip().lower()
        if not word:
            continue
        reason = _unmatchable(word)
        if reason is not None:
            raise SoftLabelError(f"actor list line {line_no}: {reason}")
        words.add(word)
    return frozenset(words)
