"""Synthetic corpora with known answers, for tests and walkthroughs.

The separable corpus plants class-specific keywords built from four
disjoint letter pools, over fillers drawn from a fifth pool. Word models
can separate the classes on keyword identity; character models on the
letter n-grams, which never cross class pools. The generating rule is the
oracle: a sentence's label is the class whose keyword it carries.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rng
from .corpus import AlignmentPair, SentenceRecord
from .ontology import CLASSES, QuadClass, default_quad_map, parse_cameo_code, quad_of
from .softlabel import VerbPattern

_FILLERS = (
    "sonar", "tenor", "roast", "stone", "arena", "otter",
    "saner", "tarot", "onset", "eaten", "snort", "retro",
)

# one keyword pool per class; pools are disjoint from each other and from
# the filler letters {a,e,o,n,r,s,t}
_KEYWORDS = (
    ("bcdbc", "dcbdb", "cbdcd"),
    ("fghfg", "hgfhf", "gfhgh"),
    ("jkljk", "lkjlj", "kjlkl"),
    ("mpqmp", "qpmqm", "pmqpq"),
)

_TO_ARABIC = str.maketrans({
    "a": "ا", "e": "ه", "o": "و", "n": "ن", "r": "ر",
    "s": "س", "t": "ت", "b": "ب", "c": "ج", "d": "د",
    "f": "ف", "g": "غ", "h": "ح", "j": "خ", "k": "ك",
    "l": "ل", "m": "م", "p": "ص", "q": "ق",
})


def make_separable_corpus(n: int, seed: int, script: str = "latin") -> list[SentenceRecord]:
    """n labelled sentences, classes assigned round-robin (balanced when 4 | n).

    script="arabic" maps every letter through a fixed Latin-to-Arabic table,
    preserving the combinatorial structure in a different codepoint range.
    """
    if script not in ("latin", "arabic"):
        raise ValueError(f"script must be 'latin' or 'arabic', got {script!r}")
    gen = rng.stream(seed, rng.FIXTURE)
    records = []
    for i in range(n):
        quad = CLASSES[i % 4]
        words = [_FILLERS[k] for k in gen.integers(0, len(_FILLERS), size=int(gen.integers(4, 8)))]
        keywords = _KEYWORDS[quad.index]
        for _ in range(int(gen.integers(1, 3))):
            word = keywords[int(gen.integers(0, len(keywords)))]
            words.insert(int(gen.integers(0, len(words) + 1)), word)
        text = " ".join(words)
        lang = "en"
        if script == "arabic":
            text = text.translate(_TO_ARABIC)
            lang = "ar"
        records.append(SentenceRecord(id=f"fx{i:05d}", lang=lang, text=text, label=quad))
    return records


# --- soft-label fixture ---------------------------------------------------------

_FIXTURE_PATTERNS: tuple[tuple[str, str], ...] = (
    ("met with", "040"),
    ("signed agreement with", "057"),
    ("provided aid to", "070"),
    ("condemned", "111"),
    ("attacked", "190"),
    # shorter competitor of the 057 phrase, exercising longest-match
    ("signed", "051"),
)

_NOISE = ("officials", "yesterday", "reportedly", "near", "border", "village", "forces")


@dataclass(frozen=True)
class SoftLabelFixture:
    records: list[SentenceRecord]
    patterns: list[VerbPattern]
    expected: list[tuple[QuadClass, str] | None]  # per record: (label, code) or None


def make_softlabel_fixture(n: int, seed: int) -> SoftLabelFixture:
    """Unlabelled sentences with a planted pattern phrase (or none).

    Every fifth sentence carries no pattern; the rest embed exactly one
    dictionary phrase, so each expected label is known by construction.
    """
    gen = rng.stream(seed, rng.FIXTURE, 1)
    patterns = [VerbPattern(tuple(p.split()), parse_cameo_code(c)) for p, c in _FIXTURE_PATTERNS]
    quad_map = default_quad_map()
    records, expected = [], []
    for i in range(n):
        noise = [_NOISE[k] for k in gen.integers(0, len(_NOISE), size=3)]
        if i % 5 == 4:
            text_tokens = noise
            expected.append(None)
        else:
            phrase, code = _FIXTURE_PATTERNS[i % len(_FIXTURE_PATTERNS)]
            cut = int(gen.integers(0, len(noise) + 1))
            text_tokens = noise[:cut] + phrase.split() + noise[cut:]
            expected.append((quad_of(parse_cameo_code(code), quad_map), code))
        text = " ".join(text_tokens).capitalize() + "."
        records.append(SentenceRecord(id=f"sl{i:05d}", lang="en", text=text))
    return SoftLabelFixture(records, patterns, expected)


# --- label-transfer fixture -------------------------------------------------------


@dataclass(frozen=True)
class TransferFixture:
    source: list[SentenceRecord]
    target: list[SentenceRecord]
    pairs: list[AlignmentPair]
    expected_labels: dict[str, QuadClass]  # target id -> label
    expected_conflicts: int
    expected_dropped: int


def make_transfer_fixture() -> TransferFixture:
    """Fixed graph covering fan-out, many-to-one conflict, and a dropped target."""
    quads = list(CLASSES)
    source = [
        SentenceRecord(id=f"s{i}", lang="en", text=f"source sentence {i}", label=quads[i % 4])
        for i in range(4)
    ]
    target = [
        SentenceRecord(id=f"t{i}", lang="ar", text=f"جملة {i}") for i in range(5)
    ]
    pairs = [
        AlignmentPair("s0", "t0"),  # fan-out: s0 labels both t0 and t1
        AlignmentPair("s0", "t1"),
        AlignmentPair("s1", "t2"),
        AlignmentPair("s2", "t3"),  # first pair for t3 wins
        AlignmentPair("s3", "t3"),  # second pair conflicts
        # t4 deliberately unaligned
    ]
    expected = {"t0": quads[0], "t1": quads[0], "t2": quads[1], "t3": quads[2]}
    return TransferFixture(source, target, pairs, expected, expected_conflicts=1, expected_dropped=1)
