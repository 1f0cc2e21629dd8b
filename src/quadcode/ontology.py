"""CAMEO event codes and their four-quadrant (QuadClass) reduction.

CAMEO organizes political events under 20 top-level categories; each code is
a string of 2-4 digits whose first two digits name the top-level category.
A QuadClassMap collapses the 20 categories onto the four quadrants spanned by
the cooperation/conflict and verbal/material axes. The code ranges of that
reduction are not standardized in print, so the mapping ships as an editable
config file (see data/default_quadmap.txt) rather than being hard-coded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import InputError, read_text, text_lines


class OntologyError(InputError):
    """Invalid CAMEO code or quad map content."""


class QuadClass(Enum):
    """The four event quadrants: cooperation/conflict x verbal/material.

    Declaration order is the canonical class-index order (0-3) used for
    labels, logits, and confusion matrices everywhere in the toolkit.
    """

    VERBAL_COOPERATION = "verbal_cooperation"
    MATERIAL_COOPERATION = "material_cooperation"
    VERBAL_CONFLICT = "verbal_conflict"
    MATERIAL_CONFLICT = "material_conflict"

    @property
    def index(self) -> int:
        return _CLASS_INDEX[self]


CLASSES: tuple[QuadClass, ...] = tuple(QuadClass)
_CLASS_INDEX = {c: i for i, c in enumerate(CLASSES)}

TOP_LEVEL_MIN = 1
TOP_LEVEL_MAX = 20


@dataclass(frozen=True)
class CameoCode:
    """A validated CAMEO event code: 2-4 digits, top level in 01-20.

    Codes are strings, not integers, so leading zeros survive ("02").
    """

    digits: str

    def __post_init__(self):
        if len(self.digits) not in (2, 3, 4):
            raise OntologyError(f"CAMEO code must have 2-4 digits: {self.digits!r}")
        if not self.digits.isascii() or not self.digits.isdigit():
            raise OntologyError(f"CAMEO code must be all digits: {self.digits!r}")
        if not TOP_LEVEL_MIN <= int(self.digits[:2]) <= TOP_LEVEL_MAX:
            raise OntologyError(f"top-level category must be 01-20: {self.digits!r}")

    def __str__(self) -> str:
        return self.digits


def parse_cameo_code(text: str) -> CameoCode:
    """Parse a CAMEO code from text, stripping surrounding whitespace."""
    return CameoCode(text.strip())


def top_level(code: CameoCode) -> int:
    """Integer value of the first two digits (the top-level category)."""
    return int(code.digits[:2])


@dataclass(frozen=True)
class QuadClassMap:
    """Total mapping from top-level codes 1-20 onto the four quadrants."""

    table: Mapping[int, QuadClass]

    def __post_init__(self):
        for n in range(TOP_LEVEL_MIN, TOP_LEVEL_MAX + 1):
            if n not in self.table:
                raise OntologyError(f"quad map has no entry for top-level code {n:02d}")
        extra = set(self.table) - set(range(TOP_LEVEL_MIN, TOP_LEVEL_MAX + 1))
        if extra:
            raise OntologyError(f"quad map entries outside 01-20: {sorted(extra)}")

    def __getitem__(self, top: int) -> QuadClass:
        return self.table[top]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuadClassMap) and dict(self.table) == dict(other.table)


def quad_of(code: CameoCode, quad_map: QuadClassMap) -> QuadClass:
    """QuadClass of a code under a map; total because the map is total."""
    return quad_map[top_level(code)]


# --- quad map file format -------------------------------------------------
#
# One entry per line: "<NN|NN-NN> <class>", '#' starts a comment. Classes are
# the snake_case names of the four QuadClass values.

_HEADER = "# top-level CAMEO code ranges -> QuadClass\n"


def parse_quad_map(text: str) -> QuadClassMap:
    """Parse quad map text; rejects duplicate entries and partial coverage."""
    seen: dict[int, QuadClass] = {}
    for line_no, raw in enumerate(text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise OntologyError(f"quad map line {line_no}: expected '<range> <class>', got {raw!r}")
        span, name = parts
        try:
            quad = QuadClass(name)
        except ValueError:
            raise OntologyError(f"quad map line {line_no}: unknown class {name!r}") from None
        lo, _, hi = span.partition("-")
        try:
            lo_n = int(lo, 10)
            hi_n = int(hi, 10) if hi else lo_n
        except ValueError:
            raise OntologyError(f"quad map line {line_no}: bad code or range {span!r}") from None
        if not (TOP_LEVEL_MIN <= lo_n <= hi_n <= TOP_LEVEL_MAX):
            raise OntologyError(f"quad map line {line_no}: range {span!r} outside 01-20")
        for n in range(lo_n, hi_n + 1):
            if n in seen:
                raise OntologyError(f"quad map defines top-level code {n:02d} twice")
            seen[n] = quad
    return QuadClassMap(seen)


def dumps_quad_map(quad_map: QuadClassMap) -> str:
    """Canonical text form: maximal runs of equal class, in code order."""
    lines = [_HEADER.rstrip("\n")]
    start = TOP_LEVEL_MIN
    while start <= TOP_LEVEL_MAX:
        quad = quad_map[start]
        end = start
        while end + 1 <= TOP_LEVEL_MAX and quad_map[end + 1] is quad:
            end += 1
        span = f"{start:02d}" if start == end else f"{start:02d}-{end:02d}"
        lines.append(f"{span} {quad.value}")
        start = end + 1
    return "\n".join(lines) + "\n"


def load_quad_map(path: str | Path) -> QuadClassMap:
    return parse_quad_map(read_text(path))


def quad_map_digest(quad_map: QuadClassMap) -> str:
    """SHA-256 of the canonical text form; stored in checkpoints."""
    return hashlib.sha256(dumps_quad_map(quad_map).encode("utf-8")).hexdigest()


def default_quad_map() -> QuadClassMap:
    """The shipped reduction: 01-05 vc, 06-08 mc, 09-13 vf, 14-20 mf.

    The placement of category 01 ("Make Statement") under verbal cooperation
    is a judgment call; edit a copy of data/default_quadmap.txt to change it.
    """
    text = resources.files("quadcode.data").joinpath("default_quadmap.txt").read_text(encoding="utf-8")
    return parse_quad_map(text)

