"""Exception hierarchy shared across the toolkit, and the text-file readers.

Every error raised by quadcode derives from QuadcodeError. InputError marks
problems caused by user-supplied files, flags, or configuration (the CLI maps
these to exit code 2); everything else is an internal failure (exit code 1).
"""

from __future__ import annotations

import re
from pathlib import Path


class QuadcodeError(Exception):
    """Base class for all quadcode errors."""


class InputError(QuadcodeError):
    """Bad user input: malformed files, invalid codes, unusable config."""


def read_text(path: str | Path) -> str:
    """The whole file decoded as UTF-8; undecodable bytes and a leading
    byte-order mark, which would otherwise stay glued to the first line's
    first word, raise InputError."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(text_lines(data[: exc.start].decode("utf-8")))
        raise InputError(f"{path}: line {line_no}: not valid UTF-8") from None
    if text.startswith("\ufeff"):
        raise InputError(f"{path}: line 1: starts with a byte-order mark (save the file as UTF-8 without a BOM)")
    return text


_LINE_END = re.compile(r"\r\n|\r|\n")


def text_lines(text: str) -> list[str]:
    """text split at \\n, \\r\\n and \\r only, the line ends open() honours
    for the JSONL reader. str.splitlines also breaks at VT, FF, FS/GS/RS,
    U+0085, U+2028 and U+2029, which a line may hold (in a comment, say)."""
    return _LINE_END.split(text)
