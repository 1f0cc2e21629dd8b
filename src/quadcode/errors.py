"""Exception hierarchy shared across the toolkit, and the text-file reader.

Every error raised by quadcode derives from QuadcodeError. InputError marks
problems caused by user-supplied files, flags, or configuration (the CLI maps
these to exit code 2); everything else is an internal failure (exit code 1).
"""

from __future__ import annotations

from pathlib import Path


class QuadcodeError(Exception):
    """Base class for all quadcode errors."""


class InputError(QuadcodeError):
    """Bad user input: malformed files, invalid codes, unusable config."""


def read_text(path: str | Path) -> str:
    """The whole file decoded as UTF-8; undecodable bytes raise InputError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: line {line_no}: not valid UTF-8") from None
