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


class NotUtf8Error(InputError):
    def __init__(self, path: str | Path, line_no: int):
        super().__init__(f"{path}: line {line_no}: not valid UTF-8")
        self.line_no = line_no


def read_text(path: str | Path) -> str:
    """The whole file decoded as UTF-8; undecodable bytes raise NotUtf8Error."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8Error(path, data.count(b"\n", 0, exc.start) + 1) from None
