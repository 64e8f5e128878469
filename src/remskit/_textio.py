"""Text parsing, formatting and file-writing helpers shared by the IO paths.

All numeric text output goes through ``fmt`` so that every file the package
writes uses the same 17-significant-digit representation, which is enough to
round-trip IEEE doubles exactly. Scalar input fields go through ``number``,
which turns a malformed value into a ModelError naming the field.
"""

from __future__ import annotations

import math
import os
import tempfile

from .errors import ModelError


def number(value, where: str, kind=float, low=None):
    """The finite scalar field `where` as kind (float or int), at least `low` if given.

    Anything else (a word, a non-integral count, a non-finite value) raises a
    ModelError naming the field.
    """
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"{where} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ModelError(f"{where} must be finite, got {value!r}")
    if kind is int:
        if x != math.floor(x):
            raise ModelError(f"{where} must be an integer, got {value!r}")
        x = int(x)
    if low is not None and x < low:
        raise ModelError(f"{where} must be at least {low}, got {value!r}")
    return x


def fmt(x: float) -> str:
    """Shortest decimal text that round-trips the double exactly."""
    return repr(float(x))


def csv_text(header: str, rows) -> str:
    """CSV text: the header line, then one comma-joined line per row of strings."""
    return "".join([header + "\n"] + [",".join(row) + "\n" for row in rows])


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
