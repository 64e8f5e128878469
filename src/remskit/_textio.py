"""Text parsing, formatting and file-writing helpers shared by the IO paths.

Every number the package writes is ``repr`` of a Python float, through
``fmt`` or, in the bulk writers, directly on values read with ``.tolist()``:
the shortest text that round-trips the IEEE double exactly, at most 17
significant digits. Scalar input fields go through ``number``,
which turns a malformed value into a ModelError naming the field.
"""

from __future__ import annotations

import math
import os
import tempfile

from .errors import ModelError


def number(value, where: str, kind=float, low=None, high=None):
    """The finite scalar field `where` as kind (float or int), within [low, high] where given.

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
    if high is not None and x > high:
        raise ModelError(f"{where} must be at most {high}, got {value!r}")
    return x


def read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``; undecodable bytes raise a ModelError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            raise ModelError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None


def fmt(x: float) -> str:
    """Shortest decimal text that round-trips the double exactly."""
    return repr(float(x))


def csv_text(header: str, rows) -> str:
    """CSV text: the header line, then one comma-joined line per row of strings."""
    return "".join([header + "\n"] + [",".join(row) + "\n" for row in rows])


def atomic_write_text(path: str, text) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file and rename.

    ``text`` is a str, written in one call, or an iterable of str chunks,
    written in order, so a caller can stream a file without holding its whole
    text. A chunk that raises leaves ``path`` as it was and removes the temp
    file. The file gets the mode ``open(path, "w")`` would give a new file,
    ``0o666`` less the umask, not the temp file's owner-only ``0o600``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)  # never a str: writelines would write it by character
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
