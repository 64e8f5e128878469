"""Text parsing, formatting, streamed reading and file-writing helpers shared by the IO paths.

Every number the package writes is ``repr`` of a Python float, through
``fmt`` or, in the bulk writers, directly on values read with ``.tolist()``:
the shortest text that round-trips the IEEE double exactly, at most 17
significant digits. Caller input is read here: scalars by ``number``, arrays by
``complex_array`` or ``real_array`` and vectors by ``real_vector``, all three
converted by ``as_array``; each refuses a malformed value by its field's name.
"""

from __future__ import annotations

import codecs
import math
import os
import tempfile

import numpy as np

from .errors import ModelError


def number(value, where: str, kind=float, low=None, high=None):
    """The finite scalar field `where` as kind (float or int), within [low, high] where given.

    Anything else (a word, a boolean, a non-integral count, a non-finite
    value, an int past the float range where a float is asked for) raises a
    ModelError naming the field. An int asked for as an int is read exactly.
    """
    try:
        if isinstance(value, bool):  # float(True) is 1.0, but a YAML boolean is not a number
            raise TypeError
        exact = kind is int and isinstance(value, (int, np.integer))
        x = int(value) if exact else float(value)
    except (TypeError, ValueError):
        raise ModelError(f"{where} must be a number, got {value!r}") from None
    except OverflowError:
        raise ModelError(f"{where} must be finite, got {value!r}") from None
    if not exact:
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


def as_array(value, where: str, dtype=complex, shape=None) -> np.ndarray:
    """The caller's field `where` as a dtype (complex or float) array of the given shape, if one is given.

    A word, a ragged nesting, another shape or a complex value for a real field (the conversion would
    drop its imaginary part) is a ModelError naming the field. An array of the dtype is not copied.
    """
    kind = "real" if dtype is float else "complex"
    try:
        if kind == "real" and getattr(value, "dtype", np.dtype(float)).kind == "c":
            raise TypeError
        x = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise ModelError(f"{where} must be {kind} numbers, got {value!r}") from None
    if shape is not None and x.shape != shape:
        raise ModelError(f"{where} shape {x.shape} != {shape}")
    return x


def complex_array(value, where: str, shape=None) -> np.ndarray:
    """as_array's complex array, refused as ModelError "`where` must be finite" if an entry is NaN or inf."""
    x = as_array(value, where, complex, shape)
    if not np.isfinite(x).all():
        raise ModelError(f"{where} must be finite")
    return x


def real_array(value, where: str, shape=None) -> np.ndarray:
    """as_array's real array, refused as ModelError "`where` must be finite" if an entry is NaN or inf."""
    x = as_array(value, where, float, shape)
    if not np.isfinite(x).all():
        raise ModelError(f"{where} must be finite")
    return x


def real_vector(value, where: str, stacked: bool = False):
    """The caller's finite real 3-vector field `where` and its length; stacked, an (m, 3) stack and its lengths.

    A word, another shape, a NaN or inf entry or a length past the float range is a ModelError naming the field.
    """
    x = as_array(value, where, float)
    if stacked and x.size == 0:  # no vectors at all
        x = x.reshape(0, 3)
    if x.ndim != 1 + stacked or x.shape[-1] != 3:
        raise ModelError(f"{where} shape {x.shape} != {'(m, 3)' if stacked else '(3,)'}")
    with np.errstate(over="ignore"):  # the dot np.linalg.norm takes; math.sqrt rounds as np.sqrt does
        length = np.sqrt(np.vecdot(x, x)) if stacked else math.sqrt(x.dot(x))
    if not (np.isfinite(length).all() if stacked else math.isfinite(length)):  # NaN or inf entry, or overflow
        defect = "must be finite" if not np.isfinite(x).all() else "length overflows the float range"
        raise ModelError(f"{where} {defect}")
    return x, length


def _not_utf8(path: str, err: UnicodeDecodeError, at: int) -> ModelError:
    return ModelError(f"{path}: not UTF-8 text ({err.reason} at byte {at})")


def read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``; undecodable bytes raise a ModelError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            raise _not_utf8(path, err, err.start) from None


# The streamed reader: text_chunks decodes a binary file _CHUNK bytes at a
# time, count_lines and split_lines split its text as str.splitlines() would
# split the whole, in memory of the order of one chunk.
_CHUNK = 1 << 17
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # each ends a line for str.splitlines


def text_chunks(fh, path: str, size: int | None = None):
    """The UTF-8 text of the binary file object ``fh`` as str chunks, one per read.

    Reads take ``_CHUNK`` bytes, or fewer when that would pass ``size``, where
    reading stops (a read allocates what it asks for); with no size they go
    on to the end. A character split by a read goes to the next chunk.
    Undecodable bytes raise read_text's ModelError, with the offset a
    whole-file decode reports.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    at = 0  # bytes read before the ones being decoded

    def decode(data, final=False):
        start = at - len(decoder.getstate()[0])  # where a character the last read split starts
        try:
            return decoder.decode(data, final)
        except UnicodeDecodeError as err:
            raise _not_utf8(path, err, start + err.start) from None

    while size is None or at < size:
        data = fh.read(_CHUNK if size is None else min(_CHUNK, size - at))
        if not data:
            break
        text = decode(data)
        at += len(data)
        yield text
    yield decode(b"", final=True)


def count_lines(chunks) -> int:
    """len(text.splitlines()) for the text the str chunks make up."""
    breaks, last = 0, "\n"
    for text in chunks:
        if not text:
            continue
        if text.isascii() and not any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e"):
            # only \n ends a line; NumPy counts it about 5x faster than str.count
            breaks += int(np.count_nonzero(np.frombuffer(text.encode(), np.uint8) == 10))
        else:
            breaks += len(text.splitlines()) - (text[-1] not in _LINE_BREAKS)
        breaks -= last == "\r" and text[0] == "\n"  # a \r\n split by a chunk end
        last = text[-1]
    return breaks + (last not in _LINE_BREAKS)


def split_lines(chunks):
    """The lines of the text the str chunks make up, as text.splitlines() gives them."""
    head, cr = [], ""  # pieces of a line no break has ended yet; a \r held for a \n to follow
    for text in chunks:
        text, cr = cr + text, ""
        if text.endswith("\r"):
            text, cr = text[:-1], "\r"
        if not text:
            continue
        lines = text.splitlines()
        if head:
            if len(lines) == 1 and text[-1] not in _LINE_BREAKS:
                head.append(text)
                continue
            lines[0] = "".join(head) + lines[0]
            head = []
        if text[-1] not in _LINE_BREAKS:
            head.append(lines.pop())
        yield from lines
    yield from ("".join(head) + cr).splitlines()


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
