"""Text formatting and file-writing helpers shared by the IO paths.

All numeric text output goes through ``fmt`` so that every file the package
writes uses the same 17-significant-digit representation, which is enough to
round-trip IEEE doubles exactly.
"""

from __future__ import annotations

import os
import tempfile


def fmt(x: float) -> str:
    """Shortest decimal text that round-trips the double exactly."""
    return repr(float(x))


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
