"""Small file helpers: atomic text writes and the one CSV writer."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path: str, text: str) -> None:
    """Write `text` to `path` so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path: str, header: str, rows) -> None:
    """Header line, then one line per row of numbers, one per header column.

    Every field is written with 17 significant digits, which round-trips a
    double exactly; pass Python floats (ndarray.tolist()) for speed.
    """
    fmt = ",".join(["%.17g"] * (header.count(",") + 1))
    lines = [header]
    lines.extend(fmt % tuple(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")
