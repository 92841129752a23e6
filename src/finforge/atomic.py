"""File I/O shared by the readers and writers of every file kind.

``read_lines`` reads a UTF-8 text file line by line, and names the file and
the line of a byte that is not UTF-8.

A tokenizer file or checkpoint is written to ``<path>.tmp`` in the same
directory and moved onto ``path`` with ``os.replace`` only once every byte is
written, so a writer that fails or is killed part-way never leaves a
truncated artifact under the final name. There is no fsync: this guards
against the process dying, not against the machine losing power.
"""

from __future__ import annotations

import contextlib
import os
from typing import BinaryIO, Iterator


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of the UTF-8 text file at
    ``path``, split as a text-mode file splits them (at ``\\n``, ``\\r\\n``
    or ``\\r``), without the line end. A byte that is not UTF-8 is a
    ``ValueError`` that names the file, the line and the byte offset."""
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                yield lineno, line.rstrip("\n")
    except UnicodeDecodeError:
        with open(path, "rb") as f:
            data = f.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(
                f"{path}:{line}: not UTF-8: {exc.reason} at byte {exc.start}"
            ) from None
        raise


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[BinaryIO]:
    """Open ``<path>.tmp`` for binary writing; replace ``path`` with it when
    the block completes. If the block raises, the temporary file is removed
    and ``path`` keeps its earlier contents."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
