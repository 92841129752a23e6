"""File I/O shared by the readers and writers of every file kind.

``read_lines`` reads a UTF-8 text file line by line, and names the file and
the line of a byte that is not UTF-8. ``json_value`` is the one JSON parser:
every JSON input, ``read_json_lines``'s lines and the checkpoint header, fails
through it naming where the text came from.

A tokenizer file or checkpoint is written to ``<path>.tmp`` in the same
directory and moved onto ``path`` with ``os.replace`` only once every byte is
written, so a writer that fails or is killed part-way never leaves a
truncated artifact under the final name. There is no fsync: this guards
against the process dying, not against the machine losing power.
"""

from __future__ import annotations

import contextlib
import json
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


def json_value(data: str | bytes, where: str):
    """The value of the JSON text ``data``, given as text or as bytes. A
    syntax error, bytes that are not UTF-8, or nesting deeper than ``json``
    decodes is a ``ValueError`` that starts ``<where>: not JSON:``."""
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:  # ValueError: UnicodeDecodeError too
        raise ValueError(f"{where}: not JSON: {exc}") from None


def read_json_lines(path: str) -> Iterator[tuple[int, object]]:
    """``(line number, value)`` for each line of ``path`` that is not blank,
    read by ``read_lines`` and parsed by ``json_value`` as ``path:line``."""
    for lineno, line in read_lines(path):
        if line.strip():
            yield lineno, json_value(line, f"{path}:{lineno}")


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
