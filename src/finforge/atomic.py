"""Atomic replacement of artifact files.

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
