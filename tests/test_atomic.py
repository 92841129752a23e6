"""Tokenizer files and checkpoints replace the earlier file only once they are
fully written."""

import errno
import os

import pytest

from finforge import atomic
from finforge import model as M
from finforge import tokenizer as T
from finforge import trainer as R
from finforge.scaling import ModelShape


class _DiskFillsUp:
    """A binary file that takes ``budget`` bytes and then fails the write that
    would exceed it, as a full disk does, after writing what fits."""

    def __init__(self, f, budget):
        self._f, self._left = f, budget

    def write(self, data):
        if len(data) > self._left:
            self._f.write(data[: self._left])
            self._f.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._left -= len(data)
        return self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _save_tokenizer(path, version):
    probs = {b"a": 1.0} if version == 0 else {b"ab": 0.5, b"a": 0.25, b"b": 0.25}
    T.save_tokenizer(T.finalize(T.UnigramVocab(probs, 1.0)), path)


def _save_checkpoint(path, version):
    shape = ModelShape(1, 2, 8, 4, 32, 16)
    params = M.init_params(shape, version)
    R.save_checkpoint(path, shape, R.TrainConfig(), params, R.TrainState.fresh(params))


@pytest.mark.parametrize("save", [_save_tokenizer, _save_checkpoint], ids=["tokenizer", "checkpoint"])
def test_failed_write_keeps_the_earlier_file(monkeypatch, tmp_path, save):
    path = tmp_path / "artifact"
    save(str(path), 0)
    before = path.read_bytes()

    real_open = open
    budget = len(before) // 2
    monkeypatch.setattr(
        atomic, "open", lambda p, mode: _DiskFillsUp(real_open(p, mode), budget), raising=False
    )
    with pytest.raises(OSError) as exc:
        save(str(path), 1)
    assert exc.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]

    monkeypatch.undo()
    save(str(path), 1)
    assert path.read_bytes() != before
    assert os.listdir(tmp_path) == ["artifact"]
