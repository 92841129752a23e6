"""A training run killed at any write resumes to the files of an uninterrupted
run. The 4-step training fixture of ``test_train_golden`` runs in a subprocess
that counts its write events, each row that ``DiagnosticsLog.record`` writes
and each ``write`` on a file that ``trainer.atomic_write`` yields, and at the
k-th writes the first half of its bytes, flushes and SIGKILLs itself. The run
is then resumed from its newest checkpoint below ``steps`` (a resume must
start below ``steps``), or, with none, started afresh on an out_dir without
its torn ``diagnostics.csv``. Every file must then equal an uninterrupted
run's, apart from the ``diagnostics-*-*.csv`` sidecars of the rows that the
resume cut, and no ``*.tmp`` may remain."""

import fnmatch
import os
import signal
import subprocess
import sys

import pytest

import finforge
from test_train_golden import CONFIG, _digests, _fixture

STEPS = 4

# Runs the CLI on argv[2:], killed at write event argv[1] (never if 0).
KILL_CLI = """
import contextlib, os, signal, sys
from finforge import cli
from finforge import trainer as R

kill_at, events = int(sys.argv[1]), 0


class Killing:
    def __init__(self, f):
        self.f = f

    def write(self, data):
        global events
        events += 1
        if events == kill_at:
            self.f.write(data[: len(data) // 2])
            self.f.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        return self.f.write(data)

    def __getattr__(self, name):
        return getattr(self.f, name)


real_init, real_atomic_write = R.DiagnosticsLog.__init__, R.atomic_write


def init(self, path):
    real_init(self, path)
    self._file = Killing(self._file)  # record writes each row in one write


@contextlib.contextmanager
def atomic_write(path):
    with real_atomic_write(path) as f:
        yield Killing(f)


R.DiagnosticsLog.__init__, R.atomic_write = init, atomic_write
sys.exit(cli.main(sys.argv[2:]))
"""


def _run(d, out, kill_at, *extra):
    """The return code and stderr of ``train`` of the fixture's config for
    ``STEPS`` into ``d / out``, under ``KILL_CLI``."""
    cfg = d / f"{out}.cfg"
    cfg.write_text(CONFIG.format(d=d, steps=STEPS).replace(f"{d}/out", f"{d}/{out}"))
    src = os.path.dirname(os.path.dirname(finforge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", KILL_CLI, str(kill_at), "train", "--config", str(cfg), *extra],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return run.returncode, run.stderr


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    d = tmp_path_factory.mktemp("kill")
    _fixture(d)
    code, err = _run(d, "full", 0)
    assert code == 0, err
    return d, _digests(d / "full")


# The 186 write events of the run: rows 1-40 are step 1's and 41-81 step
# 2's; 82 is checkpoint 2's row and 83-89 its writes; rows 90-129 are step
# 3's and 130-170 step 4's; 171 is checkpoint 4's row and 172-178 its
# writes, 179 the final checkpoint's row and 180-186 its writes. The kills
# land inside a step-1 row, in step 2's last row, inside checkpoint 2's .tmp
# and in its last write, in the first row after checkpoint 2 is in place,
# inside checkpoint 4's .tmp, in the final checkpoint's row and inside its .tmp.
@pytest.mark.parametrize("k", [20, 81, 86, 89, 90, 174, 179, 184])
def test_a_run_killed_at_write_k_resumes_to_the_uninterrupted_files(uninterrupted, k):
    d, want = uninterrupted
    out = d / f"killed{k}"
    assert _run(d, out.name, k)[0] == -signal.SIGKILL
    below = [p for p in sorted(out.glob("checkpoint-*.bin")) if int(p.stem[11:]) < STEPS]
    if below:
        code, err = _run(d, out.name, 0, "--resume", str(below[-1]))
    else:
        (out / "diagnostics.csv").unlink(missing_ok=True)
        code, err = _run(d, out.name, 0)
    assert code == 0, err
    got = {name: digest for name, digest in _digests(out).items()
           if not fnmatch.fnmatch(name, "diagnostics-*-*.csv")}
    assert not list(out.glob("*.tmp"))
    assert got == want
