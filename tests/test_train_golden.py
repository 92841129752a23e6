"""Golden training outputs: the sha256 of every file that `finforge train`
writes for a small seeded run, and again after a `--resume --override`
continuation of it. Reruns and resumes are byte-identical by contract, so a
change to the trainer that moves any digest changes the trajectory; the
digests may only be re-recorded together with a note that says why.

The run covers batch 2, dropout, a validation pass, a `checkpoint_interval`
that divides `steps` and the loss mask of `loss_on_separator = false`.

OpenBLAS picks its GEMM kernel for the CPU when it loads, and kernels sum in
different orders, so the trajectory's last bits depend on the kernel. The
golden run therefore runs in a subprocess under `OPENBLAS_CORETYPE=Haswell`
(AVX2, which every x86-64 CI runner executes) at one BLAS thread, and checks
that OpenBLAS runs that kernel. The run-against-run tests stay in-process."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import finforge
from finforge import cli
from finforge import tokenizer as T
from finforge import trainer as R
from test_eval_golden import WORDS
from test_tokenizer_lattice import finance_text

GOLDEN = {
    "train": {
        "checkpoint-00000002.bin": "72f1e2bdbea6681179c0e73f34a9be201385055bfc1d5ebacaaedaa8940ab2a8",
        "checkpoint-00000004.bin": "0b77af4107a043708aa31cc8d3c77defa9ccb74b2741e3b70170ec64204ae474",
        "diagnostics.csv": "617e8e63a45b89c5b03932bcc07a0345c4bfffa5b38c1c6db0c8792b881f14c2",
    },
    "resume": {
        "checkpoint-00000002.bin": "72f1e2bdbea6681179c0e73f34a9be201385055bfc1d5ebacaaedaa8940ab2a8",
        "checkpoint-00000004.bin": "0b77af4107a043708aa31cc8d3c77defa9ccb74b2741e3b70170ec64204ae474",
        "checkpoint-00000006.bin": "8805ab61f7e594ad9b18c099d8f52fa9c26c1022ebe5225ed77cc07683bb6ca7",
        # Its weight norms in the uninterrupted run's order (see the last test).
        "diagnostics.csv": "add19d04cf4a3199a174a0399cd17daf0a21ab0c4c4ab3b24a2ff7bd805a7315",
    },
}

CONFIG = """\
corpus = {d}/docs.jsonl
val_corpus = {d}/val.jsonl
tokenizer = {d}/tok.txt
out_dir = {d}/out
steps = {steps}
layers = 2
heads = 2
head_dim = 4
init_seed = 3
seed = 3
seq_len = 16
batch_warmup_size = 2
batch_main_size = 2
batch_warmup_steps = 2
warmup_steps = 2
horizon_steps = 20
max_lr = 1e-2
final_lr = 1e-3
dropout_at = 0.1
dropout_h = 0.1
dropout_f = 0.1
loss_on_separator = false
train_loss_interval = 1
val_interval = 2
checkpoint_interval = 2
"""


def _fixture(d):
    tok = T.finalize(T.UnigramVocab({w: 1.0 / (i + 2) for i, w in enumerate(WORDS)}, 1.0))
    T.save_tokenizer(tok, str(d / "tok.txt"))
    for name, seeds in (("docs", range(30)), ("val", range(100, 103))):
        with open(d / f"{name}.jsonl", "w") as f:
            for s in seeds:
                f.write(json.dumps({"text": finance_text(s, 60).decode()}) + "\n")
    for steps in (4, 6):
        (d / f"run{steps}.cfg").write_text(CONFIG.format(d=d, steps=steps))


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


KERNEL = "Haswell"

# Exits naming the kernel that numpy's bundled OpenBLAS runs unless it is
# argv[1]; else runs the CLI on the rest of argv.
KERNEL_CLI = """
import sys
import finforge
from finforge import cli

kernel = finforge.machine()["openblas_kernel"]
if kernel != sys.argv[1]:
    sys.exit(f"OpenBLAS runs its {kernel} kernel, not {sys.argv[1]}")
sys.exit(cli.main(sys.argv[2:]))
"""


def _cli_under_kernel(*argv):
    src = os.path.dirname(os.path.dirname(finforge.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE=KERNEL, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", KERNEL_CLI, KERNEL, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr


def test_train_and_resume_outputs_are_golden(tmp_path):
    _fixture(tmp_path)
    _cli_under_kernel("train", "--config", str(tmp_path / "run4.cfg"))
    got = {"train": _digests(tmp_path / "out")}
    _cli_under_kernel(
        "train", "--config", str(tmp_path / "run6.cfg"),
        "--resume", str(tmp_path / "out" / "checkpoint-00000004.bin"),
        "--override", "max_lr=5e-3",
    )
    got["resume"] = _digests(tmp_path / "out")
    assert got == GOLDEN


def _train(d, steps, out, *extra):
    """The rows of ``diagnostics.csv`` after ``train`` of the fixture's
    config for ``steps`` into ``d / out``, with ``extra`` arguments."""
    cfg = d / f"{out}.cfg"
    cfg.write_text(CONFIG.format(d=d, steps=steps).replace(f"{d}/out", f"{d}/{out}"))
    assert cli.main(["train", "--config", str(cfg), *extra]) == 0
    return (d / out / "diagnostics.csv").read_text().splitlines()


def test_a_resumed_run_writes_the_rows_of_the_uninterrupted_run(tmp_path, capsys):
    # Resumed from checkpoint 4 into a new out_dir, a run writes exactly the
    # rows of the uninterrupted 6-step run from step 5 on, in their order:
    # the weight norms go in the order of the parameters that it resumed.
    _fixture(tmp_path)
    full = _train(tmp_path, 6, "full")
    _train(tmp_path, 4, "part")
    ckpt = tmp_path / "part" / "checkpoint-00000004.bin"
    rest = _train(tmp_path, 6, "rest", "--resume", str(ckpt))
    assert rest == [row for row in full if int(row.split(",")[0]) >= 5]


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_run_interrupted_after_step_k_resumes_to_the_uninterrupted_files(tmp_path, monkeypatch, k):
    # The 6-step run (checkpoint interval 2) dies in step k + 1's update and
    # is resumed from its last interval checkpoint into its own out_dir: the
    # rows of the steps it replays are cut first, and kept in a sidecar.
    _fixture(tmp_path)
    _train(tmp_path, 6, "full")
    real_step = R.adamw_step

    def dies_after_step_k(flat, state, lr, cfg):
        if state.step == k:
            raise Interrupted
        real_step(flat, state, lr, cfg)

    with monkeypatch.context() as m:
        m.setattr(R, "adamw_step", dies_after_step_k)
        with pytest.raises(Interrupted):
            _train(tmp_path, 6, "cut")
    before = (tmp_path / "cut" / "diagnostics.csv").read_text().splitlines()
    last = k - k % 2
    _train(tmp_path, 6, "cut", "--resume", str(tmp_path / "cut" / f"checkpoint-{last:08d}.bin"))
    got = _digests(tmp_path / "cut")
    sidecar = f"diagnostics-{last}-{k}.csv"
    cut_rows = [row for row in before if int(row.split(",")[0]) > last]
    if cut_rows:
        assert (tmp_path / "cut" / sidecar).read_text().splitlines() == cut_rows
        del got[sidecar]
    assert got == _digests(tmp_path / "full")
    assert bool(cut_rows) == (k % 2 == 1)


def test_the_resume_cut_drops_a_torn_last_line_and_names_a_bad_row(tmp_path, capsys):
    # Two copies of a 4-step run, one with three complete rows of a later
    # step and a torn row after its own, resume to the same files.
    _fixture(tmp_path)
    full = _train(tmp_path, 6, "full")
    _train(tmp_path, 4, "part")
    shutil.copytree(tmp_path / "part", tmp_path / "torn")
    diag = tmp_path / "torn" / "diagnostics.csv"
    with open(diag, "a") as f:
        f.write("\n".join(full[-3:]) + "\n5,weight_no")  # a kill mid-write
    for out in ("part", "torn"):
        _train(tmp_path, 6, out, "--resume", str(tmp_path / out / "checkpoint-00000004.bin"))
    got = _digests(tmp_path / "torn")
    assert (tmp_path / "torn" / "diagnostics-4-6.csv").read_text().splitlines() == full[-3:]
    del got["diagnostics-4-6.csv"]
    assert got == _digests(tmp_path / "part")
    # A row whose step is not an int stops the resume before anything is written.
    text = diag.read_text().replace("\n2,", "\nx2,", 1)
    diag.write_text(text)
    line = text[: text.index("\nx2,")].count("\n") + 2
    resume = ["--resume", str(tmp_path / "torn" / "checkpoint-00000004.bin")]
    assert cli.main(["train", "--config", str(tmp_path / "torn.cfg"), *resume]) == 2
    assert f"data error: {diag}:{line}: row step 'x2' is not an int" in capsys.readouterr().err
    assert diag.read_text() == text


def test_resuming_twice_from_one_checkpoint_keeps_every_cut_row_once(tmp_path):
    # A 6-step run resumed from checkpoint 4 with one override, then again
    # with another: the second cut also takes the first resume's override
    # row of step 4, and appends to the sidecar the first cut wrote.
    # It ends with the rows of a copy of the run resumed once.
    _fixture(tmp_path)
    full = _train(tmp_path, 6, "out")
    shutil.copytree(tmp_path / "out", tmp_path / "once")
    ckpt = str(tmp_path / "out" / "checkpoint-00000004.bin")
    first = _train(tmp_path, 6, "out", "--resume", ckpt, "--override", "max_lr=2e-2")
    second = _train(tmp_path, 6, "out", "--resume", ckpt, "--override", "max_lr=3e-2")
    once_ckpt = str(tmp_path / "once" / "checkpoint-00000004.bin")
    once = _train(tmp_path, 6, "once", "--resume", once_ckpt, "--override", "max_lr=3e-2")
    assert second == once
    assert [row for row in second if ",override," in row] == ["4,override,max_lr,0.03"]
    later = [row for row in first if int(row.split(",")[0]) > 4 or ",override," in row]
    assert (tmp_path / "out" / "diagnostics-4-6.csv").read_text().splitlines() == (
        [row for row in full if int(row.split(",")[0]) > 4] + later
    )
    assert sorted(p.name for p in (tmp_path / "out").glob("diagnostics*")) == [
        "diagnostics-4-6.csv", "diagnostics.csv"
    ]
