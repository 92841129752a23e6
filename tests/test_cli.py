import json
import os
import random

import numpy as np
import pytest

from finforge import cli
from finforge import config as C
from finforge import evalharness as E
from finforge import tokenizer as T
from finforge import trainer as R
from finforge.trainer import TrainConfig


# ---------------------------------------------------------------------------
# Config parsing


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASE_CFG = """
# comment line
corpus = {corpus}
tokenizer = {tok}
out_dir = {out}
steps = 3
layers = 1
heads = 2
head_dim = 4
seq_len = 16
batch_warmup_size = 2
batch_main_size = 2
batch_warmup_steps = 2
warmup_steps = 2
horizon_steps = 50
max_lr = 1e-3
final_lr = 1e-4
checkpoint_interval = 2
"""


def test_parse_config_types_and_comments(tmp_path):
    path = write_config(
        tmp_path,
        "corpus = c\ntokenizer = t\nout_dir = o\nsteps = 5 # trailing\n"
        "layers = 1\nheads = 2\nhead_dim = 4\nmax_lr = 2e-4\nloss_on_separator = false\n",
    )
    values = C.parse_config(path)
    assert values["steps"] == 5 and isinstance(values["steps"], int)
    assert values["max_lr"] == 2e-4
    assert values["loss_on_separator"] is False
    cfg = C.train_config_from(values)
    assert cfg.max_lr == 2e-4 and cfg.loss_on_separator is False
    assert cfg.final_lr == TrainConfig().final_lr  # untouched default


def test_parse_config_unknown_key_is_hard_error(tmp_path):
    path = write_config(
        tmp_path,
        "corpus = c\ntokenizer = t\nout_dir = o\nsteps = 1\n"
        "layers = 1\nheads = 2\nhead_dim = 4\nmax_lr_typo = 1e-4\n",
    )
    with pytest.raises(ValueError, match="unknown config key"):
        C.parse_config(path)


def test_parse_config_duplicate_and_missing_and_malformed(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        C.parse_config(write_config(tmp_path, "steps = 1\nsteps = 2\n", "a.cfg"))
    with pytest.raises(ValueError, match="missing required"):
        C.parse_config(write_config(tmp_path, "steps = 1\n", "b.cfg"))
    with pytest.raises(ValueError, match="expected 'key = value'"):
        C.parse_config(write_config(tmp_path, "just words\n", "c.cfg"))
    with pytest.raises(ValueError, match="cannot parse"):
        C.parse_config(write_config(tmp_path, "steps = many\n", "d.cfg"))


def test_resolved_lines_cover_everything(tmp_path):
    path = write_config(
        tmp_path,
        "corpus = c\ntokenizer = t\nout_dir = o\nsteps = 1\nlayers = 1\nheads = 2\nhead_dim = 4\n",
    )
    values = C.parse_config(path)
    cfg = C.train_config_from(values)
    lines = C.resolved_lines(values, cfg)
    keys = {l.split(" = ")[0] for l in lines}
    assert "max_lr" in keys and "corpus" in keys and "seed" in keys


# ---------------------------------------------------------------------------
# Corpus ingestion


def test_read_documents_txt_jsonl_dir(tmp_path):
    (tmp_path / "a.txt").write_bytes(b"hello world")
    (tmp_path / "b.jsonl").write_text(
        json.dumps({"text": "doc one"}) + "\n" + json.dumps({"text": "doc two"}) + "\n"
    )
    docs = cli.read_documents(str(tmp_path))
    assert docs == [b"hello world", b"doc one", b"doc two"]
    (tmp_path / "empty_dir").mkdir()
    with pytest.raises(ValueError):
        cli.read_documents(str(tmp_path / "empty_dir"))


def test_read_documents_jsonl_missing_text(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"no_text": 1}\n')
    with pytest.raises(ValueError):
        cli.read_documents(str(p))


def test_partition_corpus_even_split(tmp_path):
    p = tmp_path / "c.txt"
    p.write_bytes(b"x" * 100)
    parts = cli.partition_corpus(str(p), domains=1, chunks=4)
    assert len(parts) == 1 and len(parts[0]) == 4
    assert b"".join(parts[0]) == b"x" * 100
    assert all(abs(len(c) - 25) <= 1 for c in parts[0])


def test_partition_corpus_subdirectories_are_domains(tmp_path):
    for d in ("news", "filings"):
        (tmp_path / d).mkdir()
        (tmp_path / d / "doc.txt").write_bytes((d * 30).encode())
    parts = cli.partition_corpus(str(tmp_path), domains=2, chunks=2)
    assert len(parts) == 2
    with pytest.raises(ValueError, match="domain subdirectories"):
        cli.partition_corpus(str(tmp_path), domains=3, chunks=2)


# ---------------------------------------------------------------------------
# End-to-end CLI


CORPUS_TEXT = (
    b"the quick brown fox jumps over the lazy dog. "
    b"pack my box with five dozen liquor jugs. "
    b"how vexingly quick daft zebras jump! "
) * 30


@pytest.fixture()
def workspace(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(CORPUS_TEXT)
    jl = tmp_path / "docs.jsonl"
    jl.write_text(
        "\n".join(
            json.dumps({"text": f"sample document number {i} about finance and markets"})
            for i in range(30)
        )
    )
    return tmp_path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 1
    code, _, _ = run_cli(capsys, "train-tokenizer")  # missing required args
    assert code == 1
    code, _, _ = run_cli(capsys, "eval", "bpb", "--model", "x")
    assert code == 1


@pytest.mark.parametrize(
    "args",
    [
        "plan --params-only 1e9 --vocab 0",
        "plan --params-only -5",
        "plan --gpu-hours -1",
        "plan --discount 1.5",
        "train-tokenizer --corpus c.txt --out o.txt --domains 0",
        "train-tokenizer --corpus c.txt --out o.txt --chunks 0",
        "sweep-vocab --corpus c.txt --candidates 300,abc",
        "eval generate --prompt a --max-new-tokens 0",
        "eval classify --tasks t.ndjson --shots -1",
        "eval bpb --docs d.txt --window 1",
        "eval bpb --docs d.txt --stride 0",
        "eval bpb --docs d.txt --window 4 --stride 8",
        "eval bpb --docs d.txt --window 8 --stride 8",
    ],
)
def test_out_of_range_numeric_flags_are_usage_errors(capsys, tmp_path, monkeypatch, args):
    # None of the named files exists, so the check must come before any read.
    monkeypatch.chdir(tmp_path)
    argv = args.split()
    if argv[0] == "eval":
        argv[2:2] = ["--model", "m.ckpt", "--tokenizer", "tok.txt"]
    flag = [a for a in argv if a.startswith("--")][-1]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and "usage error" in err and flag in err, err
    assert stdout == ""


def test_data_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "train-tokenizer", "--corpus", str(tmp_path / "nope.txt"), "--out", "o"
    )
    assert code == 2
    cfgpath = tmp_path / "bad.cfg"
    cfgpath.write_text("unknown_key = 1\n")
    code, _, err = run_cli(capsys, "train", "--config", str(cfgpath))
    assert code == 2 and "data error" in err


def test_train_tokenizer_cli(capsys, workspace):
    out = workspace / "tok.txt"
    code, stdout, _ = run_cli(
        capsys, "train-tokenizer", "--corpus", str(workspace / "corpus.txt"),
        "--chunk-vocab", "200", "--target-vocab", "350", "--out", str(out),
    )
    assert code == 0
    assert "vocab_size,350" in stdout
    model = T.load_tokenizer(str(out))
    assert model.vocab_size == 350


def test_train_tokenizer_cli_byte_identical_reruns(capsys, workspace):
    blobs = []
    for i in range(2):
        out = workspace / f"tok{i}.txt"
        code, _, _ = run_cli(
            capsys, "train-tokenizer", "--corpus", str(workspace / "corpus.txt"),
            "--chunk-vocab", "150", "--target-vocab", "350", "--out", str(out),
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_sweep_vocab_cli(capsys, workspace):
    code, stdout, _ = run_cli(
        capsys, "sweep-vocab", "--corpus", str(workspace / "corpus.txt"),
        "--candidates", "300,350,400", "--base-vocab", "300",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "size,tokens,bits,bits_per_byte"
    data = [l.split(",") for l in lines[1:4]]
    assert [int(r[0]) for r in data] == [300, 350, 400]
    chosen = int([l for l in lines if l.startswith("chosen_raw,")][0].split(",")[1])
    rounded = int([l for l in lines if l.startswith("chosen_rounded,")][0].split(",")[1])
    best = min(data, key=lambda r: (float(r[2]), int(r[0])))
    assert chosen == int(best[0])
    assert rounded >= chosen and rounded & (rounded - 1) == 0


def test_plan_cli_reference_budget(capsys):
    code, stdout, stderr = run_cli(capsys, "plan")
    assert code == 0
    rows = dict(l.split(",", 1) for l in stdout.strip().splitlines() if "," in l)
    assert float(rows["effective_flops"]) == pytest.approx(3.5802e23, rel=1e-4)
    assert float(rows["approach1_params"]) == pytest.approx(52.993e9, rel=0.02)
    assert float(rows["approach2_tokens"]) == pytest.approx(1175.766e9, rel=0.02)
    assert "layers=70" in rows["shape"] and "hidden=7680" in rows["shape"]
    assert int(rows["grand_total"]) == 50_558_868_480
    assert "embedding" in stderr  # human-readable table on stderr


def test_plan_cli_explicit_shape_and_params_only(capsys):
    code, stdout, _ = run_cli(
        capsys, "plan", "--params-only", "50e9", "--vocab", "131072"
    )
    assert code == 0 and "layers=70" in stdout
    code, stdout, _ = run_cli(
        capsys, "plan", "--shape", "2,4,64", "--params-only", "1e9", "--vocab", "512"
    )
    assert code == 0
    rows = dict(l.split(",", 1) for l in stdout.strip().splitlines() if "," in l)
    assert "heads=4" in rows["shape"]


@pytest.mark.parametrize("spec", ["2,4", "2,4,x", "0,4,8", "2,-4,8"])
def test_plan_cli_malformed_shape_is_usage_error(capsys, spec):
    code, stdout, err = run_cli(capsys, "plan", "--shape", spec, "--params-only", "1e9")
    assert code == 1, err
    assert "usage error" in err and "--shape" in err
    assert stdout == ""


def make_train_setup(workspace, cap, out_name="run", steps=3):
    tokpath = workspace / "tok.txt"
    if not tokpath.exists():
        code = cli.main([
            "train-tokenizer", "--corpus", str(workspace / "corpus.txt"),
            "--chunk-vocab", "150", "--target-vocab", "300", "--out", str(tokpath),
        ])
        assert code == 0
    if cap is not None:
        cap.readouterr()  # drain tokenizer-training output
    out = workspace / out_name
    cfg = BASE_CFG.format(
        corpus=str(workspace / "docs.jsonl"), tok=str(tokpath), out=str(out)
    ).replace("steps = 3", f"steps = {steps}")
    return write_config(workspace, cfg, f"{out_name}.cfg"), out, tokpath


def test_train_cli_and_resume_bit_identical(capsys, workspace):
    cfgpath, out, tokpath = make_train_setup(workspace, capsys, "full", steps=4)
    code, stdout, stderr = run_cli(capsys, "train", "--config", cfgpath)
    assert code == 0
    rows = dict(l.split(",", 1) for l in stdout.strip().splitlines())
    assert rows["final_step"] == "4"
    final = rows["final_checkpoint"]
    assert os.path.exists(final)
    assert "max_lr = 0.001" in stderr  # resolved config echoed

    # interrupted run: stop at 2, resume to 4, bytes must match
    cfg2, out2, _ = make_train_setup(workspace, capsys, "part", steps=2)
    code, stdout2, _ = run_cli(capsys, "train", "--config", cfg2)
    assert code == 0
    mid = dict(l.split(",", 1) for l in stdout2.strip().splitlines())["final_checkpoint"]
    cfg3, _, _ = make_train_setup(workspace, capsys, "part", steps=4)
    code, stdout3, _ = run_cli(capsys, "train", "--config", cfg3, "--resume", mid)
    assert code == 0
    final2 = dict(l.split(",", 1) for l in stdout3.strip().splitlines())["final_checkpoint"]

    a = R.load_checkpoint(final)
    b = R.load_checkpoint(final2)
    for k in a[2]:
        assert np.array_equal(a[2][k], b[2][k]), k


def test_train_cli_override_validation(capsys, workspace):
    cfgpath, out, _ = make_train_setup(workspace, capsys, "ov", steps=2)
    code, stdout, _ = run_cli(capsys, "train", "--config", cfgpath)
    ckpt = dict(l.split(",", 1) for l in stdout.strip().splitlines())["final_checkpoint"]
    code, _, err = run_cli(
        capsys, "train", "--config", cfgpath, "--resume", ckpt, "--override", "bogus=1"
    )
    assert code == 1 and "usage error" in err
    for bad in ("max_lr", "max_lr=abc"):  # no '=', and a value that is not a float
        code, _, err = run_cli(
            capsys, "train", "--config", cfgpath, "--resume", ckpt, "--override", bad
        )
        assert code == 1 and "usage error" in err and "Traceback" not in err, err
    cfg4, _, _ = make_train_setup(workspace, capsys, "ov", steps=3)
    code, _, _ = run_cli(
        capsys, "train", "--config", cfg4, "--resume", ckpt,
        "--override", "max_lr=5e-4", "--reshuffle",
    )
    assert code == 0
    diag = (out / "diagnostics.csv").read_text()
    assert "override,max_lr" in diag
    assert diag.index("override,max_lr") < diag.index("\n3,")  # before the resumed steps


def test_train_cli_resume_into_a_new_directory(capsys, workspace):
    cfgpath, _, _ = make_train_setup(workspace, capsys, "first", steps=2)
    code, stdout, _ = run_cli(capsys, "train", "--config", cfgpath)
    ckpt = dict(l.split(",", 1) for l in stdout.strip().splitlines())["final_checkpoint"]
    cfg3, out, _ = make_train_setup(workspace, capsys, "fresh", steps=3)
    assert not out.exists()
    code, stdout, err = run_cli(
        capsys, "train", "--config", cfg3, "--resume", ckpt, "--override", "max_lr=5e-4"
    )
    assert code == 0, err
    assert "final_step,3" in stdout
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert rows[0] == "2,override,max_lr,0.0005"  # before the resumed steps
    assert {r.split(",")[0] for r in rows[1:]} == {"3"}
    assert (out / "checkpoint-00000003.bin").exists()


def test_train_cli_divergence_exits_3_naming_the_step_and_last_checkpoint(capsys, workspace):
    # A learning rate of 1e30 overflows the forward at step 6, after the
    # checkpoints of steps 2 and 4. The suite turns numpy's RuntimeWarnings
    # into errors, so an overflow that warned would escape as a traceback.
    cfgpath, out, _ = make_train_setup(workspace, capsys, "diverge", steps=10)
    text = (workspace / "diverge.cfg").read_text()
    text = text.replace(str(workspace / "docs.jsonl"), str(workspace / "corpus.txt"))
    write_config(workspace, _config_with(
        text, max_lr=1e30, warmup_steps=8, batch_warmup_size=1, batch_main_size=1,
        checkpoint_interval=2,
    ), "diverge.cfg")
    code, stdout, err = run_cli(capsys, "train", "--config", cfgpath)
    assert code == 3, err
    assert stdout == "" and "Traceback" not in err and "Warning" not in err, err
    last = out / "checkpoint-00000004.bin"
    message = (
        "numeric failure: non-finite values at layer 0 attention output at step 6; "
        f"last good checkpoint: {last}"
    )
    assert err.splitlines()[-1] == message
    _, _, params, _ = R.load_checkpoint(str(last))
    assert all(np.isfinite(t).all() for t in params.values())
    # Resumed from it, the run diverges at step 6 again, before it writes a
    # checkpoint of its own: the one it resumed from is the last good one.
    code, stdout, err = run_cli(capsys, "train", "--config", cfgpath, "--resume", str(last))
    assert (code, stdout) == (3, ""), err
    assert err.splitlines()[-1] == message


def test_a_fresh_train_refuses_an_out_dir_that_holds_a_run(capsys, workspace):
    # A second fresh run would append its rows to the first run's and leave
    # its later checkpoints; it exits 2 before it writes anything.
    cfgpath, out, _ = make_train_setup(workspace, capsys, "used", steps=4)
    assert run_cli(capsys, "train", "--config", cfgpath)[0] == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg2, _, _ = make_train_setup(workspace, capsys, "used", steps=2)
    code, stdout, err = run_cli(capsys, "train", "--config", cfg2)
    assert (code, stdout) == (2, ""), err
    first = out / "checkpoint-00000002.bin"
    assert err.splitlines()[-1] == (
        f"data error: {first}: out_dir holds an earlier run; "
        "resume it with --resume, or train into an empty out_dir"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # diagnostics.csv alone, as a run killed before its first checkpoint
    # leaves it, is refused too; other files are not a run.
    for p in out.iterdir():
        if p.name != "diagnostics.csv":
            p.rename(workspace / p.name)
    code, _, err = run_cli(capsys, "train", "--config", cfg2)
    assert code == 2 and f"data error: {out / 'diagnostics.csv'}: out_dir holds" in err, err
    (out / "diagnostics.csv").rename(out / "notes.txt")
    assert run_cli(capsys, "train", "--config", cfg2)[0] == 0


@pytest.mark.parametrize("extra", [["--override", "max_lr=5e-4"], ["--reshuffle"]])
def test_train_cli_resume_options_without_resume_are_usage_errors(capsys, workspace, extra):
    cfgpath, out, _ = make_train_setup(workspace, capsys, "noresume", steps=2)
    code, stdout, err = run_cli(capsys, "train", "--config", cfgpath, *extra)
    assert code == 1 and "usage error" in err and "--resume" in err, err
    assert stdout == ""
    assert not out.exists()  # neither diagnostics.csv nor a checkpoint


def test_eval_cli_matches_api(capsys, workspace):
    cfgpath, out, tokpath = make_train_setup(workspace, capsys, "ev", steps=2)
    code, stdout, _ = run_cli(capsys, "train", "--config", cfgpath)
    assert code == 0
    ckpt = dict(l.split(",", 1) for l in stdout.strip().splitlines())["final_checkpoint"]

    evaldoc = workspace / "eval.txt"
    evaldoc.write_bytes(b"markets rallied on quiet volume today")
    code, stdout, _ = run_cli(
        capsys, "eval", "bpb", "--model", ckpt, "--tokenizer", str(tokpath),
        "--docs", str(evaldoc), "--window", "16", "--stride", "8",
    )
    assert code == 0
    cli_bpb = float(stdout.strip().split(",")[1])
    lm = cli._load_model(ckpt)
    tok = T.load_tokenizer(str(tokpath))
    api_bpb = E.bits_per_byte(lm, [evaldoc.read_bytes()], tok, window=16, stride=8)
    assert cli_bpb == pytest.approx(api_bpb, abs=1e-9)

    tasks = workspace / "tasks.ndjson"
    tasks.write_text(
        json.dumps({"context": "markets were", "candidates": [" up", " down"], "gold": " up"}) + "\n"
    )
    code, stdout, _ = run_cli(
        capsys, "eval", "classify", "--model", ckpt, "--tokenizer", str(tokpath),
        "--tasks", str(tasks), "--method", "regular",
    )
    assert code == 0
    line = stdout.strip().splitlines()[1]
    chosen = line.split(",")[2]
    task = E.ClassificationTask(context=b"markets were", candidates=(b" up", b" down"))
    assert chosen == E.classify(lm, tok, task, "regular").decode()


def test_generate_cli_matches_api(capfdbinary, workspace):
    # binary capture: generated bytes need not be valid UTF-8
    cfgpath, out, tokpath = make_train_setup(workspace, capfdbinary, "gen", steps=2)
    code = cli.main(["train", "--config", cfgpath])
    stdout = capfdbinary.readouterr().out.decode()
    assert code == 0
    ckpt = dict(l.split(",", 1) for l in stdout.strip().splitlines())["final_checkpoint"]
    code = cli.main([
        "eval", "generate", "--model", ckpt, "--tokenizer", str(tokpath),
        "--prompt", "the", "--max-new-tokens", "4",
    ])
    raw = capfdbinary.readouterr().out
    assert code == 0
    lm = cli._load_model(ckpt)
    tok = T.load_tokenizer(str(tokpath))
    prompt = [tok.eot_id] + T.encode(tok, b"the")
    expected = T.decode(tok, E.greedy_decode(lm, prompt, 4, eot_id=tok.eot_id))
    assert raw.rstrip(b"\n") == expected


def test_eval_cli_malformed_tasks_exit_2(capsys, workspace, tmp_path):
    cfgpath, out, tokpath = make_train_setup(workspace, capsys, "bad", steps=2)
    code, stdout, _ = run_cli(capsys, "train", "--config", cfgpath)
    ckpt = dict(l.split(",", 1) for l in stdout.strip().splitlines())["final_checkpoint"]
    tasks = tmp_path / "broken.ndjson"
    tasks.write_text('{"context": "x"}\n')  # neither candidates nor gold
    code, _, _ = run_cli(
        capsys, "eval", "classify", "--model", ckpt, "--tokenizer", str(tokpath),
        "--tasks", str(tasks),
    )
    assert code == 2


def _write_checkpoint(path, edit=None, vocab=257, moments=True):
    """A tiny valid checkpoint, with its AdamW moments unless ``moments`` is
    false, or one whose header ``edit`` changed in place. Its vocabulary is
    by default that of ``finalize`` over one token, 256 bytes and
    ``<|endoftext|>``, the tokenizer that the tests pair it with."""
    from finforge import model as M
    from finforge.scaling import ModelShape

    shape = ModelShape(1, 1, 4, 4, 16, vocab)
    params = M.init_params(shape, 0)
    state = R.TrainState.fresh(params) if moments else R.TrainState()
    R.save_checkpoint(str(path), shape, TrainConfig(), params, state)
    if edit is None:
        return
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen :])


# Manifests that do not tile the payload of ``_write_checkpoint``'s file:
# case -> (edit of the manifest or None, bytes appended to the file (> 0) or
# cut from its end (< 0), the entry the error names). The last entry is
# ``v:ln_f.g``, of 4 floats.
TILING = {
    "checkpoint-payload-short": (None, -8, "v:ln_f.g"),
    "checkpoint-offset-negative": (lambda m: m[1].update(offset=-8), 0, "param:layer0.attn.U"),
    "checkpoint-offset-repeated": (lambda m: m[1].update(offset=0), 0, "param:layer0.attn.U"),
    "checkpoint-offset-bool": (lambda m: m[0].update(offset=True), 0, "param:Wem"),
    "checkpoint-trailing-bytes": (None, 64, "v:ln_f.g"),
    # the last entry again after it, with its 32 bytes
    "checkpoint-entry-duplicated": (
        lambda m: m.append(dict(m[-1], offset=m[-1]["offset"] + 32)), 32, "v:ln_f.g"
    ),
}


# Training-config values that a run divides by or scales with, or a
# sequence too short to hold a target, each set in a config file:
# case -> (key, value).
BAD_CONFIG = {
    "config-batch-warmup-size-0": ("batch_warmup_size", "0"),
    "config-batch-main-size-0": ("batch_main_size", "0"),
    "config-checkpoint-interval-0": ("checkpoint_interval", "0"),
    "config-val-interval-0": ("val_interval", "0"),
    "config-train-loss-interval-0": ("train_loss_interval", "0"),
    "config-smooth-alpha-2": ("smooth_alpha", "2.0"),
    "config-adam-eps-0": ("adam_eps", "0"),
    "config-dropout-h-1.5": ("dropout_h", "1.5"),
    "config-beta1-1": ("beta1", "1.0"),
    "config-seq-len-1": ("seq_len", "1"),
}


def _config_with(text, **values):
    """``text`` with a ``key = value`` line for each of ``values``, in place
    of the one it had."""
    lines = [line for line in text.splitlines() if line.partition("=")[0].strip() not in values]
    return "\n".join(lines + [f"{k} = {v}" for k, v in values.items()]) + "\n"


@pytest.mark.parametrize(
    "case",
    [
        "empty-tokenizer",
        "checkpoint-without-state",
        "checkpoint-without-shape",
        "checkpoint-without-manifest",
        "checkpoint-truncated",
        "checkpoint-order-beyond-corpus",
        "checkpoint-with-params-only",
        *TILING,
        "jsonl-line-not-an-object",
        "task-line-not-an-object",
        "task-context-not-a-string",
        "task-candidates-not-strings",
        "task-gold-not-a-string",
        "task-shots-pool-not-a-list",
        "task-shot-without-gold",
        "target-vocab-too-small",
        "tokenizer-missing-byte",
        "tokenizer-duplicate-token",
        "tokenizer-empty-token",
        "tokenizer-nan-logp",
        "tokenizer-inf-logp",
        "tokenizer-positive-logp",
        "tokenizer-header-size-not-a-number",
        "tokenizer-special-id-not-a-number",
        "tokenizer-not-utf8",
        *BAD_CONFIG,
        "override-adam-eps-0",
        "checkpoint-beta1-1",
        "jsonl-line-not-json",
        "jsonl-not-utf8",
        "config-not-utf8",
        "task-not-utf8",
    ],
)
def test_malformed_inputs_exit_2_without_traceback(capsys, tmp_path, case):
    ckpt = tmp_path / "model.ckpt"
    tokpath = tmp_path / "tok.txt"
    T.save_tokenizer(T.finalize(T.UnigramVocab({b"a": 1.0}, 1.0)), str(tokpath))
    if case.startswith("checkpoint-without-"):
        _write_checkpoint(ckpt, edit=lambda header: header.pop(case.rsplit("-", 1)[1]))
    elif case == "checkpoint-order-beyond-corpus":
        # a 16-token sequence length, and an order naming chunk 99999
        _write_checkpoint(ckpt, edit=lambda header: (
            header["config"].update(seq_len=16), header["state"].update(order=[0, 99999])
        ))
    elif case == "checkpoint-beta1-1":
        _write_checkpoint(ckpt, edit=lambda header: header["config"].update(beta1=1.0))
    elif case == "checkpoint-with-params-only":
        # saved from TrainState(): every param entry, no m or v entry
        _write_checkpoint(
            ckpt, edit=lambda header: header["config"].update(seq_len=16), moments=False
        )
    elif case in TILING:
        edit, extra, _ = TILING[case]
        _write_checkpoint(ckpt, edit=edit and (lambda header: edit(header["manifest"])))
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:extra] if extra < 0 else raw + bytes(extra))
    else:
        _write_checkpoint(ckpt)
    if case == "empty-tokenizer":
        tokpath.write_bytes(b"")
    if case in ("tokenizer-header-size-not-a-number", "tokenizer-special-id-not-a-number"):
        lines = tokpath.read_text().splitlines()
        if case == "tokenizer-header-size-not-a-number":
            lines[0] = lines[0].split()[0] + " x"
        else:
            lines[1] = lines[1].rsplit(" ", 1)[0] + " x"
        tokpath.write_text("\n".join(lines) + "\n")
    elif case == "tokenizer-not-utf8":
        raw = tokpath.read_bytes().split(b"\n")
        raw[2] = raw[2].replace(b"\t", b"\t\xff", 1)
        tokpath.write_bytes(b"\n".join(raw))
    elif case.startswith("tokenizer-"):
        # Edit the last token line: a single byte, whose token id is the
        # vocabulary size minus one.
        lines = tokpath.read_text().splitlines()
        sid, hextok, lp = lines[-1].split("\t")
        hextok, lp = {
            "tokenizer-missing-byte": (hextok * 2, lp),
            "tokenizer-duplicate-token": (lines[2].split("\t")[1], lp),
            "tokenizer-empty-token": ("", lp),
            "tokenizer-nan-logp": (hextok, "nan"),
            "tokenizer-inf-logp": (hextok, "-inf"),
            "tokenizer-positive-logp": (hextok, "0.5"),
        }[case]
        lines[-1] = f"{sid}\t{hextok}\t{lp}"
        tokpath.write_text("\n".join(lines) + "\n")
    if case == "checkpoint-truncated":
        ckpt.write_bytes(ckpt.read_bytes()[:10])
    model_args = ["--model", str(ckpt), "--tokenizer", str(tokpath)]
    if case.startswith("jsonl-"):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b'{"text": "fine"}\n' + {
            "jsonl-line-not-an-object": b'["a", "list"]\n',
            "jsonl-line-not-json": b'{"text": fine}\n',
            "jsonl-not-utf8": b'{"text": "\xff"}\n',
        }[case])
        argv = ["train-tokenizer", "--corpus", str(corpus), "--out", str(tmp_path / "o.txt")]
    elif case == "target-vocab-too-small":
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"the quick brown fox jumps over the lazy dog")
        argv = ["train-tokenizer", "--corpus", str(corpus), "--target-vocab", "100",
                "--chunk-vocab", "50", "--out", str(tmp_path / "o.txt")]
    elif case in ("checkpoint-order-beyond-corpus", "checkpoint-with-params-only"):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"a" * 64)
        cfgpath = write_config(tmp_path, BASE_CFG.format(corpus=corpus, tok=tokpath, out=tmp_path))
        argv = ["train", "--config", cfgpath, "--resume", str(ckpt)]
    elif case in BAD_CONFIG or case in ("override-adam-eps-0", "config-not-utf8"):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"a" * 64)
        base = BASE_CFG.format(corpus=corpus, tok=tokpath, out=tmp_path / "run")
        cfgpath = tmp_path / "run.cfg"
        argv = ["train", "--config", str(cfgpath)]
        if case in BAD_CONFIG:
            key, value = BAD_CONFIG[case]
            cfgpath.write_text(_config_with(base, val_corpus=corpus, **{key: value}))
        elif case == "config-not-utf8":
            cfgpath.write_bytes(base.encode().replace(b"# comment", b"# \xff comment"))
        else:  # resume a valid run with the value as an override
            cfgpath.write_text(_config_with(base, steps=2))
            assert cli.main(argv) == 0
            cfgpath.write_text(base)
            argv += ["--resume", str(tmp_path / "run" / "checkpoint-00000002.bin"),
                     "--override", "adam_eps=0"]
    elif case.startswith("task-"):
        tasks = tmp_path / "tasks.ndjson"
        rec = {"context": "a", "candidates": ["a", "b"], "gold": "a"}
        rec.update({
            "task-context-not-a-string": {"context": 5},
            "task-candidates-not-strings": {"candidates": [1, 2]},
            "task-gold-not-a-string": {"gold": 3},
            "task-shots-pool-not-a-list": {"shots_pool": 7},
            "task-shot-without-gold": {"shots_pool": [{"context": "b"}]},
        }.get(case, {}))
        tasks.write_text("5\n" if case == "task-line-not-an-object" else json.dumps(rec) + "\n")
        if case == "task-not-utf8":
            tasks.write_bytes(tasks.read_bytes().replace(b'"a"', b'"\xff"', 1))
        argv = ["eval", "classify", *model_args, "--tasks", str(tasks)]
    else:
        argv = ["eval", "generate", *model_args, "--prompt", "a"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2, err
    assert "data error" in err and "Traceback" not in err
    if case in BAD_CONFIG:
        assert f"data error: {tmp_path / 'run.cfg'}: {BAD_CONFIG[case][0]} must be" in err, err
    want = {
        "override-adam-eps-0": "data error: adam_eps must be positive, got 0.0",
        "checkpoint-beta1-1": f"data error: {ckpt}: beta1 must be in [0, 1), got 1.0",
        "jsonl-line-not-json": f"{tmp_path / 'corpus.jsonl'}:2: not JSON: Expecting value",
        "jsonl-not-utf8": f"{tmp_path / 'corpus.jsonl'}:2: not UTF-8: invalid start byte",
        "config-not-utf8": f"{tmp_path / 'run.cfg'}:2: not UTF-8: invalid start byte",
        "task-not-utf8": f"{tmp_path / 'tasks.ndjson'}:1: not UTF-8: invalid start byte",
    }.get(case)
    if want:
        assert want in err, err
    if case == "checkpoint-order-beyond-corpus":
        assert f"data error: {ckpt}: checkpoint field 'order' holds chunk 99999" in err, err
        assert "chunks" in err, err
    if case == "checkpoint-with-params-only":
        assert f"data error: {ckpt}: manifest has no entry 'm:Wem'" in err, err
    if case in TILING:
        assert f"{ckpt}: manifest entry {TILING[case][2]!r}" in err, err
    if case == "target-vocab-too-small":
        assert "too small for byte coverage" in err
    if case == "tokenizer-missing-byte":
        assert f"{tokpath}: no single-byte token" in err
    elif case.endswith("-not-a-number"):
        assert str(tokpath) in err, err
    elif case == "tokenizer-not-utf8":
        assert f"{tokpath}:3: not UTF-8: invalid start byte" in err, err
    elif case.startswith("tokenizer-"):
        assert f"{tokpath}:{len(lines)}: token id {sid}:" in err, err


def test_tokenizer_file_fuzz_exits_0_or_2_naming_the_line(capfdbinary, tmp_path):
    # Seeded byte flips and truncations of a 257-entry tokenizer file, and
    # token lines dropped, duplicated or swapped with the next. A dropped
    # line is never the last, whose loss only the header size shows.
    rng = random.Random(0)
    ckpt, tokpath = tmp_path / "model.ckpt", tmp_path / "tok.txt"
    _write_checkpoint(ckpt)
    T.save_tokenizer(T.finalize(T.UnigramVocab({b"a": 1.0}, 1.0)), str(tokpath))
    raw = tokpath.read_bytes()
    lines = raw.splitlines(keepends=True)
    for case in range(64):
        kind = ("flip", "truncate", "drop", "duplicate", "swap")[case % 5]
        k = rng.randrange(2, len(lines) - 1)  # a token line with one after it
        named = None  # the line number the error must name
        if kind == "flip":
            at = rng.randrange(len(raw))
            data = raw[:at] + bytes([raw[at] ^ 1 << rng.randrange(8)]) + raw[at + 1:]
        elif kind == "truncate":
            data = raw[: rng.randrange(len(raw))]
        elif kind == "drop":
            data, named = b"".join(lines[:k] + lines[k + 1:]), k + 1
        elif kind == "duplicate":
            data, named = b"".join(lines[: k + 1] + lines[k:]), k + 2
        else:
            data, named = b"".join(lines[:k] + [lines[k + 1], lines[k]] + lines[k + 2:]), k + 1
        tokpath.write_bytes(data)
        code = cli.main([
            "eval", "generate", "--model", str(ckpt), "--tokenizer", str(tokpath),
            "--prompt", "a", "--max-new-tokens", "1",
        ])
        err = capfdbinary.readouterr().err.decode("utf-8", "replace")
        assert code in (0, 2), (case, kind, err)
        assert "Traceback" not in err, (case, kind, err)
        if named is not None:
            assert code == 2 and f"data error: {tokpath}:{named}: " in err, (case, kind, err)


def _tokenizer_of_size(path, size):
    """A tokenizer of ``size`` entries: every byte, ``<|endoftext|>`` and
    ``size - 257`` two-letter tokens."""
    pairs = [bytes([97 + i // 26, 97 + i % 26]) for i in range(size - 257)]
    tok = T.finalize(T.UnigramVocab({t: 1.0 for t in [b"a", *pairs]}, 1.0))
    assert tok.vocab_size == size
    T.save_tokenizer(tok, str(path))


@pytest.mark.parametrize("tok_size, vocab", [(257, 300), (300, 257)])
@pytest.mark.parametrize("cmd", ["bpb", "generate", "classify"])
def test_eval_rejects_a_tokenizer_of_another_vocabulary(capsys, tmp_path, cmd, tok_size, vocab):
    ckpt, tokpath = tmp_path / "model.ckpt", tmp_path / "tok.txt"
    _write_checkpoint(ckpt, vocab=vocab)
    _tokenizer_of_size(tokpath, tok_size)
    docs = tmp_path / "docs.txt"
    docs.write_bytes(b"ab ab ab")
    tasks = tmp_path / "tasks.ndjson"
    tasks.write_text(json.dumps({"context": "a", "candidates": ["a", "b"]}) + "\n")
    extra = {
        "bpb": ["--docs", str(docs)],
        "generate": ["--prompt", "ab"],
        "classify": ["--tasks", str(tasks)],
    }[cmd]
    code, out, err = run_cli(
        capsys, "eval", cmd, "--model", str(ckpt), "--tokenizer", str(tokpath), *extra
    )
    assert (code, out) == (2, ""), err
    assert err == (
        f"data error: tokenizer {tokpath} has {tok_size} tokens, but checkpoint {ckpt} "
        f"has a vocabulary of {vocab}\n"
    )


@pytest.mark.parametrize("tok_size, vocab", [(257, 300), (300, 257)])
def test_resume_rejects_a_tokenizer_of_another_vocabulary(capsys, tmp_path, tok_size, vocab):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"ab ba " * 40)
    first, other = tmp_path / "first.txt", tmp_path / "other.txt"
    _tokenizer_of_size(first, vocab)
    _tokenizer_of_size(other, tok_size)
    cfg = BASE_CFG.format(corpus=corpus, tok=first, out=tmp_path / "a").replace(
        "steps = 3", "steps = 2"
    )
    code, out, err = run_cli(capsys, "train", "--config", write_config(tmp_path, cfg, "a.cfg"))
    assert code == 0, err
    ckpt = dict(l.split(",", 1) for l in out.strip().splitlines())["final_checkpoint"]
    cfg = BASE_CFG.format(corpus=corpus, tok=other, out=tmp_path / "b")
    code, out, err = run_cli(
        capsys, "train", "--config", write_config(tmp_path, cfg, "b.cfg"), "--resume", ckpt,
        "--override", "max_lr=5e-4",
    )
    assert (code, out) == (2, ""), err
    assert err == (
        f"data error: tokenizer {other} has {tok_size} tokens, but checkpoint {ckpt} "
        f"has a vocabulary of {vocab}\n"
    )
    assert not (tmp_path / "b").exists()  # nothing was written


@pytest.mark.parametrize(
    "entry, renamed, named",
    [
        (0, "param:layer0.attn.Wx", "param:layer0.attn.Wx"),  # not a parameter
        (3, "param:ln_em.g", "param:ln_em.g"),  # a parameter of another shape
        (3, "param:layer0.attn.Wk", "param:layer0.attn.Wq"),  # a duplicate: Wq is missing
        (5, "state:Wem", "state:Wem"),  # not a tensor kind
    ],
)
def test_checkpoint_manifest_must_fit_the_model_shape(capsys, tmp_path, entry, renamed, named):
    ckpt = tmp_path / "model.ckpt"
    tokpath = tmp_path / "tok.txt"
    T.save_tokenizer(T.finalize(T.UnigramVocab({b"a": 1.0}, 1.0)), str(tokpath))
    _write_checkpoint(ckpt, edit=lambda header: header["manifest"][entry].update(name=renamed))
    code, _, err = run_cli(
        capsys, "eval", "generate", "--model", str(ckpt), "--tokenizer", str(tokpath),
        "--prompt", "a",
    )
    assert code == 2, err
    assert "data error" in err and "Traceback" not in err
    assert repr(named) in err, err


@pytest.mark.parametrize("byte, bit", [(15, 6), (13, 0)])
def test_checkpoint_header_length_beyond_the_file_is_a_data_error(capsys, tmp_path, byte, bit):
    # One flipped bit of the 8-byte header length (bytes 8-15) asks for up to
    # 2**62 bytes; the length is checked against the file before reading.
    ckpt = tmp_path / "model.ckpt"
    tokpath = tmp_path / "tok.txt"
    T.save_tokenizer(T.finalize(T.UnigramVocab({b"a": 1.0}, 1.0)), str(tokpath))
    _write_checkpoint(ckpt)
    raw = bytearray(ckpt.read_bytes())
    raw[byte] ^= 1 << bit
    ckpt.write_bytes(bytes(raw))
    code, _, err = run_cli(
        capsys, "eval", "generate", "--model", str(ckpt), "--tokenizer", str(tokpath),
        "--prompt", "a",
    )
    assert code == 2, err
    assert "data error" in err and "Traceback" not in err
    assert f"{ckpt}: header length" in err, err


@pytest.mark.parametrize("dtype", ["<i8", "|u1", "<f4", ">f8"])
def test_checkpoint_tensors_must_be_little_endian_float64(capsys, tmp_path, dtype):
    ckpt = tmp_path / "model.ckpt"
    tokpath = tmp_path / "tok.txt"
    T.save_tokenizer(T.finalize(T.UnigramVocab({b"a": 1.0}, 1.0)), str(tokpath))
    _write_checkpoint(ckpt, edit=lambda header: header["manifest"][0].update(dtype=dtype))
    code, _, err = run_cli(
        capsys, "eval", "generate", "--model", str(ckpt), "--tokenizer", str(tokpath),
        "--prompt", "a",
    )
    assert code == 2, err
    assert "data error" in err and "Traceback" not in err and "Warning" not in err
    assert f"entry 'param:Wem' has dtype {dtype!r}" in err, err


@pytest.mark.parametrize(
    "key, value",
    [
        ("step", "2"),
        ("step", -1),
        ("stream_pos", 1.5),
        ("order", "x"),
        ("order", [0, "1"]),
        ("epoch", None),
        ("shuffle_salt", True),
        ("smooth_num", "0.5"),
        ("smooth_den", None),
    ],
)
def test_resume_needs_a_well_typed_checkpoint_state(capsys, tmp_path, key, value):
    ckpt = tmp_path / "model.ckpt"
    edit = lambda header: (header if key == "step" else header["state"]).update({key: value})
    _write_checkpoint(ckpt, edit=edit)
    tokpath = tmp_path / "tok.txt"
    T.save_tokenizer(T.finalize(T.UnigramVocab({b"a": 1.0}, 1.0)), str(tokpath))
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"a" * 64)
    cfgpath = write_config(tmp_path, BASE_CFG.format(corpus=corpus, tok=tokpath, out=tmp_path))
    code, _, err = run_cli(capsys, "train", "--config", cfgpath, "--resume", str(ckpt))
    assert code == 2, err
    assert "data error" in err and "Traceback" not in err
    assert f"checkpoint field {key!r}" in err, err


def test_classify_record_without_candidates_says_so(capsys, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    tokpath = tmp_path / "tok.txt"
    T.save_tokenizer(T.finalize(T.UnigramVocab({b"a": 1.0}, 1.0)), str(tokpath))
    _write_checkpoint(ckpt)
    tasks = tmp_path / "tasks.ndjson"
    tasks.write_text('{"context": "a", "gold": "b"}\n')
    code, out, err = run_cli(
        capsys, "eval", "classify", "--model", str(ckpt), "--tokenizer", str(tokpath),
        "--tasks", str(tasks),
    )
    assert code == 2
    assert out == "example_id,method,chosen,correct\n"
    assert err == "example 0: record has no 'candidates' to classify\n"
