import csv
import io
import json
import math
import os
import random
import reprlib

import numpy as np
import pytest

from finforge import cli
from finforge import config as C
from finforge import evalharness as E
from finforge import tokenizer as T
from finforge import trainer as R
from finforge.scaling import ModelShape, count_parameters, declared
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
        "eval classify --tasks t.ndjson --seed -1",
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


@pytest.mark.parametrize("args", [
    "--params-only 1e16 --vocab 512",  # above the 128-layer shape's 1,649,338,875,904
    "--params-only inf",
    "--params-only 1e300",
    "--gpu-hours inf",
    "--gpu-hours 1e300",
])
def test_plan_cli_target_beyond_the_searched_shapes_is_a_data_error(capsys, args):
    # Every candidate is equally far from an infinite target, so without the
    # refusal the search would print its first, 1-layer shape
    code, stdout, err = run_cli(capsys, "plan", *args.split())
    assert code == 2, err
    assert "parameters is outside (" in err and "the totals that the search reaches at" in err
    assert "shape," not in stdout


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


# A resume that fails: case -> (config values, --override, the error).
FAILED_RESUME = {
    "train-corpus-too-small": ({"corpus": "tiny.jsonl"}, "max_lr=5e-4",
                               "corpus too small to fill a single training sequence"),
    "val-corpus-too-small": ({"val_corpus": "tiny.jsonl"}, "max_lr=5e-4",
                             "validation corpus too small to fill a single sequence"),
    "order-beyond-corpus": ({"corpus": "few.jsonl"}, "max_lr=5e-4",
                            "checkpoint-00000002.bin: checkpoint field 'order' holds chunk "),
    "override-clip-norm-negative": ({}, "clip_norm=-1",
                                    "--override: clip_norm must be in (0, inf], got -1.0"),
    "steps-at-the-checkpoint": ({"steps": 2}, "max_lr=5e-4",
                                "steps = 2 is not above step 2, where the run starts"),
}


@pytest.mark.parametrize("case", FAILED_RESUME)
def test_a_failed_resume_leaves_out_dir_as_it_was(capsys, workspace, case):
    # Every check runs before the resume cuts diagnostics.csv or writes an
    # override row, so the run it would resume keeps its files, rows and all,
    # and no sidecar of cut rows appears.
    cfgpath, out, _ = make_train_setup(workspace, capsys, "failed", steps=4)
    assert run_cli(capsys, "train", "--config", cfgpath)[0] == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    (workspace / "tiny.jsonl").write_text(json.dumps({"text": "a"}) + "\n")
    (workspace / "few.jsonl").write_text(
        "".join(line + "\n" for line in (workspace / "docs.jsonl").read_text().splitlines()[:5])
    )
    values, override, error = FAILED_RESUME[case]
    values = {k: workspace / v if k.endswith("corpus") else v for k, v in values.items()}
    write_config(workspace, _config_with((workspace / "failed.cfg").read_text(), **values),
                 "failed.cfg")
    code, stdout, err = run_cli(capsys, "train", "--config", cfgpath,
                                "--resume", str(out / "checkpoint-00000002.bin"),
                                "--override", override)
    assert (code, stdout) == (2, ""), err
    assert "data error: " in err and error in err and "Traceback" not in err, err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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


def _write_checkpoint(path, edit=None, vocab=257):
    """A tiny valid checkpoint, or one whose header ``edit`` changed in
    place. Its vocabulary is by default that of ``finalize`` over one token,
    256 bytes and ``<|endoftext|>``, the tokenizer that the tests pair it
    with."""
    from finforge import model as M
    from finforge.scaling import ModelShape

    shape = ModelShape(1, 1, 4, 4, 16, vocab)
    params = M.init_params(shape, 0)
    R.save_checkpoint(str(path), shape, TrainConfig(), params, R.TrainState.fresh(params))
    if edit is None:
        return
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen :])


# Payloads other than the param, m and v of ``_write_checkpoint``'s file:
# case -> the payload's byte count, given the count it has.
PAYLOAD = {
    "checkpoint-payload-short": lambda n: n - 8,
    "checkpoint-trailing-bytes": lambda n: n + 64,
    "checkpoint-with-params-only": lambda n: n // 3,
}


def _payload(layers):
    """The bytes of param, m and v at ``_write_checkpoint``'s shape, vocabulary
    300, with ``layers``."""
    return 3 * 8 * count_parameters(ModelShape(layers, 1, 4, 4, 16, 300)).grand_total


# Checkpoint header values that a load refuses: case -> (header section,
# field, value, the message after the path).
HEADER = {
    "checkpoint-vocab-float": ("shape", "vocab", 300.0, "vocab must be of type int, got 300.0"),
    "checkpoint-layers-bool": ("shape", "layers", True, "layers must be of type int, got True"),
    "checkpoint-heads-string": ("shape", "heads", "2", "heads must be of type int, got '2'"),
    "checkpoint-head-dim-0": ("shape", "head_dim", 0, "head_dim must be in [1, inf), got 0"),
    "checkpoint-epoch-float": ("state", "epoch", 1.0, "epoch must be of type int, got 1.0"),
    "checkpoint-shuffle-salt-bool": (
        "state", "shuffle_salt", True, "shuffle_salt must be of type int, got True"),
    "checkpoint-stream-pos-string": (
        "state", "stream_pos", "0", "stream_pos must be of type int, got '0'"),
    "checkpoint-smooth-den-negative": (
        "state", "smooth_den", -1.0, "smooth_den must be in [0, inf), got -1.0"),
    # a value of ... drops the field: each state field is required, and no other is allowed
    **{f"checkpoint-state-without-{key}": ("state", key, ..., f"missing or unknown state keys: {key}")
       for key in ("epoch", "stream_pos", "order", "shuffle_salt", "smooth_num", "smooth_den")},
    "checkpoint-state-with-m": ("state", "m", {}, "missing or unknown state keys: m"),
    # the shape's keys follow the same rule
    "checkpoint-shape-without-vocab": ("shape", "vocab", ..., "missing or unknown shape keys: vocab"),
    "checkpoint-shape-with-width": ("shape", "width", 8, "missing or unknown shape keys: width"),
    # each config key is required too: a resume would train at a missing one's default
    **{f"checkpoint-config-without-{key}": (
        "config", key, ..., f"missing or unknown config keys: {key}") for key in ("seed", "max_lr")},
    # more layers than a file can hold, refused by the payload size before a layout is built
    "checkpoint-layers-2-64": ("shape", "layers", 2**64, f"the payload is {_payload(1)} bytes, "
                               f"not the {_payload(2**64)} bytes of param, m and v at the "
                               "header's shape"),
    # an int no float can hold does not stand for one
    "checkpoint-ln-eps-huge-int": (
        "config", "ln_eps", 10**400, f"ln_eps must be of type float, got {reprlib.repr(10**400)}"),
}


# An array nested deeper than ``json`` decodes: a RecursionError to it.
DEEP = "[" * 100_000 + "]" * 100_000

# Shapes inside every key's interval whose four model copies, as ``train``
# holds them, no machine's memory holds: case -> config values.
BEYOND_MEMORY = {
    "config-layers-beyond-memory": {"layers": 100_000_000},
    "config-head-dim-beyond-memory": {"heads": 1, "head_dim": 100_000_000_000},
}


# Config values outside their key's interval, each set in a config file:
# case -> (key, value). Every numeric key but ``seed``, which may be any
# int, has a case out of range, and every float key one with NaN too
# (test_every_numeric_config_key_has_bad_config_cases).
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
    "config-clip-norm-nan": ("clip_norm", "nan"),
    "config-ln-eps-negative": ("ln_eps", "-1"),
    "config-weight-decay-nan": ("weight_decay", "nan"),
    "config-val-max-chunks-negative": ("val_max_chunks", "-29"),
    "config-max-lr-inf": ("max_lr", "inf"),
    "config-max-lr-nan": ("max_lr", "nan"),
    "config-final-lr-0": ("final_lr", "0"),
    "config-final-lr-nan": ("final_lr", "nan"),
    "config-warmup-steps-negative": ("warmup_steps", "-5"),
    "config-horizon-steps-0": ("horizon_steps", "0"),
    "config-beta1-nan": ("beta1", "nan"),
    "config-beta2-negative": ("beta2", "-0.1"),
    "config-beta2-nan": ("beta2", "nan"),
    "config-weight-decay-inf": ("weight_decay", "inf"),
    "config-clip-norm-0": ("clip_norm", "0"),
    "config-batch-warmup-steps-negative": ("batch_warmup_steps", "-3"),
    "config-dropout-at-1": ("dropout_at", "1.0"),
    "config-dropout-at-nan": ("dropout_at", "nan"),
    "config-dropout-h-nan": ("dropout_h", "nan"),
    "config-dropout-f-negative": ("dropout_f", "-0.5"),
    "config-dropout-f-nan": ("dropout_f", "nan"),
    "config-adam-eps-inf": ("adam_eps", "inf"),
    "config-adam-eps-nan": ("adam_eps", "nan"),
    "config-ln-eps-inf": ("ln_eps", "inf"),
    "config-ln-eps-nan": ("ln_eps", "nan"),
    "config-smooth-alpha-nan": ("smooth_alpha", "nan"),
    "config-steps-0": ("steps", "0"),
    "config-layers-negative": ("layers", "-1"),
    "config-heads-0": ("heads", "0"),
    "config-head-dim-0": ("head_dim", "0"),
    "config-init-seed-negative": ("init_seed", "-1"),
}


def _set(section, key, value):
    """An edit of a checkpoint header: ``key`` of ``section`` set to ``value``,
    or dropped for a value of ``...``."""
    return lambda header: (header[section].pop(key) if value is ...
                           else header[section].update({key: value}))


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
        "checkpoint-truncated",
        "checkpoint-order-beyond-corpus",
        *PAYLOAD,
        *HEADER,
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
        "override-max-lr-inf",
        "checkpoint-beta1-1",
        "checkpoint-max-lr-inf",
        "jsonl-line-not-json",
        "jsonl-not-utf8",
        "config-not-utf8",
        "task-not-utf8",
        "jsonl-line-nested-too-deep",
        "task-line-nested-too-deep",
        "checkpoint-header-nested-too-deep",
        *BEYOND_MEMORY,
        "train-out-of-memory",
    ],
)
def test_malformed_inputs_exit_2_without_traceback(capsys, tmp_path, monkeypatch, case):
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
    elif case == "checkpoint-max-lr-inf":  # json writes it as Infinity
        _write_checkpoint(ckpt, edit=lambda header: header["config"].update(max_lr=math.inf))
    elif case in HEADER:  # at vocabulary 300, so that a vocab of 300.0 fits the payload
        section, key, value, _ = HEADER[case]
        _write_checkpoint(ckpt, edit=_set(section, key, value), vocab=300)
        _tokenizer_of_size(tokpath, 300)
    elif case in PAYLOAD:
        _write_checkpoint(ckpt)
        raw = ckpt.read_bytes()
        start = 16 + int.from_bytes(raw[8:16], "little")
        n = len(raw) - start
        ckpt.write_bytes((raw + bytes(64))[: start + PAYLOAD[case](n)])
    elif case == "checkpoint-header-nested-too-deep":
        _write_checkpoint(ckpt)
        raw = ckpt.read_bytes()
        blob = DEEP.encode()
        ckpt.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                         + raw[16 + int.from_bytes(raw[8:16], "little"):])
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
            "jsonl-line-nested-too-deep": DEEP.encode() + b"\n",
        }[case])
        argv = ["train-tokenizer", "--corpus", str(corpus), "--out", str(tmp_path / "o.txt")]
    elif case == "target-vocab-too-small":
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"the quick brown fox jumps over the lazy dog")
        argv = ["train-tokenizer", "--corpus", str(corpus), "--target-vocab", "100",
                "--chunk-vocab", "50", "--out", str(tmp_path / "o.txt")]
    elif case == "checkpoint-order-beyond-corpus":
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"a" * 64)
        cfg = BASE_CFG.format(corpus=corpus, tok=tokpath, out=tmp_path)
        cfgpath = write_config(tmp_path, cfg.replace("heads = 2", "heads = 1"))  # the checkpoint's
        argv = ["train", "--config", cfgpath, "--resume", str(ckpt)]
    elif (case in BAD_CONFIG or case in BEYOND_MEMORY or case.startswith("override-")
          or case in ("config-not-utf8", "train-out-of-memory")):
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
        elif case in BEYOND_MEMORY:  # refused before any allocation, so safe in-process
            cfgpath.write_text(_config_with(base, **BEYOND_MEMORY[case]))
        elif case == "train-out-of-memory":
            cfgpath.write_text(base)
            monkeypatch.setattr(cli.M, "init_params", _out_of_memory)
        else:  # resume a valid run with the value as an override
            cfgpath.write_text(_config_with(base, steps=2))
            assert cli.main(argv) == 0
            cfgpath.write_text(base)
            argv += ["--resume", str(tmp_path / "run" / "checkpoint-00000002.bin"),
                     "--override", {"override-adam-eps-0": "adam_eps=0",
                                    "override-max-lr-inf": "max_lr=inf"}[case]]
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
        tasks.write_text({"task-line-not-an-object": "5\n", "task-line-nested-too-deep": DEEP + "\n"}
                         .get(case, json.dumps(rec) + "\n"))
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
        "override-adam-eps-0": "data error: --override: adam_eps must be in (0, inf), got 0.0",
        "override-max-lr-inf": "data error: --override: max_lr must be in (0, inf), got inf",
        "checkpoint-beta1-1": f"data error: {ckpt}: beta1 must be in [0, 1), got 1.0",
        "checkpoint-max-lr-inf": f"data error: {ckpt}: max_lr must be in (0, inf), got inf",
        "jsonl-line-not-json": f"{tmp_path / 'corpus.jsonl'}:2: not JSON: Expecting value",
        "jsonl-not-utf8": f"{tmp_path / 'corpus.jsonl'}:2: not UTF-8: invalid start byte",
        "config-not-utf8": f"{tmp_path / 'run.cfg'}:2: not UTF-8: invalid start byte",
        "task-not-utf8": f"{tmp_path / 'tasks.ndjson'}:1: not UTF-8: invalid start byte",
        "jsonl-line-nested-too-deep": f"data error: {tmp_path / 'corpus.jsonl'}:2: not JSON: ",
        "task-line-nested-too-deep": f"data error: {tmp_path / 'tasks.ndjson'}:1: not JSON: ",
        "checkpoint-header-nested-too-deep": f"data error: {ckpt}: checkpoint header: not JSON: ",
        "train-out-of-memory": "data error: out of memory: MemoryError('cannot allocate')\n",
    }.get(case)
    if want:
        assert want in err, err
    if case == "checkpoint-order-beyond-corpus":
        assert f"data error: {ckpt}: checkpoint field 'order' holds chunk 99999" in err, err
        assert "chunks" in err, err
    if case in HEADER:
        assert f"data error: {ckpt}: {HEADER[case][3]}\n" in err, err
    if case in PAYLOAD:
        assert f"data error: {ckpt}: the payload is {PAYLOAD[case](n)} bytes, not the {n} " in err
    if case in BEYOND_MEMORY:
        assert f"data error: {cfgpath}: the shape ModelShape(" in err, err
        assert "bytes of memory" in err and not (tmp_path / "run").exists(), err
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


def _out_of_memory(*args):
    raise MemoryError("cannot allocate")


def test_every_numeric_config_key_has_bad_config_cases_and_a_readme_entry():
    # config.KEYS is the one declaration of each key's type, default and
    # interval; BAD_CONFIG and README's list under "Config files" follow it.
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    entries = readme.partition("### Config files")[2].partition("\n#")[0]
    for key, (kind, default, interval) in C.KEYS.items():
        if kind not in (int, float):
            assert f"`{key}`" in entries, key
            continue
        entry = f"- `{key}`: {kind.__name__} in {interval}, " + (
            "required" if default is None else f"default {default!r}"
        )
        assert f"\n{entry}" in entries, entry
        if interval == "(-inf, inf)":
            continue  # seed: no int is out of its range
        values = [value for k, value in BAD_CONFIG.values() if k == key]
        assert any(value != "nan" for value in values), f"no BAD_CONFIG case puts {key} out of range"
        if kind is float:
            assert "nan" in values, f"no BAD_CONFIG case sets {key} to NaN"
    # The shape's and the state's declared fields, and README's list of them
    # under "Checkpoint headers".
    entries = readme.partition("### Checkpoint headers")[2].partition("\n#")[0]
    for f in [*declared(ModelShape), *declared(R.TrainState)]:
        interval = f.metadata["interval"]
        entry = f"- `{f.name}`: {f.type}" + (f" in {interval}" if interval else "")
        assert f"\n{entry}" in entries, entry


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


@pytest.mark.parametrize("key, value", [("layers", 3), ("heads", 4), ("head_dim", 8)])
def test_resume_rejects_a_config_of_another_shape(capsys, tmp_path, key, value):
    # The shape comes from the checkpoint; a config file that names another
    # one would be ignored and echoed as if it had been used.
    corpus, tok = tmp_path / "corpus.txt", tmp_path / "tok.txt"
    corpus.write_bytes(b"ab ba " * 40)
    _tokenizer_of_size(tok, 257)
    cfg = BASE_CFG.format(corpus=corpus, tok=tok, out=tmp_path / "a")
    cfg = cfg.replace("steps = 3", "steps = 2")
    code, out, err = run_cli(capsys, "train", "--config", write_config(tmp_path, cfg, "a.cfg"))
    assert code == 0, err
    ckpt = dict(l.split(",", 1) for l in out.strip().splitlines())["final_checkpoint"]
    was = {"layers": 1, "heads": 2, "head_dim": 4}[key]
    cfg = cfg.replace(f"{key} = {was}", f"{key} = {value}")
    cfg = cfg.replace(str(tmp_path / "a"), str(tmp_path / "b"))
    code, out, err = run_cli(
        capsys, "train", "--config", write_config(tmp_path, cfg, "b.cfg"), "--resume", ckpt,
    )
    assert (code, out) == (2, ""), err
    assert err == (
        f"data error: {tmp_path / 'b.cfg'} has {key} = {value}, but checkpoint {ckpt} "
        f"has {key} = {was}\n"
    )
    assert not (tmp_path / "b").exists()  # nothing was written


def test_resume_keeps_the_checkpoint_seed(capsys, tmp_path):
    # The seed shuffles the documents before they are packed into the chunks
    # that the checkpoint's order indexes: a config file of another seed is a
    # data error, and an override of it a usage error that names the option
    # which re-permutes unseen chunks. Neither writes anything.
    corpus, tok = tmp_path / "corpus.txt", tmp_path / "tok.txt"
    corpus.write_bytes(b"ab ba " * 40)
    _tokenizer_of_size(tok, 257)
    cfg = BASE_CFG.format(corpus=corpus, tok=tok, out=tmp_path / "a")
    cfg = _config_with(cfg.replace("steps = 3", "steps = 2"), seed=3)
    code, out, err = run_cli(capsys, "train", "--config", write_config(tmp_path, cfg, "a.cfg"))
    assert code == 0, err
    ckpt = dict(l.split(",", 1) for l in out.strip().splitlines())["final_checkpoint"]
    cfg = cfg.replace(str(tmp_path / "a"), str(tmp_path / "b"))
    for seed, extra in ((9, []), (None, []), (3, ["--override", "seed=9"]),
                        (3, ["--override", "seq_len=8"])):  # seq_len packs the chunks
        text = _config_with(cfg, seed=seed) if seed else cfg.replace("seed = 3\n", "")
        resume = ["--resume", ckpt, *extra]
        code, out, err = run_cli(
            capsys, "train", "--config", write_config(tmp_path, text, "b.cfg"), *resume
        )
        if extra:
            assert (code, out) == (1, "") and err.startswith("usage error: --override"), err
            assert "--reshuffle" in err and extra[1].split("=")[0] in err, err
        else:
            assert (code, out) == (2, ""), err
            assert err == (f"data error: {tmp_path / 'b.cfg'} has seed = {seed or 0}, but "
                           f"checkpoint {ckpt} has seed = 3\n")
        assert not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "records", ['{"text": "a b"}\n', "\n"], ids=["one-short-record", "no-record"]
)
def test_train_rejects_a_validation_corpus_too_small_for_one_sequence(capsys, tmp_path, records):
    # Packed into no sequence, it would turn validation off without a word.
    corpus, val, tok = tmp_path / "corpus.txt", tmp_path / "val.jsonl", tmp_path / "tok.txt"
    corpus.write_bytes(b"ab ba " * 40)
    val.write_text(records)
    _tokenizer_of_size(tok, 257)
    cfg = _config_with(BASE_CFG.format(corpus=corpus, tok=tok, out=tmp_path / "run"),
                       val_corpus=val)
    code, out, err = run_cli(capsys, "train", "--config", write_config(tmp_path, cfg))
    assert (code, out) == (2, ""), err
    assert err.splitlines()[-1] == (
        "data error: validation corpus too small to fill a single sequence"
    )
    assert not (tmp_path / "run" / "diagnostics.csv").exists()  # a rerun is not refused


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


# The shape cases, and the dropped config keys, through eval and a resume
# (generate: the malformed-input cases).
@pytest.mark.parametrize("cmd", ["bpb", "resume"])
@pytest.mark.parametrize("case", [case for case in HEADER if HEADER[case][0] == "shape"
                                  or case.startswith("checkpoint-config-without-")])
def test_a_malformed_shape_field_is_a_data_error_in_eval_and_resume(capsys, tmp_path, cmd, case):
    ckpt, tokpath, docs = tmp_path / "model.ckpt", tmp_path / "tok.txt", tmp_path / "docs.txt"
    section, key, value, message = HEADER[case]
    _write_checkpoint(ckpt, edit=_set(section, key, value), vocab=300)
    _tokenizer_of_size(tokpath, 300)
    docs.write_bytes(b"a" * 64)
    if cmd == "bpb":
        argv = ["eval", "bpb", "--model", str(ckpt), "--tokenizer", str(tokpath),
                "--docs", str(docs)]
    else:
        cfg = BASE_CFG.format(corpus=docs, tok=tokpath, out=tmp_path / "run")
        argv = ["train", "--config", write_config(tmp_path, cfg), "--resume", str(ckpt)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"data error: {ckpt}: {message}\n")
    assert not (tmp_path / "run").exists()


def test_checkpoint_header_fuzz_exits_0_or_2(capfdbinary, tmp_path):
    # Seeded edits of a tiny checkpoint: a header value rewritten, a header
    # key dropped or added, the header-length field changed, or the file cut
    # short. Each loads or is a data error; none is a traceback.
    rng = random.Random(0)
    ckpt, tokpath = tmp_path / "model.ckpt", tmp_path / "tok.txt"
    _write_checkpoint(ckpt, vocab=300)
    _tokenizer_of_size(tokpath, 300)
    raw = ckpt.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    values = [None, True, 0, -1, 1.0, 300.0, 1e-3, math.inf, math.nan, "2", [], {}, [0, -1],
              2**64, 10**400]
    codes = set()
    for case in range(64):
        kind = ("rewrite", "drop", "add", "length", "truncate")[case % 5]
        header = json.loads(raw[16 : 16 + hlen])
        where = rng.choice([header, *(v for v in header.values() if isinstance(v, dict))])
        key = rng.choice(sorted(where))
        # a key dropped, or a key added to a section, is refused
        refused = kind == "drop" or kind == "add" and where is not header
        if kind == "rewrite":
            where[key] = rng.choice(values)
        elif kind == "drop":
            del where[key]
        elif kind == "add":
            where[f"{key}_{case}"] = rng.choice(values)
        if kind in ("rewrite", "drop", "add"):
            blob = json.dumps(header).encode()
            data = raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen :]
        elif kind == "length":
            data = raw[:8] + rng.randrange(2 * hlen).to_bytes(8, "little") + raw[16:]
        else:
            data = raw[: rng.randrange(len(raw))]
        ckpt.write_bytes(data)
        code = cli.main(["eval", "generate", "--model", str(ckpt), "--tokenizer", str(tokpath),
                         "--prompt", "a", "--max-new-tokens", "1"])
        err = capfdbinary.readouterr().err.decode("utf-8", "replace")
        assert code in (0, 2) and (code == 2 or not refused), (case, kind, err)
        assert "Traceback" not in err and (code == 0 or err.startswith("data error: ")), err
        codes.add(code)
    assert codes == {0, 2}


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
    assert f"data error: {ckpt}: " in err and f"{key} must be" in err, err


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


def test_classify_output_is_csv_whatever_the_candidates_hold(capsys, tmp_path):
    # A candidate with a comma, a newline or a bare CR is quoted, so every
    # row parses into 4 fields; one without them is written as it is. Every
    # method picks the only candidate of example 1, so its rows hold a CR.
    ckpt = tmp_path / "model.ckpt"
    tokpath = tmp_path / "tok.txt"
    T.save_tokenizer(T.finalize(T.UnigramVocab({b"a": 1.0}, 1.0)), str(tokpath))
    _write_checkpoint(ckpt)
    tasks = tmp_path / "tasks.ndjson"
    tasks.write_text(
        json.dumps({"context": "a", "candidates": ["up, sharply", "down\nhard", "a\rb"],
                    "gold": "a"})
        + "\n" + json.dumps({"context": "a", "candidates": ["a\rb"], "gold": "a\rb"})
        + "\n" + json.dumps({"context": "a", "candidates": [" positive", " negative"]}) + "\n"
    )
    code, out, err = run_cli(
        capsys, "eval", "classify", "--model", str(ckpt), "--tokenizer", str(tokpath),
        "--tasks", str(tasks),
    )
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["example_id", "method", "chosen", "correct"]
    assert [row[:2] for row in rows[1:]] == [[i, m] for i in "012" for m in E.METHODS]
    assert all(len(row) == 4 for row in rows)
    n = len(E.METHODS)
    assert {row[2] for row in rows[1:n + 1]} <= {"up, sharply", "down\nhard", "a\rb"}
    assert {row[3] for row in rows[1:n + 1]} == {"0"}
    assert "".join(f'"1","{m}","a\rb","1"\n' for m in E.METHODS) in out
    plain = rows[2 * n + 1:]
    assert out.endswith("".join(f"2,{m},{chosen},\n" for _, m, chosen, _ in plain))
