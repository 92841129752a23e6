"""A sweep over every flag of `cli.build_parser()`. Each flag is typed, a
file, or other, and the sweep reads the flags from the parser, so a new flag
or subcommand joins it without a new test; one that fits no group fails
`test_every_flag_is_typed_a_file_or_other`.

- A typed flag given NaN, an empty string or -1 is a usage error (exit 1)
  that names the flag and prints nothing on stdout, before any file is read.
- A file flag given a variant of a valid tiny file (empty, cut to half, one
  seeded byte flipped, a 0xFF byte inserted, an array nested 100,000 deep),
  a directory or a missing path exits 0, 1, 2 or 3 without a traceback, and
  leaves no `*.tmp`. The valid file itself exits 0.

Every count in the fixtures is one digit, so a flipped byte cannot make a run
long."""

import argparse
import json
import random
import shutil

import pytest

from finforge import cli
from finforge import tokenizer as T

# The fixture each file flag reads in the sweep.
FILE_FLAGS = {
    "--corpus": "corpus.jsonl",
    "--config": "run.cfg",
    "--resume": "checkpoint.bin",
    "--model": "checkpoint.bin",
    "--tokenizer": "tok.txt",
    "--docs": "corpus.jsonl",
    "--tasks": "tasks.ndjson",
}

# Every flag that is neither typed nor read as a file: an output path, free
# text, a choice, a switch or a spec that its command parses. -> the value
# the file sweep passes where a command requires the flag.
OTHER_FLAGS = {
    "--out": "out.txt",
    "--prompt": "a",
    "--shape": None,
    "--override": None,
    "--reshuffle": None,
    "--method": None,
}

# Flags that keep each command's run short, beside the files it reads.
SHORT = {
    ("train-tokenizer",): ["--chunk-vocab", "260", "--target-vocab", "260"],
    ("sweep-vocab",): ["--candidates", "257,258", "--base-vocab", "260"],
    ("eval", "generate"): ["--max-new-tokens", "2"],
}

CONFIG = """seq_len = 8
batch_warmup_size = 2
batch_main_size = 2
batch_warmup_steps = 2
warmup_steps = 2
horizon_steps = 9
checkpoint_interval = 2
max_lr = 1e-3
final_lr = 1e-4
layers = 1
heads = 1
head_dim = 4
steps = {steps}
corpus = corpus.jsonl
tokenizer = tok.txt
out_dir = {out}
"""

TEXTS = [
    "the quick brown fox jumps over the lazy dog.",
    "pack my box with five dozen liquor jugs.",
    "how vexingly quick daft zebras jump!",
    "sphinx of black quartz, judge my vow.",
]

VARIANTS = ["valid", "empty", "half", "flipped-byte", "inserted-ff", "nested-deep", "directory",
            "missing"]


def _commands(parser, argv=()):
    """``(argv, parser)`` of each command that ``parser``'s subcommands lead to."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield tuple(argv), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _commands(sub, (*argv, name))


def _flags(parser) -> dict:
    """flag -> action of each option of ``parser`` but ``--help``."""
    return {a.option_strings[-1]: a for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)}


COMMANDS = dict(_commands(cli.build_parser()))
TYPED = [(cmd, flag) for cmd, p in COMMANDS.items() for flag, a in _flags(p).items() if a.type]
FILES = [(cmd, flag) for cmd, p in COMMANDS.items() for flag in _flags(p) if flag in FILE_FLAGS]


def _label(case) -> str:
    return " ".join((*case[0], case[1]))


def test_every_flag_is_typed_a_file_or_other():
    seen = set()
    for cmd, parser in COMMANDS.items():
        for flag, action in _flags(parser).items():
            groups = [action.type is not None, flag in FILE_FLAGS, flag in OTHER_FLAGS]
            assert groups.count(True) == 1, f"{' '.join(cmd)} {flag}: put it in one group"
            seen.add(flag)
    assert seen >= FILE_FLAGS.keys() | OTHER_FLAGS.keys()  # a flag that is gone leaves its group


@pytest.mark.parametrize("value", ["nan", "", "-1"])
@pytest.mark.parametrize("cmd, flag", TYPED, ids=map(_label, TYPED))
def test_a_bad_number_for_any_typed_flag_is_a_usage_error(capsys, tmp_path, monkeypatch, cmd,
                                                          flag, value):
    # None of the named files exists, so the check must come before any read.
    monkeypatch.chdir(tmp_path)
    argv = [*cmd]
    for other, action in _flags(COMMANDS[cmd]).items():
        if action.required and other != flag:
            argv += [other, "1" if action.type else "no-such-file"]
    code = cli.main([*argv, f"{flag}={value}"])
    out, err = capsys.readouterr()
    assert code == 1 and "usage error" in err and flag in err, err
    assert out == ""


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """A directory holding the valid file of each file flag; the checkpoint
    is step 2 of ``run.cfg``'s run, which ``run.cfg`` resumes to step 3."""
    root = tmp_path_factory.mktemp("fixtures")
    (root / "corpus.jsonl").write_text("".join(json.dumps({"text": t}) + "\n" for t in TEXTS))
    T.save_tokenizer(T.finalize(T.UnigramVocab({b"a": 1.0}, 1.0)), str(root / "tok.txt"))
    (root / "tasks.ndjson").write_text(
        json.dumps({"context": "a", "candidates": ["b", "c"], "gold": "b"}) + "\n")
    (root / "run.cfg").write_text(CONFIG.format(steps=3, out="run"))
    (root / "first.cfg").write_text(CONFIG.format(steps=2, out="first"))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert cli.main(["train", "--config", "first.cfg"]) == 0
    shutil.move(root / "first" / "checkpoint-00000002.bin", root / "checkpoint.bin")
    shutil.rmtree(root / "first")
    (root / "first.cfg").unlink()
    return root


def _vary(path, variant: str, rng: random.Random) -> None:
    data = path.read_bytes()
    if variant in ("directory", "missing"):
        path.unlink()
        if variant == "directory":
            path.mkdir()
        return
    i = rng.randrange(len(data))
    path.write_bytes({
        "valid": data,
        "empty": b"",
        "half": data[: len(data) // 2],
        "flipped-byte": data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:],
        "inserted-ff": data[:i] + b"\xff" + data[i:],
        "nested-deep": b"[" * 100_000 + b"]" * 100_000 + b"\n",
    }[variant])


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("cmd, flag", FILES, ids=map(_label, FILES))
def test_any_file_variant_exits_0_to_3_without_a_traceback(capsysbinary, tmp_path, monkeypatch,
                                                            fixtures, cmd, flag, variant):
    shutil.copytree(fixtures, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    argv = [*cmd, *SHORT.get(cmd, [])]
    for other, action in _flags(COMMANDS[cmd]).items():
        if action.required and other not in (flag, *argv):
            argv += [other, FILE_FLAGS.get(other) or OTHER_FLAGS[other]]
    argv += [flag, FILE_FLAGS[flag]]
    _vary(tmp_path / FILE_FLAGS[flag], variant, random.Random(f"{_label((cmd, flag))} {variant}"))
    code = cli.main(argv)  # an exception escaping main fails the test with its traceback
    err = capsysbinary.readouterr().err.decode()  # stdout: generate's bytes, maybe not UTF-8
    assert code in (0, 1, 2, 3) and "Traceback" not in err, err
    assert code == 0 or variant != "valid", err
    assert not list(tmp_path.rglob("*.tmp"))
