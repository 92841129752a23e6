"""Golden eval outputs: the sha256 of what `eval classify --method all`,
`eval generate` and `eval bpb` print for a seeded small checkpoint and
tokenizer built in the test. Eval must stay byte-identical; a fast path that
moves any digest changes the results, and the digests may only be
re-recorded together with a note that says why.

Each command also runs with the span-score memo turned off (its bound set
to 0), which must print the same bytes."""

import hashlib
import json

import numpy as np
import pytest

from finforge import cli
from finforge import model as M
from finforge import tokenizer as T
from finforge import trainer as R
from finforge.scaling import ModelShape
from test_tokenizer_lattice import finance_text

GOLDEN = {
    "bpb": "ae6d0cb49fc3decf906e3e57d29bb03fc8454133679647d8c7ff4a7bd568ad2a",
    "classify": "1ba3283155fd6d4da80f89cf0464f8a77bbb3197125c7715817a3836dd0cee5c",
    "generate": "f394ae9cd391cbfc6d16cb022cbf1c35846ecfdc16d4205384de36315622aed6",
}

WORDS = [b" the", b" bond", b" yield", b" rose", b" fell", b" shares", b" bank", b" rate",
         b" margin", b" income", b" positive", b" negative", b" neutral"]


def _fixture(d):
    """A tokenizer of the words above and every byte, a checkpoint of a
    perturbed 2-layer model with its AdamW moments, a few-shot task file and
    held-out documents, under ``d``."""
    tok = T.finalize(T.UnigramVocab({w: 1.0 / (i + 2) for i, w in enumerate(WORDS)}, 1.0))
    T.save_tokenizer(tok, str(d / "tok.txt"))
    shape = ModelShape(2, 2, 16, 8, 64, tok.vocab_size)
    params = M.init_params(shape, 3)
    rng = np.random.default_rng(4)
    for v in params.values():  # away from init, so that outputs vary
        v += rng.normal(0.0, 0.2, v.shape)
    R.save_checkpoint(str(d / "model.ckpt"), shape, R.TrainConfig(), params,
                      R.TrainState.fresh(params))
    labels = ["positive", "negative", "neutral"]
    pool = [{"context": finance_text(40 + i, 60).decode() + " Answer:", "gold": " " + labels[i % 3]}
            for i in range(4)]
    with open(d / "tasks.ndjson", "w") as f:
        for i in range(4):
            f.write(json.dumps({
                "context": finance_text(50 + i, 80).decode() + " Answer:",
                "candidates": [" " + c for c in labels], "gold": " " + labels[i % 3],
                "shots_pool": pool,
            }) + "\n")
    with open(d / "docs.jsonl", "w") as f:
        for i in range(3):
            f.write(json.dumps({"text": finance_text(60 + i, 200).decode()}) + "\n")


def _argv(d, command):
    common = ["--model", str(d / "model.ckpt"), "--tokenizer", str(d / "tok.txt")]
    return {
        "classify": ["eval", "classify", *common, "--tasks", str(d / "tasks.ndjson"),
                     "--method", "all", "--shots", "2", "--seed", "1"],
        "generate": ["eval", "generate", *common, "--prompt", finance_text(70, 60).decode(),
                     "--max-new-tokens", "40"],
        "bpb": ["eval", "bpb", *common, "--docs", str(d / "docs.jsonl"),
                "--window", "48", "--stride", "16"],
    }[command]


@pytest.mark.parametrize("memo", ["on", "off"])
@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_eval_output_is_golden(tmp_path, capsysbinary, monkeypatch, command, memo):
    _fixture(tmp_path)
    if memo == "off":
        monkeypatch.setattr(M, "_SCORE_BYTES", 0)
    code = cli.main(_argv(tmp_path, command))
    out, err = capsysbinary.readouterr()
    assert code == 0, err
    assert hashlib.sha256(out).hexdigest() == GOLDEN[command], out
