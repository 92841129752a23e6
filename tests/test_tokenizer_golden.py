"""Golden tokenizer files: the sha256 of what `train-tokenizer` writes from
the in-test corpora at two vocabulary settings, and of the ids that each
golden tokenizer gives its corpus, encoded document by document with one
model. Tokenizer training and encoding must stay byte-identical; a change
that moves any digest changes the tokenizer, and the digests may only be
re-recorded together with a note that says why."""

import hashlib
import json

import numpy as np
import pytest

from finforge import cli
from finforge import tokenizer as T
from test_cli import CORPUS_TEXT
from test_tokenizer_lattice import finance_text

# name -> (documents, --domains, --chunks); documents are split evenly into
# the domains, and each domain's bytes into the chunks.
CORPORA = {
    "pangrams": ([CORPUS_TEXT], 1, 2),
    "finance": ([finance_text(seed, 1000) for seed in (11, 12, 13, 14)], 2, 2),
}

GOLDEN = {
    ("pangrams", 150, 350): "65adc157e9011ec333017ec3eac1513a1ebd3ff302538a5ad628e26bfc7e2391",
    ("pangrams", 40, 300): "68532c8243397e208fba27613ed5e078e1341917f89752f26ca88b673bc21188",
    ("finance", 150, 350): "da65f7f7828f969f99348b2ff47af2447d570c2656b8bd29d301a52ac4d643ab",
    ("finance", 40, 300): "d2064c2c4789920aace113c7d3862bf34a56506494deef3426769174bcbde6a3",
}

# The ids of every document, each followed by -1, as little-endian int64.
GOLDEN_IDS = {
    ("pangrams", 150, 350): "427428afd044d68a18e97fc6d391deef0e48916c4fed363870261d583b091f45",
    ("pangrams", 40, 300): "dc14a39ba73445272d8cbe39e84ca5b5cfe0f656d3d565522c0738c1df5c0388",
    ("finance", 150, 350): "a3622dc288d83b226605cb363e481784cc244d5c8afb0f15bcf3e6a8c2c35233",
    ("finance", 40, 300): "6ccff84db8001b440c4e9ab63eff9638f5a4cfcb52b132d5286a64bf338475f7",
}


@pytest.mark.parametrize("corpus, chunk_vocab, target_vocab", sorted(GOLDEN))
def test_train_tokenizer_output_is_golden(tmp_path, capsys, corpus, chunk_vocab, target_vocab):
    docs, domains, chunks = CORPORA[corpus]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps({"text": d.decode()}) + "\n" for d in docs))
    out = tmp_path / "tok.txt"
    code = cli.main([
        "train-tokenizer", "--corpus", str(path), "--domains", str(domains),
        "--chunks", str(chunks), "--chunk-vocab", str(chunk_vocab),
        "--target-vocab", str(target_vocab), "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[corpus, chunk_vocab, target_vocab]
    tok = T.load_tokenizer(str(out))
    ids = [i for d in docs for i in [*T.encode(tok, d), -1]]
    assert [i for d in docs for i in [*T.encode(tok, d), -1]] == ids  # from the memo
    digest = hashlib.sha256(np.asarray(ids, dtype="<i8").tobytes()).hexdigest()
    assert digest == GOLDEN_IDS[corpus, chunk_vocab, target_vocab]
