"""The prefix cache of `finforge.model.LanguageModel` and the `past` argument
of `forward` against the uncached forward: logits bit for bit, and the same
generated ids and classification choices."""

import os
import subprocess
import sys

import numpy as np
import pytest

import finforge
from finforge import model as M
from finforge.scaling import ModelShape

SHAPE = ModelShape(2, 2, 8, 4, 32, 16)
B = M._BLOCK

CACHE_SCRIPT = """
import sys
import numpy as np
from finforge import evalharness as E
from finforge import model as M
from finforge import tokenizer as T
from finforge.scaling import ModelShape

B = M._BLOCK
bad = []
for shape in (ModelShape(2, 2, 8, 4, 32, 16), ModelShape(2, 4, 64, 16, 256, 512)):
    params = M.init_params(shape, 3)
    tokens = np.random.default_rng(4).integers(0, shape.vocab, 3 * B + 1).tolist()
    grown = M.LanguageModel(shape, params)
    for t in range(1, 3 * B + 2):
        want = M.forward(params, tokens[:t], shape)
        # the cache split at every block boundary, in mid-block, and one
        # token before the end
        for s in sorted({s for s in range(1, t) if s % B in (0, B // 2)} | {1, t - 1} - {0}):
            lm = M.LanguageModel(shape, params)
            lm.logits(tokens[:s])
            if not np.array_equal(lm.logits(tokens[:t]), want):
                bad.append(("split", shape.hidden, t, s))
            if s % B == 0:
                past = []
                head = M.forward(params, tokens[:s], shape, past=past)
                tail = M.forward(params, tokens[s:t], shape, past=past)
                if not np.array_equal(np.concatenate([head, tail], axis=1), want):
                    bad.append(("past", shape.hidden, t, s))
        # the cache grown one token at a time
        if not np.array_equal(grown.logits(tokens[:t]), want):
            bad.append(("grow", shape.hidden, t))


class Uncached:
    def __init__(self, shape, params):
        self.shape, self.params = shape, params

    def logits(self, tokens):
        return M.forward(self.params, tokens, self.shape)


tok = T.finalize(T.UnigramVocab({bytes([b]): 1.0 for b in b"abcdefgh "}, 1.0))
shape = ModelShape(2, 4, 64, 16, 256, tok.vocab_size)
params = M.init_params(shape, 7)
cached, plain = M.LanguageModel(shape, params), Uncached(shape, params)
rng = np.random.default_rng(8)
for n in (B - 2, 2 * B, 2 * B + 5):
    prompt = rng.integers(1, tok.vocab_size, n).tolist()
    if E.greedy_decode(cached, prompt, 40) != E.greedy_decode(plain, prompt, 40):
        bad.append(("greedy", n))
# a prompt longer than the cache holds, and a cache too small for one block
block_bytes = M._CACHE_BYTES // cached.cache_capacity()
for blocks in (2, 0):
    M._CACHE_BYTES = blocks * block_bytes
    prompt = rng.integers(1, tok.vocab_size, 3 * B + 5).tolist()
    small = M.LanguageModel(shape, params)
    if E.greedy_decode(small, prompt, 40) != E.greedy_decode(plain, prompt, 40):
        bad.append(("greedy-small", blocks))
pool = [(b"ab cd " * 5, b"ef"), (b"gh ba " * 6, b"dc"), (b"fa eb " * 4, b"hg")]
for i in range(3):
    context = E.assemble_prompt(b"abc de", pool, 3, 0, i)
    task = E.ClassificationTask(context, (b"ef", b"dc", b"hg a"))
    for method in E.METHODS:
        if E.classify(cached, tok, task, method) != E.classify(plain, tok, task, method):
            bad.append(("classify", i, method))
    for cand in task.candidates:
        if E.candidate_logprob(cached, tok, context, cand) != E.candidate_logprob(plain, tok, context, cand):
            bad.append(("logprob", i, cand))
print(bad)
sys.exit(1 if bad else 0)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cached_logits_and_choices_bit_exact(threads):
    # BLAS reads its thread count when numpy loads, hence a fresh process.
    src = os.path.dirname(os.path.dirname(finforge.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", CACHE_SCRIPT], env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr


def _block_bytes(shape):
    return B * (shape.vocab + 2 * shape.layers * shape.heads * shape.head_dim) * 8


def test_cache_capacity_is_set_in_bytes():
    eval_shape = ModelShape(2, 4, 64, 16, 256, 1024)  # the benchmark's eval shape
    assert M.LanguageModel(eval_shape, {}).cache_capacity() == 64
    # at a 2**17 vocab one block's logit rows alone outgrow the budget
    assert M.LanguageModel(ModelShape(2, 4, 64, 16, 256, 2**17), {}).cache_capacity() == 0


def _held_bytes(lm):
    return sum(
        sum(a.nbytes for a in ks) + sum(a.nbytes for a in vs) + rows.nbytes
        for ks, vs, rows in lm._blocks.values()
    )


def test_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(M, "_CACHE_BYTES", 10 * _block_bytes(SHAPE) + 100)
    lm = M.LanguageModel(SHAPE, M.init_params(SHAPE, 1))
    assert lm.cache_capacity() == 10
    rng = np.random.default_rng(2)
    for _ in range(40):
        lm.logits(rng.integers(0, SHAPE.vocab, 3 * B + 5).tolist())
        assert _held_bytes(lm) <= M._CACHE_BYTES
    assert len(lm._blocks) == 10


def test_long_input_keeps_its_own_prefix(monkeypatch):
    monkeypatch.setattr(M, "_CACHE_BYTES", 2 * _block_bytes(SHAPE))
    params = M.init_params(SHAPE, 1)
    lm = M.LanguageModel(SHAPE, params)
    tokens = np.random.default_rng(5).integers(0, SHAPE.vocab, 5 * B + 3).tolist()
    lm.logits(tokens)
    assert list(lm._blocks) == [tuple(tokens[:B]), tuple(tokens[: 2 * B])]
    seen = []
    real = M.forward
    monkeypatch.setattr(M, "forward", lambda p, t, *a: seen.append(len(t)) or real(p, t, *a))
    tokens.append(7)
    assert np.array_equal(lm.logits(tokens), real(params, tokens, SHAPE))
    assert seen == [len(tokens) - 2 * B]


def test_cache_hit_computes_only_the_tail(monkeypatch):
    lm = M.LanguageModel(SHAPE, M.init_params(SHAPE, 1))
    tokens = np.random.default_rng(3).integers(0, SHAPE.vocab, 2 * B).tolist()
    lm.logits(tokens[: B + 3])
    seen = []
    real = M.forward
    monkeypatch.setattr(M, "forward", lambda p, t, *a: seen.append(len(t)) or real(p, t, *a))
    lm.logits(tokens)
    lm.logits(tokens)  # every block cached: the last one is recomputed
    lm.logits(tokens[:B])  # one block: nothing to reuse
    assert seen == [B, B, B]


def test_past_needs_an_inference_config_and_a_block_boundary():
    params = M.init_params(SHAPE, 1)
    training = M.ForwardConfig(p_at=0.1, training=True)
    with pytest.raises(ValueError, match="inference config"):
        M.forward(params, [1, 2], SHAPE, training, past=[])
    past = []
    M.forward(params, [1] * (B + 1), SHAPE, past=past)
    assert [k.shape[1] for k, _ in past] == [B] * SHAPE.layers
    past[0] = tuple(x[:, :-1] for x in past[0])
    with pytest.raises(ValueError, match="block boundary"):
        M.forward(params, [1], SHAPE, past=past)
