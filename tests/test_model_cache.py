"""The prefix cache of `finforge.model.LanguageModel` and the `past` and
`start` arguments of `forward` against the uncached forward: logits bit for
bit, and the same generated ids, classification choices and bits per byte;
and what `start` saves: query blocks, and memory at the paper's
vocabulary."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import finforge
from finforge import evalharness as E
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
for shape, qk in (
    (ModelShape(2, 2, 8, 4, 32, 16), False),
    (ModelShape(2, 4, 64, 16, 256, 512), False),
    (ModelShape(1, 2, 8, 4, 32, 16), False),  # its only layer is the last one
    (ModelShape(2, 2, 8, 4, 32, 16), True),  # the softmax divides by the layer number
    (ModelShape(0, 2, 8, 4, 32, 16), False),  # no layers: nothing to cache
):
    case = (shape.layers, shape.hidden, qk)
    params = M.init_params(shape, 3)
    cfg = M.ForwardConfig(qk_layer_scaling=qk)
    tokens = np.random.default_rng(4).integers(0, shape.vocab, 3 * B + 1).tolist()
    grown = M.LanguageModel(shape, params, qk_layer_scaling=qk)
    for t in range(1, 3 * B + 2):
        want = M.forward(params, tokens[:t], shape, cfg)
        # the cache cold, and warmed at every block boundary, in mid-block
        # and one token before the end; a mid-block warm-up caches what the
        # boundary before it does. A fresh copy of each distinct cache is
        # asked for every start from the end of its blocks on, where all of
        # them are reused, and for 0 and that end minus 1, where the reuse
        # stops early (a smaller cache reuses all its blocks at the others).
        # So the start falls at every row of the first block the forward
        # computes, the cache cold and warm.
        caches = {(): M.LanguageModel(shape, params, qk_layer_scaling=qk)}
        for s in sorted({s for s in range(1, t) if s % B in (0, B // 2)} | {t - 1} - {0}):
            warm = M.LanguageModel(shape, params, qk_layer_scaling=qk)
            warm.logits(tokens[:s])
            caches.setdefault(tuple(warm._blocks), warm)
            if s % B == 0 and shape.layers:
                past = []
                head = M.forward(params, tokens[:s], shape, cfg, past)
                tail = M.forward(params, tokens[s:t], shape, cfg, past)
                if not np.array_equal(np.concatenate([head, tail], axis=1), want):
                    bad.append(("past", *case, t, s))
        for blocks, warm in caches.items():
            for start in sorted(({0, len(blocks) * B - 1} | set(range(len(blocks) * B, t))) - {-1}):
                lm = M.LanguageModel(shape, params, qk_layer_scaling=qk)
                lm._blocks.update(warm._blocks)
                if not np.array_equal(lm.logits(tokens[:t], start), want[:, start:]):
                    bad.append(("split", *case, t, len(blocks), start))
        # the cache grown one token at a time, as greedy decoding asks
        if not np.array_equal(grown.logits(tokens[:t], t - 1), want[:, t - 1 :]):
            bad.append(("grow", *case, t))


class Uncached:
    def __init__(self, shape, params):
        self.shape, self.params = shape, params

    def logits(self, tokens, start=0):
        return M.forward(self.params, tokens, self.shape)[:, start:]

    span_nll = M.span_nll  # no memo either


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
# sliding bpb windows: every window after the first starts past position 0
docs = [bytes(rng.choice(list(b"abcdefgh "), n).tolist()) for n in (150, 97, 64)]
for window, stride in ((40, 8), (64, 63)):
    bpb = [E.bits_per_byte(lm, docs, tok, window, stride) for lm in (cached, plain)]
    if bpb[0] != bpb[1]:
        bad.append(("bpb", window, stride))
    ids = [tok.eot_id] + T.encode(tok, docs[0])
    for first in (1, 17, 45):
        nll = [E._windowed_nll(lm, ids, first, window, stride) for lm in (cached, plain)]
        if nll[0] != nll[1]:
            bad.append(("windowed", window, stride, first))
print(bad)
sys.exit(1 if bad else 0)
"""


def start_cache_oracle_runs(logs, runs):
    """Start ``CACHE_SCRIPT`` at 1 and at 2 BLAS threads, side by side, each
    put into ``runs`` with its log file, by thread count, as it starts.

    BLAS reads its thread count when numpy loads, hence a fresh process per
    thread count. Output goes to files, so neither run can block on a full
    pipe while the other is read. ``conftest.py`` starts both when the test
    session starts, so they run beside the rest of the suite."""
    src = os.path.dirname(os.path.dirname(finforge.__file__))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        with open(logs / f"threads{threads}.log", "w") as out:
            runs[threads] = (
                subprocess.Popen(
                    [sys.executable, "-c", CACHE_SCRIPT], env=env, text=True,
                    stdout=out, stderr=subprocess.STDOUT,
                ),
                logs / f"threads{threads}.log",
            )


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cached_logits_and_choices_bit_exact(cache_oracle_runs, threads):
    run, log = cache_oracle_runs[threads]
    returncode = run.wait(timeout=600)
    assert returncode == 0, log.read_text()


def _block_bytes(shape):
    return B * 2 * shape.layers * shape.heads * shape.head_dim * 8


def test_cache_capacity_is_set_in_bytes():
    eval_shape = ModelShape(2, 4, 64, 16, 256, 1024)  # the benchmark's eval shape
    assert M.LanguageModel(eval_shape, {}).cache_capacity() == 320
    # blocks hold no logit rows, so the paper's 2**17 vocab takes no room
    assert M.LanguageModel(ModelShape(2, 4, 64, 16, 256, 2**17), {}).cache_capacity() == 320
    assert M.LanguageModel(ModelShape(0, 4, 64, 16, 256, 1024), {}).cache_capacity() == 0


def _held_bytes(lm):
    return sum(k.nbytes + v.nbytes for block in lm._blocks.values() for k, v in block)


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
    last = len(tokens) - 1
    assert np.array_equal(lm.logits(tokens, last), real(params, tokens, SHAPE)[:, last:])
    assert seen == [len(tokens) - 2 * B]


def test_cache_hit_computes_only_the_tail(monkeypatch):
    lm = M.LanguageModel(SHAPE, M.init_params(SHAPE, 1))
    tokens = np.random.default_rng(3).integers(0, SHAPE.vocab, 2 * B).tolist()
    lm.logits(tokens[: B + 3])
    seen = []
    real = M.forward
    monkeypatch.setattr(M, "forward", lambda p, t, *a: seen.append(len(t)) or real(p, t, *a))
    lm.logits(tokens, 2 * B - 1)
    lm.logits(tokens, 2 * B - 1)  # every block cached: the last one is recomputed
    lm.logits(tokens[:B], B - 1)  # one block: nothing to reuse
    assert seen == [B, B, B]


def test_greedy_steps_at_the_paper_vocab_compute_at_most_one_block(monkeypatch):
    shape = ModelShape(2, 2, 8, 4, 32, 2**17)
    lm = M.LanguageModel(shape, M.init_params(shape, 1))
    prompt = np.random.default_rng(6).integers(0, shape.vocab, B + 5).tolist()
    seen = []
    real = M.forward
    monkeypatch.setattr(M, "forward", lambda p, t, *a: seen.append(len(t)) or real(p, t, *a))
    assert len(E.greedy_decode(lm, prompt, B + 2, eot_id=-1)) == B + 2
    assert seen[0] == len(prompt) and len(seen) == B + 2
    assert max(seen[1:]) <= B


def test_start_must_name_a_column():
    lm = M.LanguageModel(SHAPE, M.init_params(SHAPE, 1))
    for tokens, start in (([1, 2, 3], 3), ([1, 2, 3], -1), ([], 0)):
        with pytest.raises(ValueError, match="outside"):
            lm.logits(tokens, start)


def test_past_needs_an_inference_config_and_holds_whole_blocks():
    params = M.init_params(SHAPE, 1)
    training = M.ForwardConfig(p_at=0.1)
    with pytest.raises(ValueError, match="inference config"):
        M.forward(params, [1, 2], SHAPE, training, past=[])
    # A cached block holds one (K, V) pair per layer for _BLOCK positions,
    # each its own (N, _BLOCK, Dh) array; positions of an unfinished block
    # are not kept.
    past = []
    M.forward(params, [1] * (2 * B + 1), SHAPE, past=past)
    M.forward(params, [2] * (B - 1), SHAPE, past=past)
    assert len(past) == 2
    for block in past:
        assert len(block) == SHAPE.layers
        for k, v in block:
            assert k.shape == v.shape == (SHAPE.heads, B, SHAPE.head_dim)
            assert k.base is None and v.base is None
    M.forward(params, [2] * B, SHAPE, past=past)
    assert len(past) == 3


def test_the_last_layer_runs_only_the_query_blocks_it_reads(monkeypatch):
    # With qk_layer_scaling each layer divides by its number, so the scale
    # tells the layers apart.
    shape = ModelShape(2, 2, 8, 4, 32, 16)
    lm = M.LanguageModel(shape, M.init_params(shape, 1), qk_layer_scaling=True)
    tokens = np.random.default_rng(7).integers(0, shape.vocab, 5 * B).tolist()
    scales = []
    real = M._block_softmax
    monkeypatch.setattr(M, "_block_softmax", lambda *a: scales.append(a[4]) or real(*a))
    lm.logits(tokens, len(tokens) - 1)
    assert scales == [1.0] * 5 + [2.0]


def test_span_nll_is_the_whole_span_formula_bit_for_bit():
    # Blockwise scoring against the formula it replaced: the scored columns
    # of the logits gathered as rows at once, one target_nll, one sum.
    shape = ModelShape(2, 4, 64, 16, 256, 512)
    params = M.init_params(shape, 2)
    tokens = np.random.default_rng(9).integers(0, shape.vocab, 4 * B + 3).tolist()
    spans = (
        range(1, len(tokens)),  # every position
        range(B // 2, 2 * B + 9),  # starts mid-block, longer than a block
        [5, 6, 40, 41, 42, 77, 90, 100, 101, 102, 130],  # not contiguous
        [*range(3, 3 + B + 4, 2), len(tokens) - 1],  # more than a block, strided
        [len(tokens) - 1],
    )
    for scored in spans:
        scored = np.asarray(scored)
        start = scored.min() - 1
        logits = M.forward(params, tokens[:-1], shape)[:, start:]
        want = float(M.target_nll(logits.T[scored - 1 - start], np.asarray(tokens)[scored]).sum())
        assert M.span_nll(M.LanguageModel(shape, params), tokens, scored) == want


def test_span_nll_at_the_paper_vocab_holds_at_most_one_head_output():
    # L2 N4 Dh16, V 2**17, T 256. Scoring every position holds the head's
    # (T, V) output and a few blocks of 32 rows; scoring the last 3 runs
    # the head on one block only.
    shape = ModelShape(2, 4, 64, 16, 256, 2**17)
    params = M.init_params(shape, 1)
    tokens = np.random.default_rng(3).integers(0, shape.vocab, 256).tolist()
    head, block = 256 * shape.vocab * 8, B * shape.vocab * 8
    for scored, bound in ((range(1, 256), head + 4 * block + (16 << 20)),
                          (range(253, 256), 2 * block)):
        lm = M.LanguageModel(shape, params)
        tracemalloc.start()
        try:
            lm.span_nll(tokens, list(scored))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (len(scored), peak / 2**20)
