import itertools
import math
import sys

import numpy as np
import pytest

from finforge import evalharness as E
from finforge import model as M
from finforge import tokenizer as T
from finforge.scaling import ModelShape

SHAPE = ModelShape(1, 2, 8, 4, 32, 8)


def make_lm(seed=0):
    return M.LanguageModel(SHAPE, M.init_params(SHAPE, seed))


class StubLM:
    """Duck-typed language model with a fixed logits function."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def logits(self, tokens, start=0):
        self.calls.append(list(tokens))
        return self.fn(list(tokens))[:, start:]

    span_nll = M.span_nll  # scored as a LanguageModel scores, with no memo


def uniform_stub(vocab):
    return StubLM(lambda toks: np.zeros((vocab, len(toks))))


def byte_tokenizer(data=b"ab"):
    # minimal finalized tokenizer over real corpus bytes
    probs = {bytes([b]): 1.0 for b in set(data)}
    total = sum(probs.values())
    vocab = T.UnigramVocab({t: p / total for t, p in probs.items()}, 1.0)
    return T.finalize(vocab)


# ---------------------------------------------------------------------------
# Sequence log-probability


def test_sequence_logprob_chain_rule_additivity():
    lm = make_lm(1)
    ctx, cont = [1, 2], [3, 4, 5]
    whole = E.sequence_logprob(lm, ctx, cont)
    split = E.sequence_logprob(lm, ctx, cont[:1]) + E.sequence_logprob(
        lm, ctx + cont[:1], cont[1:]
    )
    assert whole == pytest.approx(split, abs=1e-10)


def test_sequence_logprob_enumeration_oracle():
    # over all continuations of length 3, probabilities must sum to 1,
    # and each must equal the product of per-step conditionals
    lm = make_lm(2)
    ctx = [1]
    total = 0.0
    for cont in itertools.product(range(SHAPE.vocab), repeat=2):
        lp = E.sequence_logprob(lm, ctx, list(cont))
        # independent per-step recomputation from raw logits
        manual = 0.0
        toks = list(ctx)
        for t in cont:
            logits = lm.logits(toks)[:, -1]
            manual += float(logits[t] - (np.log(np.sum(np.exp(logits - logits.max()))) + logits.max()))
            toks.append(t)
        assert lp == pytest.approx(manual, abs=1e-10)
        total += math.exp(lp)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_sequence_logprob_requires_continuation_and_context():
    lm = make_lm()
    with pytest.raises(ValueError):
        E.sequence_logprob(lm, [1], [])
    with pytest.raises(ValueError):
        E.sequence_logprob(lm, [], [1])  # position 0 has no conditioning context


def test_uniform_model_logprob_is_count_times_log_vocab():
    lm = uniform_stub(10)
    lp = E.sequence_logprob(lm, [0], [1, 2, 3])
    assert lp == pytest.approx(-3 * math.log(10), rel=1e-12)


# ---------------------------------------------------------------------------
# Sliding window


def expected_window_schedule(n, first_scored, window, stride):
    """Independent enumeration of (window_slice, scored_positions)."""
    if n <= window:
        return [((0, n), list(range(first_scored, n)))]
    out = [((0, window), list(range(first_scored, window)))]
    scored_to = window
    while scored_to < n:
        end = min(scored_to + stride, n)
        out.append(((end - window, end), list(range(scored_to, end))))
        scored_to = end
    return out


def test_window_schedule_3000_tokens():
    # window 8, stride 4 over 3000 tokens: verify via the stub's call log
    lm = uniform_stub(6)
    tokens = [int(x) for x in np.arange(3000) % 6]
    nll = E._windowed_nll(lm, tokens, first_scored=1, window=8, stride=4)
    # every token after position 0 scored exactly once at uniform cost
    assert nll == pytest.approx(2999 * math.log(6), rel=1e-12)
    sched = expected_window_schedule(3000, 1, 8, 4)
    assert len(lm.calls) == len(sched)
    for call, ((s, e), scored) in zip(lm.calls, sched):
        assert call == tokens[s : e - 1] + [tokens[e - 1]][:0] or call == tokens[s : e][:-1]
        # context guarantee: scored positions keep >= window - stride context
        for pos in scored:
            assert pos - s >= (8 - 4) or (s == 0)


def test_window_context_guarantee_general():
    lm = uniform_stub(4)
    tokens = list(np.arange(37) % 4)
    E._windowed_nll(lm, tokens, first_scored=1, window=8, stride=3)
    sched = expected_window_schedule(37, 1, 8, 3)
    # all scored positions covered exactly once
    scored = [p for _, ps in sched for p in ps]
    assert scored == list(range(1, 37))
    for (s, e), ps in sched[1:]:
        assert min(ps) - s >= 8 - 3


def test_windowed_equals_direct_when_short():
    lm = make_lm(3)
    tokens = [1, 2, 3, 4, 5]
    direct = lm.span_nll(tokens, [1, 2, 3, 4])
    assert E._windowed_nll(lm, tokens, 1, window=2048, stride=1024) == pytest.approx(
        direct, rel=1e-12
    )


def test_windowed_matches_full_context_for_alibi_free_positions():
    # with window >= n the result must equal conditioning on everything
    lm = make_lm(4)
    tokens = [int(x) for x in np.arange(30) % SHAPE.vocab]
    full = E._windowed_nll(lm, tokens, 1, window=64, stride=32)
    manual = lm.span_nll(tokens, list(range(1, 30)))
    assert full == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("window, stride", [(8, 0), (4, 8), (8, 8), (1, 1)])
def test_windowed_needs_stride_from_1_to_below_window(window, stride):
    # stride 0 never advances; stride >= window would score a window's
    # position 0 from the logits of its last column
    with pytest.raises(ValueError, match="stride < window"):
        E._windowed_nll(uniform_stub(4), [1, 2, 3] * 10, 1, window=window, stride=stride)


def test_span_nll_rejects_position_0():
    with pytest.raises(ValueError, match="position 0"):
        M.span_nll(uniform_stub(4), [1, 2, 3], [0, 1])


def test_span_nll_rejects_a_position_or_a_token_out_of_range():
    lm = M.LanguageModel(SHAPE, M.init_params(SHAPE, 0))
    with pytest.raises(ValueError, match=r"scored position 3 out of range \[1, 3\)"):
        lm.span_nll([1, 2, 3], [1, 3])
    # a scored token that is no id: it was read as id V-1
    with pytest.raises(ValueError, match=rf"target id -1 out of range \[0, {SHAPE.vocab}\)"):
        lm.span_nll([1, 2, -1], [2])


# ---------------------------------------------------------------------------
# Span-score memo


def random_spans(rng, n, vocab=SHAPE.vocab):
    """``n`` (tokens, scored) pairs of 2 to 80 tokens, crossing the K/V
    cache's 32-token blocks, each scoring a random set of positions >= 1."""
    spans = []
    for _ in range(n):
        tokens = rng.integers(0, vocab, size=int(rng.integers(2, 81))).tolist()
        scored = rng.choice(np.arange(1, len(tokens)), int(rng.integers(1, len(tokens))), False)
        spans.append((tokens, sorted(scored.tolist())))
    return spans


def counting(lm):
    """``lm`` with its ``logits`` calls counted in ``lm.calls``."""
    lm.calls = 0
    logits = lm.logits

    def counted(*args):
        lm.calls += 1
        return logits(*args)

    lm.logits = counted
    return lm


def memo_bytes(lm):
    return sum(sum(map(sys.getsizeof, (*key, nll))) for key, nll in lm._scores.items())


def test_span_memo_returns_the_miss_path_bits():
    params = M.init_params(SHAPE, 4)
    spans = random_spans(np.random.default_rng(5), 40)
    spans += [(t, s[-1:]) for t, s in spans[:8] if len(s) > 1]  # the same tokens
    spans += spans[:5]  # scored again within the first pass
    distinct = len({(tuple(t), tuple(s)) for t, s in spans})
    want = [M.span_nll(M.LanguageModel(SHAPE, params), t, s) for t, s in spans]
    lm = counting(M.LanguageModel(SHAPE, params))
    assert [lm.span_nll(t, s) for t, s in spans] == want
    assert lm.calls == distinct
    assert [lm.span_nll(t, s) for t, s in spans] == want
    assert lm.calls == distinct  # every span was held
    assert lm._scores.nbytes == memo_bytes(lm) <= M._SCORE_BYTES


def test_span_memo_is_never_shared_between_models():
    spans = random_spans(np.random.default_rng(8), 10)
    a, b = (M.LanguageModel(SHAPE, M.init_params(SHAPE, seed)) for seed in (1, 2))
    for lm, seed in ((a, 1), (b, 2), (a, 1)):
        fresh = M.LanguageModel(SHAPE, M.init_params(SHAPE, seed))
        assert [lm.span_nll(t, s) for t, s in spans] == [fresh.span_nll(t, s) for t, s in spans]
    assert all(a.span_nll(t, s) != b.span_nll(t, s) for t, s in spans)


# ---------------------------------------------------------------------------
# Bits per byte


def test_bits_per_byte_unit_conversion():
    # 4-byte doc -> 4 single-byte tokens under uniform p=1/4 per token:
    # NLL = 4 * ln 4 nats = 8 bits over 4 bytes = 2 bits/byte
    tok = byte_tokenizer(b"ab")
    lm = uniform_stub(4)
    assert E.bits_per_byte(lm, [b"abab"], tok) == pytest.approx(2.0, rel=1e-12)


def test_bits_per_byte_weights_documents_by_bytes():
    tok = byte_tokenizer(b"ab")
    lm = uniform_stub(4)
    one = E.bits_per_byte(lm, [b"abab", b"aa"], tok)
    # (4+2) tokens * 2 bits over 6 bytes
    assert one == pytest.approx(2.0, rel=1e-12)
    # an empty document adds no bytes and never reaches the model
    lm.calls.clear()
    assert E.bits_per_byte(lm, [b"abab", b"", b"aa"], tok) == one
    assert len(lm.calls) == 2 and all(lm.calls)


def test_bits_per_byte_documents_scored_independently():
    tok = byte_tokenizer(b"ab")
    lm = uniform_stub(4)
    lm2 = uniform_stub(4)
    E.bits_per_byte(lm, [b"ab", b"ba"], tok, window=3, stride=1)
    # each call starts with the separator token (id 0) as sole context
    assert all(call[0] == tok.eot_id for call in lm.calls)
    E.bits_per_byte(lm2, [b"abba"], tok, window=3, stride=1)
    assert len(lm.calls[0]) <= 2  # windows never span documents


def test_bits_per_byte_rejects_empty():
    tok = byte_tokenizer()
    with pytest.raises(ValueError):
        E.bits_per_byte(uniform_stub(4), [], tok)
    with pytest.raises(ValueError):
        E.bits_per_byte(uniform_stub(4), [b""], tok)


# ---------------------------------------------------------------------------
# Classification


def test_classify_methods_worked_example(monkeypatch):
    # hand-built log-probabilities: regular and calibration disagree
    table = {
        (b"ctx", b" good"): math.log(0.4),
        (b"ctx", b" bad"): math.log(0.5),
        (b"Answer:", b" good"): math.log(0.1),
        (b"Answer:", b" bad"): math.log(0.45),
    }
    monkeypatch.setattr(
        E, "candidate_logprob", lambda lm, tok, c, cand, **kw: table[(c, cand)]
    )
    tok = byte_tokenizer(b" goodbad")
    task = E.ClassificationTask(context=b"ctx", candidates=(b" good", b" bad"))
    assert E.classify(None, tok, task, "regular") == b" bad"
    # calibration: 0.4/0.1 = 4 beats 0.5/0.45 = 1.11
    assert E.classify(None, tok, task, "calibration") == b" good"


def test_classify_normalization_divides_by_token_count(monkeypatch):
    table = {(b"c", b"xy"): math.log(0.3), (b"c", b"x"): math.log(0.2)}
    monkeypatch.setattr(
        E, "candidate_logprob", lambda lm, tok, c, cand, **kw: table[(c, cand)]
    )
    tok = byte_tokenizer(b"xy")  # single-byte tokens: len("xy") = 2 tokens
    task = E.ClassificationTask(context=b"c", candidates=(b"xy", b"x"))
    # 0.3/2 = 0.15 < 0.2/1 -> "x" wins despite lower raw probability
    assert E.classify(None, tok, task, "normalization") == b"x"


def test_classify_normalization_survives_tiny_probabilities(monkeypatch):
    # exp(-800) underflows to 0.0: compared as probabilities, both candidates
    # would tie and the first would win; per token, "xy" is more likely
    table = {(b"c", b"x"): -801.0, (b"c", b"xy"): -800.0}
    monkeypatch.setattr(
        E, "candidate_logprob", lambda lm, tok, c, cand, **kw: table[(c, cand)]
    )
    tok = byte_tokenizer(b"xy")
    task = E.ClassificationTask(context=b"c", candidates=(b"x", b"xy"))
    assert E.classify(None, tok, task, "normalization") == b"xy"


def test_classify_tie_goes_to_first_candidate(monkeypatch):
    monkeypatch.setattr(E, "candidate_logprob", lambda *a, **k: math.log(0.5))
    tok = byte_tokenizer(b"ab")
    task = E.ClassificationTask(context=b"c", candidates=(b"b", b"a"))
    assert E.classify(None, tok, task, "regular") == b"b"


def test_classify_real_model_matches_direct_formulas():
    tok = byte_tokenizer(b"abc")
    shape = ModelShape(1, 2, 8, 4, 32, tok.vocab_size)
    lm = M.LanguageModel(shape, M.init_params(shape, 5))
    task = E.ClassificationTask(context=b"ab", candidates=(b"a", b"bc", b"c"))
    lps = [E.candidate_logprob(lm, tok, b"ab", c) for c in task.candidates]
    cal = [
        lp - E.candidate_logprob(lm, tok, E.CALIBRATION_CONTEXT, c)
        for lp, c in zip(lps, task.candidates)
    ]
    norm = [math.exp(lp) / len(T.encode(tok, c)) for lp, c in zip(lps, task.candidates)]
    assert E.classify(lm, tok, task, "regular") == task.candidates[int(np.argmax(lps))]
    assert E.classify(lm, tok, task, "calibration") == task.candidates[int(np.argmax(cal))]
    assert E.classify(lm, tok, task, "normalization") == task.candidates[int(np.argmax(norm))]


def test_classify_argmax_invariant_under_monotone_shift(monkeypatch):
    base = {(b"c", b"a"): -1.0, (b"c", b"b"): -2.0}
    for shift in (0.0, 5.0):
        monkeypatch.setattr(
            E, "candidate_logprob", lambda lm, tok, c, cand, s=shift, **kw: base[(c, cand)] + s
        )
        tok = byte_tokenizer(b"ab")
        task = E.ClassificationTask(context=b"c", candidates=(b"a", b"b"))
        assert E.classify(None, tok, task, "regular") == b"a"


def test_classify_rejects_unknown_method():
    tok = byte_tokenizer(b"ab")
    task = E.ClassificationTask(context=b"c", candidates=(b"a",))
    with pytest.raises(ValueError):
        E.classify(make_lm(), tok, task, "bogus")


def test_classification_task_validation():
    with pytest.raises(ValueError):
        E.ClassificationTask(context=b"c", candidates=())
    with pytest.raises(ValueError):
        E.ClassificationTask(context=b"c", candidates=(b"a", b"a"))


# ---------------------------------------------------------------------------
# Few-shot prompts


def test_assemble_prompt_structure_and_determinism():
    pool = [(b"Q1?", b" A1"), (b"Q2?", b" A2"), (b"Q3?", b" A3")]
    p1 = E.assemble_prompt(b"Q4?", pool, k_shots=2, shot_seed=7, example_index=0)
    p2 = E.assemble_prompt(b"Q4?", pool, k_shots=2, shot_seed=7, example_index=0)
    assert p1 == p2
    assert p1.endswith(b"\n\nQ4?")
    shots = p1[: -len(b"\n\nQ4?")].split(b"\n\n")
    assert len(shots) == 2 and len(set(shots)) == 2  # without replacement
    assert all(s in {q + a for q, a in pool} for s in shots)


def test_assemble_prompt_varies_per_example_and_seed():
    pool = [(bytes([65 + i]), b"!") for i in range(10)]
    a = E.assemble_prompt(b"x", pool, 5, shot_seed=1, example_index=0)
    b = E.assemble_prompt(b"x", pool, 5, shot_seed=1, example_index=1)
    c = E.assemble_prompt(b"x", pool, 5, shot_seed=2, example_index=0)
    assert a != b and a != c


def test_assemble_prompt_zero_shot_and_overdraw():
    pool = [(b"Q", b"A")]
    assert E.assemble_prompt(b"ctx", pool, 0, 0, 0) == b"ctx"
    with pytest.raises(ValueError):
        E.assemble_prompt(b"ctx", pool, 2, 0, 0)


# ---------------------------------------------------------------------------
# Greedy decoding


def test_greedy_decode_deterministic_argmax():
    # stub: always predict token 3, except after seeing three 3s predict 0
    def fn(toks):
        out = np.full((5, len(toks)), -1.0)
        nxt = 0 if toks.count(3) >= 3 else 3
        out[nxt, -1] = 1.0
        return out

    lm = StubLM(fn)
    assert E.greedy_decode(lm, [1], max_new_tokens=10) == [3, 3, 3]


def test_greedy_decode_respects_budget_and_stop_set():
    lm = StubLM(lambda toks: np.eye(4)[:, :1].repeat(len(toks), 1) * 0 + np.array([[0.0], [5.0], [1.0], [0.0]]).repeat(len(toks), 1))
    assert E.greedy_decode(lm, [0], max_new_tokens=4) == [1, 1, 1, 1]
    assert E.greedy_decode(lm, [0], max_new_tokens=4, eot_id=1) == []
    with pytest.raises(ValueError):
        E.greedy_decode(lm, [0], max_new_tokens=0)


def test_greedy_decode_tie_goes_to_lowest_id():
    lm = uniform_stub(6)
    out = E.greedy_decode(lm, [2], max_new_tokens=3, eot_id=5)
    assert out == [0, 0, 0]


# ---------------------------------------------------------------------------
# Metrics


def default_normalizer(s: bytes) -> bytes:
    return s.strip().lower()


def exact_match(pred: bytes, gold: bytes, normalizer=default_normalizer) -> int:
    return int(normalizer(pred) == normalizer(gold))


def test_exact_match_normalization():
    assert exact_match(b"  Paris \n", b"paris") == 1
    assert exact_match(b"Paris", b"London") == 0
    assert exact_match(b"A", b"a", normalizer=lambda s: s) == 0


def test_weighted_f1_hand_confusion_matrix():
    golds = ["a", "a", "a", "b", "b", "c"]
    preds = ["a", "a", "b", "b", "b", "a"]
    # label a: tp=2 fp=1 fn=1 -> p=2/3 r=2/3 f1=2/3, support 3
    # label b: tp=2 fp=1 fn=0 -> p=2/3 r=1   f1=0.8, support 2
    # label c: tp=0           -> f1=0,        support 1
    expected = (2 / 3) * (3 / 6) + 0.8 * (2 / 6) + 0.0 * (1 / 6)
    assert E.weighted_f1(preds, golds, ["a", "b", "c"]) == pytest.approx(expected, rel=1e-12)


def test_weighted_f1_perfect_and_validation():
    assert E.weighted_f1(["x", "y"], ["x", "y"], ["x", "y"]) == 1.0
    with pytest.raises(ValueError):
        E.weighted_f1([], [], ["x"])
    with pytest.raises(ValueError):
        E.weighted_f1(["x"], ["x", "y"], ["x"])


def win_rate(scores: dict[str, dict[str, float]]) -> dict[str, float]:
    """Fraction of pairwise wins per model over all (task, rival) cells where
    both scores exist; ties count one half."""
    models = sorted(scores)
    if len(models) < 2:
        raise ValueError("need at least two models")
    tasks = sorted({t for m in models for t in scores[m]})
    if not tasks:
        raise ValueError("need at least one task")
    wins = {m: 0.0 for m in models}
    comps = {m: 0 for m in models}
    for task in tasks:
        for i, a in enumerate(models):
            for b in models[i + 1 :]:
                sa, sb = scores[a].get(task), scores[b].get(task)
                if sa is None or sb is None:
                    continue
                comps[a] += 1
                comps[b] += 1
                if sa > sb:
                    wins[a] += 1.0
                elif sb > sa:
                    wins[b] += 1.0
                else:
                    wins[a] += 0.5
                    wins[b] += 0.5
    return {m: (wins[m] / comps[m] if comps[m] else float("nan")) for m in models}


def test_win_rate_pairwise():
    scores = {
        "m1": {"t1": 0.9, "t2": 0.5},
        "m2": {"t1": 0.1, "t2": 0.5},
    }
    wr = win_rate(scores)
    assert wr["m1"] == pytest.approx(0.75)  # win + tie-half over 2 comparisons
    assert wr["m2"] == pytest.approx(0.25)


def test_win_rate_missing_cells_excluded():
    scores = {
        "m1": {"t1": 1.0, "t2": 0.0},
        "m2": {"t1": 0.0},
        "m3": {"t1": 0.5, "t2": 1.0},
    }
    wr = win_rate(scores)
    # m2 compared only on t1: loses to m1, wins vs m3's 0.5? no: 0.0 < 0.5
    assert wr["m2"] == 0.0
    assert wr["m1"] == pytest.approx(2 / 3)  # beats m2, beats m3 on t1, loses t2
    with pytest.raises(ValueError):
        win_rate({"only": {"t": 1.0}})


# ---------------------------------------------------------------------------
# Task files


def test_load_tasks_ndjson(tmp_path):
    p = tmp_path / "tasks.ndjson"
    p.write_text(
        '{"context": "2+2=", "candidates": ["4", "5"], "gold": "4"}\n'
        "\n"
        '{"context": "cap of fr?", "gold": "paris"}\n'
    )
    recs = E.load_tasks(str(p))
    assert len(recs) == 2
    assert recs[0]["candidates"] == ["4", "5"]


def test_load_tasks_malformed(tmp_path):
    p = tmp_path / "bad.ndjson"
    p.write_text('{"candidates": ["a"]}\n')
    with pytest.raises(ValueError):
        E.load_tasks(str(p))
    p.write_text("not json\n")
    with pytest.raises(ValueError):
        E.load_tasks(str(p))
