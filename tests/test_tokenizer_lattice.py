"""The lattice E-step and its log-sum-exp, the filtered lattices, the shared
prune scores, the prefix-bounded Viterbi scan and the per-model encode memo
of `finforge.tokenizer` against the per-word reference
(`reference_tokenizer.py`), bit for bit; the byte bound of `BoundedMemo`, for
the encode memo and the language model's span memo; EM convergence within a
prune round; and byte-identical training whatever the hash seed."""

import math
import os
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finforge
import reference_tokenizer as R
import test_eval as EV
from finforge import model as M
from finforge import tokenizer as T
from test_cli import CORPUS_TEXT


def _text(alphabet, max_size):
    return st.lists(st.sampled_from(alphabet), min_size=1, max_size=max_size).map(bytes)


# Tokens are drawn independently, so a vocabulary often holds a token without
# its shorter prefixes ("aab" without "aa"). Short tokens over two letters
# recur within a word, so their expected counts sum many terms; longer ones
# reach MAX_TOKEN_LEN, and words run past it. The few distinct probabilities
# make equal-scoring segmentations common.
TOKENS = st.one_of(_text(b"ab", 4), _text(b"abc", T.MAX_TOKEN_LEN))
PROBS = st.dictionaries(
    TOKENS, st.sampled_from((0.05, 0.1, 0.2, 0.4)), min_size=1, max_size=30
)
WORDS = st.dictionaries(
    st.one_of(_text(b"ab", 10), _text(b"abc", 2 * T.MAX_TOKEN_LEN)), st.integers(1, 5),
    min_size=1, max_size=6,
)


def _logp(probs):
    return {t: math.log(p) for t, p in probs.items()}


def finance_text(seed, nbytes):
    """Seeded text with all three pretoken classes and repeated words."""
    rng = random.Random(seed)
    words = ["the", "bond", "yield", "rose", "fell", "shares", "bank", "rate", "cut",
             "EPS", "guidance", "quarter", "margin", "net", "income", "of", "on"]
    out = []
    while sum(map(len, out)) < nbytes:
        r = rng.random()
        if r < 0.7:
            out.append(" " + rng.choice(words))
        elif r < 0.9:
            out.append(" " + str(rng.randint(0, 999)))
        else:
            out.append(rng.choice([".", ",", " $", "%", " --", " (Q3)"]))
    return "".join(out).encode()


# ---------------------------------------------------------------------------
# Lattice E-step


@given(words=WORDS, probs=PROBS, drop=st.sets(st.integers(0, 29), max_size=10))
@example(
    words={b"abcab": 2, b"cabc": 1, b"bbb": 1},
    probs={b"abc": 0.2, b"a": 0.1, b"b": 0.1, b"c": 0.1, b"cab": 0.2, b"bc": 0.1},
    drop={2},  # b"b" leaves logp: b"bbb" becomes unsegmentable
)
@example(
    words={b"baababab": 3, b"aabbbb": 1},
    probs={b"a": 0.1, b"b": 0.4, b"aa": 0.05, b"aaa": 0.05, b"abb": 0.1},
    drop=set(),
)
@settings(max_examples=200, deadline=None)
def test_lattice_e_step_matches_reference(words, probs, drop):
    counts = Counter(words)
    prefixes = T._prefixes(probs)
    lattices = []
    for w, f in counts.items():
        edges = T._lattice(w, probs, prefixes)
        assert edges == [
            (i, j, w[i:j])
            for i in range(len(w))
            for j in range(i + 1, min(i + T.MAX_TOKEN_LEN, len(w)) + 1)
            if w[i:j] in probs
        ]
        lattices.append((f, len(w), edges))
    # EM drops tokens within a round: logp may be a strict subset of the
    # vocabulary the lattices were built from.
    logp = {t: lp for k, (t, lp) in enumerate(_logp(probs).items()) if k not in drop}
    got_counts, got_ll = T._expected_counts(lattices, logp)
    want_counts, want_ll = R._expected_counts(counts, logp)
    assert dict(got_counts) == dict(want_counts)
    assert got_ll == want_ll


_LSE_TERMS = st.one_of(
    st.floats(-800.0, 0.0), st.sampled_from((float("-inf"), -1.0, -745.0, 0.0))
)


@given(a=_LSE_TERMS, b=_LSE_TERMS)
@example(a=-2.5, b=-2.5)  # equal terms: m + log(2.0)
@example(a=float("-inf"), b=-3.0)
@example(a=-3.0, b=float("-inf"))
@example(a=float("-inf"), b=float("-inf"))
@example(a=-1.0, b=-40.0)  # exp(b - a) is below half an ulp of 1.0
@settings(max_examples=300, deadline=None)
def test_two_term_logsumexp_matches_reference(a, b):
    got = T._logsumexp([a, b])
    assert got == R._logsumexp([a, b])
    assert got == T._logsumexp([b, a])


# ---------------------------------------------------------------------------
# Lattices filtered after a prune


@given(words=WORDS, probs=PROBS, drop=st.sets(st.integers(0, 29), max_size=20))
@settings(max_examples=200, deadline=None)
def test_filtered_lattice_equals_fresh_lattice(words, probs, drop):
    lattices = [(f, len(w), T._lattice(w, probs, T._prefixes(probs))) for w, f in words.items()]
    kept = {t: p for k, (t, p) in enumerate(probs.items()) if k not in drop}
    want = [(f, len(w), T._lattice(w, kept, T._prefixes(kept))) for w, f in words.items()]
    assert T._filtered(lattices, kept) == want


def test_each_round_sees_the_lattices_of_its_vocabulary(monkeypatch):
    # The first E-step of a round gets the log-probabilities of the whole
    # vocabulary the round starts with; the filtered lattices it gets must be
    # the ones built from that vocabulary afresh.
    chunk = finance_text(5, 3000)
    firsts = []
    real = T._expected_counts

    def spy(lattices, logp):
        if not firsts or firsts[-1][0] is not lattices:
            firsts.append((lattices, dict(logp)))
        return real(lattices, logp)

    monkeypatch.setattr(T, "_expected_counts", spy)
    T.train_chunk_unigram(chunk, 80)
    counts = Counter(T.pretokenize(chunk))
    assert len(firsts) >= 5
    for lattices, logp in firsts:
        prefixes = T._prefixes(logp)
        assert lattices == [(f, len(w), T._lattice(w, logp, prefixes)) for w, f in counts.items()]


# ---------------------------------------------------------------------------
# Prune score


@given(probs=PROBS)
@example(probs={b"ab": 0.4, b"a": 0.2})  # b"ab" has no split: -inf
@settings(max_examples=200, deadline=None)
def test_split_logp_matches_viterbi_score(probs):
    logp = _logp(probs)
    for t in logp:
        alt = R._viterbi(t, logp, T.MAX_TOKEN_LEN, exclude=t)
        assert R._split_logp(t, logp) == (alt[1] if alt is not None else float("-inf"))


@given(probs=PROBS, drop=st.sets(st.integers(0, 29), max_size=10), order=st.randoms())
@example(  # b"cab" and b"ab" share the suffix b"b"; b"ab" is also a suffix of b"cab"
    probs={b"cab": 0.2, b"ab": 0.1, b"b": 0.4, b"c": 0.1, b"a": 0.05},
    drop=set(), order=random.Random(0),
)
@settings(max_examples=200, deadline=None)
def test_shared_split_scores_match_per_token_oracle(probs, drop, order):
    # Tokens left out of logp are gaps that the shared suffix results must
    # see; the candidates come in any order, as the suffix memo fills up.
    logp = {t: lp for k, (t, lp) in enumerate(_logp(probs).items()) if k not in drop}
    tokens = list(probs)
    order.shuffle(tokens)
    got = T._split_logps(tokens, logp)
    assert got == [R._split_logp(t, logp) for t in tokens]
    for t, score in zip(tokens, got):
        alt = R._viterbi(t, logp, T.MAX_TOKEN_LEN, exclude=t)
        assert score == (alt[1] if alt is not None else float("-inf"))


# ---------------------------------------------------------------------------
# Chunk training


CHUNKS = st.lists(
    st.sampled_from([b"ab", b"ba", b"abc ", b" the", b"1", b"2", b"!!", b"$", b"cab", b"\xe2\x82\xac"]),
    min_size=1, max_size=60,
).map(b"".join)


@given(chunk=CHUNKS, target=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_train_chunk_unigram_matches_reference(chunk, target):
    got = T.train_chunk_unigram(chunk, target)
    want = R.train_chunk_unigram(chunk, target)
    assert list(got.probs.items()) == list(want.probs.items())
    assert got.training_weight == want.training_weight


def test_train_chunk_unigram_matches_reference_over_many_rounds():
    chunk = finance_text(3, 1500)
    got = T.train_chunk_unigram(chunk, 60)
    want = R.train_chunk_unigram(chunk, 60)
    assert len(got.probs) == 60
    assert list(got.probs.items()) == list(want.probs.items())


def test_em_log_likelihood_does_not_decrease_within_a_round(monkeypatch):
    # Each prune round filters its lattices once; every E-step of the round
    # (the EM iterations and the scoring pass) receives that same list.
    calls = []
    real = T._expected_counts

    def spy(lattices, logp):
        exp_counts, total_ll = real(lattices, logp)
        calls.append((lattices, total_ll))
        return exp_counts, total_ll

    monkeypatch.setattr(T, "_expected_counts", spy)
    T.train_chunk_unigram(finance_text(5, 3000), 80)
    rounds = []
    for lattices, total_ll in calls:
        if rounds and rounds[-1][0] is lattices:
            rounds[-1][1].append(total_ll)
        else:
            rounds.append((lattices, [total_ll]))
    assert len(rounds) >= 5
    for _, lls in rounds:
        assert len(lls) >= T.EM_ITERS_PER_ROUND
        for before, after in zip(lls, lls[1:]):
            assert after >= before - 1e-9 * abs(before), lls


# ---------------------------------------------------------------------------
# Memoized encode


@pytest.fixture(scope="module")
def encode_model():
    return T.finalize(T.train_chunk_unigram(finance_text(9, 1200), 50))


@given(
    pieces=st.lists(
        st.sampled_from([b" the", b" bond", b"7", b"7", b"%", b".", b"\xe2\x82\xac", b"ab", b" "]),
        max_size=80,
    )
)
@example(pieces=[b" bond", b"7", b" bond", b"7", b" bond", b"7"])
@settings(max_examples=100, deadline=None)
def test_encode_matches_reference_on_repeated_pretokens(encode_model, pieces):
    data = b"".join(pieces)
    assert T.encode(encode_model, data) == R.encode(encode_model, data)


@st.composite
def _gapped_vocab(draw):
    """Log-probabilities where no token of two or more bytes is a proper
    prefix of another, so the scan must pass substrings that are prefixes
    of tokens but not tokens; with or without the single bytes."""
    probs = draw(PROBS)
    tokens = [
        t for t in probs
        if len(t) == 1 or not any(u != t and u.startswith(t) for u in probs)
    ]
    singles = [b"a", b"b", b"c"] if draw(st.booleans()) else []
    return {t: math.log(probs.get(t, 0.1)) for t in tokens + singles}


@given(logp=_gapped_vocab(), data=_text(b"abc", 40))
@example(logp={b"a": -1.0, b"abca": -0.5, b"abcb": -0.5}, data=b"abcabcb")
@example(logp={b"abc": -0.1}, data=b"abab")  # no segmentation
@settings(max_examples=300, deadline=None)
def test_prefix_bounded_viterbi_matches_reference(logp, data):
    got = T._viterbi(data, logp, T._prefixes(logp))
    assert got == R._viterbi(data, logp, T.MAX_TOKEN_LEN)


def _documents():
    return [finance_text(seed, 300 + 40 * (seed % 5)) for seed in range(20, 60)] + [CORPUS_TEXT]


def test_encode_with_a_warm_memo_matches_reference_per_document(encode_model, monkeypatch):
    model = T.finalize(T.train_chunk_unigram(finance_text(9, 1200), 50))
    docs = _documents()
    segmented = []
    real = T._viterbi
    monkeypatch.setattr(T, "_viterbi", lambda pt, *a: segmented.append(pt) or real(pt, *a))
    for doc in docs:
        assert T.encode(model, doc) == R.encode(model, doc)
    # one Viterbi per distinct pretoken of all the documents, and none when
    # they are encoded again
    distinct = {pt for doc in docs for pt in T.pretokenize(doc)}
    assert sorted(segmented) == sorted(distinct)
    for doc in docs:
        assert T.encode(model, doc) == R.encode(model, doc)
    assert len(segmented) == len(distinct)
    # the memo is the model's own
    assert T.encode(encode_model, docs[0]) == R.encode(encode_model, docs[0])
    assert len(model._memo) == len(distinct)


def _memo_size(memo):
    """``sys.getsizeof`` of each entry's key parts and value, summed."""
    return sum(
        sum(map(sys.getsizeof, key if isinstance(key, tuple) else (key,))) + sys.getsizeof(value)
        for key, value in memo.items()
    )


def _encode_memo(monkeypatch):
    """A tokenizer's memo at a 3000-byte bound, the documents to encode (the
    last one pretoken larger than the bound) and a call that encodes one."""
    monkeypatch.setattr(T, "_MEMO_BYTES", 3000)
    model = T.finalize(T.train_chunk_unigram(finance_text(9, 1200), 50))

    def call(doc):
        assert T.encode(model, doc) == R.encode(model, doc)

    oversized = b"x" * 5000
    return model._memo, 3000, _documents() + [oversized], oversized, call


def _span_memo(monkeypatch):
    """A language model's span memo at a 1200-byte bound, the spans to score
    (some repeated, one larger than the bound) and a call that scores one."""
    monkeypatch.setattr(M, "_SCORE_BYTES", 1200)
    params = M.init_params(EV.SHAPE, 6)
    rng = np.random.default_rng(7)
    spans = EV.random_spans(rng, 30)
    spans += [spans[i] for i in rng.integers(0, 30, 20)]
    oversized = ([1, 2, 3] * 60, list(range(1, 180)))
    spans.insert(10, oversized)
    lm = M.LanguageModel(EV.SHAPE, params)

    def call(span):
        assert lm.span_nll(*span) == M.span_nll(M.LanguageModel(EV.SHAPE, params), *span)

    return lm._scores, 1200, spans, oversized, call


@pytest.mark.parametrize("memo_case", [_encode_memo, _span_memo], ids=["encode", "span_nll"])
def test_bounded_memo_stays_within_its_byte_bound(monkeypatch, memo_case):
    # The one BoundedMemo contract, for both of its users: the byte count is
    # the getsizeof sum and within the bound, the memo is emptied when the
    # next entry would not fit, and an entry above the bound is not stored,
    # with nothing dropped for it.
    memo, bound, inputs, oversized, call = memo_case(monkeypatch)
    emptied = 0
    for x in inputs:
        before = dict(memo)
        call(x)
        assert memo.nbytes == _memo_size(memo) <= bound
        emptied += len(memo) < len(before)
        if x is oversized:
            assert memo == before
    assert emptied > 0


# ---------------------------------------------------------------------------
# Determinism across processes


def test_training_byte_identical_across_hash_seeds(tmp_path):
    # The prefix sets and the encode memo are hashed containers, whose
    # iteration order follows PYTHONHASHSEED; only a fresh process shows it.
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(CORPUS_TEXT)
    src = os.path.dirname(os.path.dirname(finforge.__file__))
    blobs = []
    for seed in ("0", "1"):
        out = tmp_path / f"tok{seed}.txt"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "finforge.cli", "train-tokenizer", "--corpus", str(corpus),
             "--chunk-vocab", "150", "--target-vocab", "350", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
