import math

import pytest

from finforge import vocabselect as V
from finforge import tokenizer as T


def base_vocab(corpus):
    return T.merge_vocabs([T.train_chunk_unigram(doc, 400) for doc in corpus])


CORPUS = [b"the quick brown fox jumps over the lazy dog " * 20,
          b"pack my box with five dozen liquor jugs " * 20]
BASE = base_vocab(CORPUS)


def test_encoded_bits_formula():
    model = T.finalize_to_size(BASE, 300)
    n_tok = V.encoded_token_count(model, CORPUS)
    assert V.sweep(BASE, CORPUS, [300])[0].encoded_bits == pytest.approx(
        n_tok * math.log2(model.vocab_size), rel=1e-12
    )


def test_tokenizer_at_size_exact_vocab_size():
    for size in (257, 300, 400):
        assert T.finalize_to_size(BASE, size).vocab_size == size


def test_tokenizer_at_size_too_small_raises():
    with pytest.raises(ValueError):
        T.finalize_to_size(BASE, 256)  # no room for <|endoftext|>
    with pytest.raises(ValueError):
        V.sweep(BASE, CORPUS, [256])


def test_sweep_matches_independent_recount():
    candidates = [280, 320, 360]
    swept = V.sweep(BASE, CORPUS, candidates)
    assert [c.size for c in swept] == candidates
    for cand in swept:
        model = T.finalize_to_size(BASE, cand.size)
        n_tok = sum(len(T.encode(model, doc)) for doc in CORPUS)
        assert cand.encoded_tokens == n_tok
        assert cand.encoded_bits == pytest.approx(n_tok * math.log2(cand.size), rel=1e-12)


def test_sweep_requires_sorted_candidates():
    with pytest.raises(ValueError):
        V.sweep(BASE, CORPUS, [320, 280])
    with pytest.raises(ValueError):
        V.sweep(BASE, CORPUS, [])


def test_select_is_argmin_of_sweep():
    candidates = [270, 300, 330, 360, 400]
    swept = V.sweep(BASE, CORPUS, candidates)
    oracle = min(swept, key=lambda c: (c.encoded_bits, c.size))
    chosen = V.best_size(swept)
    assert chosen == oracle.size
    assert V.round_up_pow2(chosen) == 2 ** math.ceil(math.log2(chosen))


def test_bits_tradeoff_larger_vocab_fewer_tokens():
    # larger vocabularies never need more tokens for the same corpus
    sizes = [280, 340, 400]
    counts = [V.sweep(BASE, CORPUS, [s])[0].encoded_tokens for s in sizes]
    assert counts[0] >= counts[1] >= counts[2]


def test_crossover_small_vocab_wins_when_merges_do_not_help():
    # corpus of unique random-ish bytes: multi-byte tokens never apply, so
    # every candidate size yields the same token count and the bit cost is
    # strictly increasing in log2(size) -> the smallest candidate must win
    import random

    rng = random.Random(3)
    corpus = [bytes(rng.randrange(256) for _ in range(200))]
    base = base_vocab([b"english text only here " * 30])
    swept = V.sweep(base, corpus, [300, 350, 400])
    chosen = V.best_size(swept)
    if swept[0].encoded_tokens == swept[2].encoded_tokens:
        assert chosen == 300


def test_round_up_pow2():
    assert V.round_up_pow2(1) == 1
    assert V.round_up_pow2(2) == 2
    assert V.round_up_pow2(3) == 4
    assert V.round_up_pow2(1024) == 1024
    assert V.round_up_pow2(1025) == 2048
    assert V.round_up_pow2(100_000) == 131072
    with pytest.raises(ValueError):
        V.round_up_pow2(0)


def test_round_up_pow2_properties():
    for n in range(1, 5000):
        p = V.round_up_pow2(n)
        assert p >= n and p & (p - 1) == 0 and p < 2 * n or (n == 1 and p == 1)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="corpus is empty"):
        V.sweep(BASE, [], [300])
    with pytest.raises(ValueError, match="corpus is empty"):
        V.sweep(BASE, [b""], [300])
