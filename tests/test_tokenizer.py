import math
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finforge import tokenizer as T


def validate(vocab, tol=1e-9):
    """A distribution: probabilities that sum to 1, each positive, over
    non-empty tokens."""
    total = math.fsum(vocab.probs.values())
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    for tok, p in vocab.probs.items():
        if not tok:
            raise ValueError("empty token in vocabulary")
        if p <= 0.0:
            raise ValueError(f"non-positive probability for {tok!r}")


# ---------------------------------------------------------------------------
# Pretokenization


REFERENCE_RE = re.compile(rb"[ A-Za-z]+|[0-9]|[^ A-Za-z0-9]+")
CLASS_RES = (rb"[ A-Za-z]+", rb"[0-9]", rb"[^ A-Za-z0-9]+")  # digits one at a time


def reference_pretokenize(data):
    return [m.group(0) for m in REFERENCE_RE.finditer(data)]


def test_pretokenize_empty():
    assert T.pretokenize(b"") == []


def test_pretokenize_worked_example():
    parts = T.pretokenize(b"Get me 25 apples!")
    assert parts == [b"Get me ", b"2", b"5", b" apples", b"!"]
    assert parts == reference_pretokenize(b"Get me 25 apples!")


def test_pretokenize_utf8_multibyte_is_one_other_chunk():
    euro = b"\xe2\x82\xac"
    assert T.pretokenize(euro) == [euro]


@given(st.binary(max_size=200))
def test_pretokenize_partitions_input(data):
    pts = T.pretokenize(data)
    assert b"".join(pts) == data
    assert pts == reference_pretokenize(data)
    for p in pts:
        assert sum(bool(re.fullmatch(c, p)) for c in CLASS_RES) == 1


# ---------------------------------------------------------------------------
# Chunk EM training


def brute_force_em(counts, probs, iters):
    """Independent EM oracle: exact forward-backward expected counts over
    all segmentations of each pretoken, starting from the given seed."""
    for _ in range(iters):
        exp = Counter()
        for word, freq in counts.items():
            m = len(word)
            alpha = [0.0] * (m + 1)
            alpha[0] = 1.0
            for j in range(1, m + 1):
                alpha[j] = sum(
                    alpha[i] * probs.get(word[i:j], 0.0) for i in range(j)
                )
            beta = [0.0] * (m + 1)
            beta[m] = 1.0
            for i in range(m - 1, -1, -1):
                beta[i] = sum(
                    probs.get(word[i:j], 0.0) * beta[j] for j in range(i + 1, m + 1)
                )
            z = alpha[m]
            if z == 0:
                continue
            for i in range(m):
                for j in range(i + 1, m + 1):
                    t = word[i:j]
                    if t in probs:
                        exp[t] += freq * alpha[i] * probs[t] * beta[j] / z
        new = {}
        for t in probs:
            if exp[t] > 0:
                new[t] = exp[t]
            elif len(t) == 1:
                new[t] = 1e-12
        total = math.fsum(new.values())
        probs = {t: p / total for t, p in new.items()}
    return probs


def test_em_matches_brute_force_without_pruning():
    chunk = b"abab" * 6
    counts = Counter({b"abab" * 6: 1})
    # replicate the seed rule: substrings with freq >= 2 plus all singles,
    # initialized proportional to frequency x length; then the same number
    # of EM passes the trainer runs when no pruning is needed
    sub = Counter()
    word = b"abab" * 6
    for i in range(len(word)):
        for j in range(i + 1, min(i + T.MAX_TOKEN_LEN, len(word)) + 1):
            sub[word[i:j]] += 1
    seed = {t: float(f * len(t)) for t, f in sub.items() if f >= 2 or len(t) == 1}
    total = math.fsum(seed.values())
    seed = {t: p / total for t, p in seed.items()}
    oracle = brute_force_em(counts, seed, iters=T.EM_ITERS_PER_ROUND)

    vocab = T.train_chunk_unigram(chunk, target_size=len(seed) + 10)
    validate(vocab)
    assert set(vocab.probs) == set(oracle)
    for t in oracle:
        assert vocab.probs[t] == pytest.approx(oracle[t], abs=1e-10)


def test_em_repeating_pair_corpus_learns_repeats():
    vocab = T.train_chunk_unigram(b"abababab" * 100, target_size=8)
    validate(vocab)
    assert len(vocab.probs) <= 8
    top = max(vocab.probs, key=lambda t: vocab.probs[t])
    assert set(top) <= {ord("a"), ord("b")} and len(top) >= 2
    assert top.startswith(b"ab") or top.startswith(b"ba")
    # multi-byte repeats carry the bulk of the mass
    multi = sum(p for t, p in vocab.probs.items() if len(t) > 1)
    assert multi > 0.5


def test_em_single_byte_corpus():
    vocab = T.train_chunk_unigram(b"a" * 400, target_size=4)
    validate(vocab)
    assert b"a" in vocab.probs
    assert all(set(t) == {ord("a")} for t in vocab.probs)


def test_em_saturation_returns_all_candidates_without_error():
    vocab = T.train_chunk_unigram(b"xy", target_size=10_000)
    validate(vocab)
    assert len(vocab.probs) <= 10_000


def test_em_records_training_weight_in_bytes():
    chunk = b"hello world " * 10
    assert T.train_chunk_unigram(chunk, 50).training_weight == len(chunk)


def test_em_empty_chunk_raises():
    with pytest.raises(ValueError, match="^chunk has no pretokens$"):
        T.train_chunk_unigram(b"", 300)


# ---------------------------------------------------------------------------
# Merge


def V(probs, w):
    return T.UnigramVocab(probs=dict(probs), training_weight=w)


def test_merge_identical_copies_is_identity():
    v = V({b"a": 0.5, b"b": 0.5}, 100)
    m = T.merge_vocabs([v, v])
    assert m.probs == pytest.approx({b"a": 0.5, b"b": 0.5})
    assert m.training_weight == 200


def test_merge_weighted_average():
    m = T.merge_vocabs([V({b"a": 0.5, b"b": 0.5}, 100), V({b"a": 1.0}, 100)])
    assert m.probs == pytest.approx({b"a": 0.75, b"b": 0.25})


def test_merge_unequal_weights():
    m = T.merge_vocabs([V({b"a": 1.0}, 300), V({b"b": 1.0}, 100)])
    assert m.probs == pytest.approx({b"a": 0.75, b"b": 0.25})


def test_merge_empty_list_raises():
    with pytest.raises(ValueError):
        T.merge_vocabs([])


@given(
    st.lists(
        st.tuples(
            st.dictionaries(
                st.binary(min_size=1, max_size=3),
                st.floats(0.01, 1.0),
                min_size=1,
                max_size=5,
            ),
            st.integers(1, 1000),
        ),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=50)
def test_merge_commutative_and_associative(raw):
    vocabs = [V(T._normalized(p), w) for p, w in raw]
    a, b, c = vocabs
    left = T.merge_vocabs([T.merge_vocabs([a, b]), c])
    right = T.merge_vocabs([a, T.merge_vocabs([b, c])])
    flat = T.merge_vocabs([a, b, c])
    swapped = T.merge_vocabs([c, b, a])
    for m in (left, right, swapped):
        assert set(m.probs) == set(flat.probs)
        for t in flat.probs:
            assert m.probs[t] == pytest.approx(flat.probs[t], abs=1e-12)
    validate(flat)


# ---------------------------------------------------------------------------
# Prune


def test_prune_drops_smallest_and_renormalizes():
    v = V({b"a": 0.5, b"b": 0.3, b"c": 0.2}, 1)
    p = T.prune_to_size(v, 2)
    assert p.probs == pytest.approx({b"a": 0.625, b"b": 0.375})


def test_prune_full_size_is_identity():
    v = V({b"a": 0.5, b"b": 0.5}, 1)
    assert T.prune_to_size(v, 2).probs == pytest.approx(v.probs)


def test_prune_tie_at_cut_resolved_by_byte_order():
    # all four tokens tied; the two lexicographically smallest survive,
    # independent of insertion order
    import itertools

    tokens = [b"d", b"b", b"c", b"a"]
    for perm in itertools.permutations(tokens):
        v = V({t: 0.25 for t in perm}, 1)
        p = T.prune_to_size(v, 2)
        assert sorted(p.probs) == [b"a", b"b"]


def test_prune_protected_tokens_survive():
    v = V({b"a": 0.5, b"b": 0.3, b"c": 0.2}, 1)
    p = T.prune_to_size(v, 2, protected={b"c"})
    assert b"c" in p.probs and len(p.probs) == 2


def test_prune_nonpositive_size_raises():
    with pytest.raises(ValueError):
        T.prune_to_size(V({b"a": 1.0}, 1), 0)


# ---------------------------------------------------------------------------
# Finalize / encode / decode


def make_model(probs):
    return T.finalize(V(T._normalized(probs), 1))


def test_finalize_adds_all_missing_bytes_and_eot():
    v = T.train_chunk_unigram(b"hello world", 30)
    model = T.finalize(v)
    present = {t for t in model.logp if len(t) == 1}
    assert len(present) == 256
    assert model.eot_id == 0 and model.id_to_token[0] == b""
    assert model.vocab_size == len(model.logp) + 1
    missing_before = 256 - sum(1 for t in v.probs if len(t) == 1)
    assert model.vocab_size == len(v.probs) + missing_before + 1


def test_finalize_every_byte_encodable():
    model = make_model({b"a": 1.0})
    for b in range(256):
        ids = T.encode(model, bytes([b]))
        assert T.decode(model, ids) == bytes([b])


def test_encode_prefers_high_probability_merge():
    model = make_model({b"ab": 0.6, b"a": 0.2, b"b": 0.2})
    ids = T.encode(model, b"ab")
    assert [model.id_to_token[i] for i in ids] == [b"ab"]


def test_tokenizer_model_needs_a_token_for_every_byte():
    logp = {bytes([b]): -6.0 for b in range(256)}
    T.TokenizerModel(logp)
    del logp[b"A"], logp[b"\x7f"]
    logp[b"AB"] = -1.0
    with pytest.raises(ValueError, match=r"^no single-byte token for 2 bytes, first 0x41$"):
        T.TokenizerModel(logp)


def test_encode_empty():
    model = make_model({b"a": 1.0})
    assert T.encode(model, b"") == []


def test_encode_uncovered_byte_falls_back_to_single_byte():
    model = make_model({b"ab": 0.9, b"a": 0.05, b"b": 0.05})
    ids = T.encode(model, b"\xff")
    assert [model.id_to_token[i] for i in ids] == [b"\xff"]


def test_decode_roundtrip_and_errors():
    model = make_model({b"ab": 0.5, b"a": 0.25, b"b": 0.25})
    assert T.decode(model, []) == b""
    ids = [model.token_to_id[b"a"], model.token_to_id[b"b"]]
    assert T.decode(model, ids) == b"ab"
    with pytest.raises(ValueError):
        T.decode(model, [model.vocab_size])
    assert T.decode(model, [0]) == b""  # separator decodes to empty


def test_decode_peaks_at_about_its_output():
    # One pass into one buffer: no list of the tokens' bytes, and no
    # per-item record of joining them, however many ids there are.
    model = make_model({b"ab": 0.5, b"a": 0.25, b"b": 0.25, b"bab": 0.1})
    ids = [(7 * i) % model.vocab_size for i in range(100_000)]
    expected = b"".join(model.id_to_token[i] for i in ids)
    tracemalloc.start()
    try:
        out = T.decode(model, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == expected and type(out) is bytes
    assert peak < 2 * len(out) + (64 << 10), (peak, len(out))
    with pytest.raises(ValueError, match=rf"token id -1 out of range \[0, {model.vocab_size}\)"):
        T.decode(model, [1, -1])


def brute_force_segment(data, logp):
    """Enumerate all 2^(n-1) segmentations; return the best total logp."""
    n = len(data)
    best = None
    for mask in range(1 << max(0, n - 1)):
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        toks = [data[cuts[k] : cuts[k + 1]] for k in range(len(cuts) - 1)]
        if any(t not in logp for t in toks):
            continue
        score = sum(logp[t] for t in toks)
        if best is None or score > best:
            best = score
    return best


def test_viterbi_matches_brute_force_on_fuzz_corpus():
    import random

    rng = random.Random(7)
    model = make_model(
        {b"ab": 0.2, b"ba": 0.1, b"abc": 0.15, b"bc": 0.1, b"aa": 0.05, b"a": 0.2, b"b": 0.1, b"c": 0.1}
    )
    for _ in range(200):
        n = rng.randint(1, 12)
        data = bytes(rng.choice(b"abc") for _ in range(n))
        seg = T._viterbi(data, model.logp, T._prefixes(model.logp))
        assert seg is not None
        assert seg[1] == pytest.approx(brute_force_segment(data, model.logp), abs=1e-12)
        assert b"".join(seg[0]) == data


def test_viterbi_tie_breaks_fewest_tokens_then_lexicographic():
    # p(ab)*p(c) == p(a)*p(bc) == p(abc): equal probability, prefer fewer
    # tokens, then the lexicographically smallest first token
    logp = {t: math.log(p) for t, p in
            {b"abc": 0.04, b"ab": 0.2, b"bc": 0.2, b"a": 0.2, b"c": 0.2, b"b": 0.2}.items()}
    seg = T._viterbi(b"abc", logp, T._prefixes(logp))
    assert seg[0] == [b"abc"]
    logp2 = {t: math.log(p) for t, p in
             {b"ab": 0.2, b"bc": 0.2, b"a": 0.2, b"c": 0.2, b"b": 0.2}.items()}
    seg2 = T._viterbi(b"abc", logp2, T._prefixes(logp2))
    assert seg2[0] == [b"a", b"bc"]  # same prob/count as ab+c; b"a" < b"ab"


@given(st.binary(max_size=300))
@settings(max_examples=200)
def test_roundtrip_random_bytes(data):
    model = _ROUNDTRIP_MODEL
    assert T.decode(model, T.encode(model, data)) == data


_ROUNDTRIP_MODEL = make_model({b"ab": 0.3, b"the": 0.2, b" t": 0.1, b"\xe2\x82": 0.05})


# ---------------------------------------------------------------------------
# Parallel training


def _synthetic_domains():
    return [
        [b"the cat sat on the mat " * 20, b"a dog ate my homework " * 20],
        [b"numbers 123 and 456 appear " * 20, b"special !!! ??? characters " * 20],
    ]


def test_train_parallel_degenerate_split_matches_single_chunk():
    chunk = b"to be or not to be " * 30
    flat = T.train_chunk_unigram(chunk, 200)
    singles = {t for t in flat.probs if len(t) == 1}
    keep = 400 - (256 - len(singles)) - 1
    expected = T.finalize(T.prune_to_size(flat, keep, protected=singles) if len(flat.probs) > keep else flat)
    got = T.train_parallel([[chunk]], chunk_vocab=200, final_vocab=400)
    assert got.id_to_token == expected.id_to_token
    for t in got.logp:
        assert got.logp[t] == pytest.approx(expected.logp[t], abs=1e-12)


def test_train_parallel_hierarchical_equals_flat_merge():
    domains = _synthetic_domains()
    chunk_vocab = 120
    trained = [T.train_chunk_unigram(c, chunk_vocab) for d in domains for c in d]
    flat = T.merge_vocabs(trained)
    hier = T.merge_vocabs(
        [T.merge_vocabs(trained[:2]), T.merge_vocabs(trained[2:])]
    )
    assert set(flat.probs) == set(hier.probs)
    for t in flat.probs:
        assert hier.probs[t] == pytest.approx(flat.probs[t], abs=1e-12)

    model = T.train_parallel(domains, chunk_vocab=chunk_vocab, final_vocab=500)
    singles = {t for t in flat.probs if len(t) == 1}
    keep = 500 - (256 - len(singles)) - 1
    expected = T.finalize(
        T.prune_to_size(flat, keep, protected=singles) if len(flat.probs) > keep else flat
    )
    assert model.id_to_token == expected.id_to_token
    for t in model.logp:
        assert model.logp[t] == pytest.approx(expected.logp[t], abs=1e-12)


def test_train_parallel_paper_partition_arithmetic():
    # configuration check only: 22 domains x 256 chunks = 5,632 jobs
    assert 22 * 256 == 5632


def test_train_parallel_empty_domain_raises():
    with pytest.raises(ValueError, match="^corpus partition has an empty domain$"):
        T.train_parallel([[]], 100, 400)


# ---------------------------------------------------------------------------
# Serialization


def test_tokenizer_file_roundtrip_byte_identical(tmp_path):
    model = T.train_parallel(_synthetic_domains(), chunk_vocab=100, final_vocab=400)
    p1 = tmp_path / "tok1.txt"
    p2 = tmp_path / "tok2.txt"
    T.save_tokenizer(model, str(p1))
    loaded = T.load_tokenizer(str(p1))
    T.save_tokenizer(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.id_to_token == model.id_to_token
    data = b"the cat 123 !?"
    assert T.encode(loaded, data) == T.encode(model, data)


def test_tokenizer_file_format_lines(tmp_path):
    model = make_model({b"a": 1.0})
    path = tmp_path / "tok.txt"
    T.save_tokenizer(model, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == f"unigram-tokenizer-v1 {model.vocab_size}"
    assert lines[1] == "special <|endoftext|> 0"
    first = lines[2].split("\t")
    assert first[0] == "1" and bytes.fromhex(first[1]) == model.id_to_token[1]
    float(first[2])  # parses as the stored natural-log probability


def test_tokenizer_file_first_bad_line_is_named_before_the_header_size(tmp_path):
    # Token lines are checked as they are read, so a bad line is named
    # before the header's size is compared with the lines read.
    path = tmp_path / "tok.txt"
    T.save_tokenizer(make_model({b"a": 1.0}), str(path))
    lines = path.read_text().splitlines()
    lines[0] = "unigram-tokenizer-v1 999"
    sid, _, lp = lines[4].split("\t")
    lines[4] = f"{sid}\t\t{lp}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: token id 3: empty token$"):
        T.load_tokenizer(str(path))


def test_tokenizer_file_without_a_byte_is_named(tmp_path):
    # TokenizerModel checks the coverage; the loader names its file.
    path = tmp_path / "tok.txt"
    T.save_tokenizer(make_model({b"a": 1.0}), str(path))
    lines = path.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.split("\t")[1:2] == ["00"])
    lines[k] = lines[k].replace("\t00\t", "\t0000\t")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        T.load_tokenizer(str(path))
    assert str(exc.value) == f"{path}: no single-byte token for 1 bytes, first 0x00"


def test_training_determinism_byte_identical(tmp_path):
    files = []
    for i in range(2):
        model = T.train_parallel(_synthetic_domains(), chunk_vocab=80, final_vocab=350)
        path = tmp_path / f"tok{i}.txt"
        T.save_tokenizer(model, str(path))
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_probability_mass_after_every_operation():
    vocabs = [T.train_chunk_unigram(c, 60) for d in _synthetic_domains() for c in d]
    for v in vocabs:
        validate(v)
    merged = T.merge_vocabs(vocabs)
    validate(merged)
    pruned = T.prune_to_size(merged, 100, protected={t for t in merged.probs if len(t) == 1})
    validate(pruned)
    model = T.finalize(pruned)
    assert math.fsum(math.exp(lp) for lp in model.logp.values()) == pytest.approx(1.0, abs=1e-9)
