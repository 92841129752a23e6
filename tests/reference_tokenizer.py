"""Reference implementation of Unigram EM training and encoding.

This is the per-word formulation: every E-step slices and looks up each
substring of each unique pretoken, prune scoring runs a full tie-breaking
`_viterbi` per candidate with the candidate itself excluded, `_split_logp`
scores one candidate with no result shared, and `encode` segments every
pretoken afresh. It is slow and kept only as the oracle that tests compare
the lattice E-step, the shared prune scores and the memoized encode of
`finforge.tokenizer` against, bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from finforge.tokenizer import (
    BYTE_FLOOR,
    EM_ITERS_PER_ROUND,
    MAX_TOKEN_LEN,
    PRUNE_FRACTION,
    TokenizerModel,
    UnigramVocab,
    _normalized,
    _seed_candidates,
    pretokenize,
)


def _expected_counts(
    counts: Counter, logp: dict[bytes, float]
) -> tuple[dict[bytes, float], float]:
    """E-step: expected token counts over all segmentations (forward-backward
    on the segmentation lattice of each unique pretoken), and the total
    corpus log-likelihood."""
    exp_counts: dict[bytes, float] = defaultdict(float)
    total_ll = 0.0
    neg_inf = float("-inf")
    for word, freq in counts.items():
        m = len(word)
        alpha = [neg_inf] * (m + 1)
        alpha[0] = 0.0
        for j in range(1, m + 1):
            terms = []
            for i in range(max(0, j - MAX_TOKEN_LEN), j):
                lp = logp.get(word[i:j])
                if lp is not None and alpha[i] != neg_inf:
                    terms.append(alpha[i] + lp)
            if terms:
                alpha[j] = _logsumexp(terms)
        z = alpha[m]
        if z == neg_inf:
            continue  # unsegmentable under current vocab; contributes nothing
        beta = [neg_inf] * (m + 1)
        beta[m] = 0.0
        for i in range(m - 1, -1, -1):
            terms = []
            for j in range(i + 1, min(i + MAX_TOKEN_LEN, m) + 1):
                lp = logp.get(word[i:j])
                if lp is not None and beta[j] != neg_inf:
                    terms.append(lp + beta[j])
            if terms:
                beta[i] = _logsumexp(terms)
        total_ll += freq * z
        for i in range(m):
            if alpha[i] == neg_inf:
                continue
            for j in range(i + 1, min(i + MAX_TOKEN_LEN, m) + 1):
                lp = logp.get(word[i:j])
                if lp is None or beta[j] == neg_inf:
                    continue
                exp_counts[word[i:j]] += freq * math.exp(alpha[i] + lp + beta[j] - z)
    return exp_counts, total_ll


def _logsumexp(xs: list[float]) -> float:
    m = max(xs)
    if m == float("-inf"):
        return m
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))


def _viterbi(
    data: bytes,
    logp: dict[bytes, float],
    max_len: int,
    exclude: bytes | None = None,
) -> tuple[list[bytes], float] | None:
    """Maximum-product segmentation of ``data``.

    Ties break by fewer tokens, then lexicographically smallest token,
    applied greedily from the left over suffix-optimal continuations.
    Returns None when no segmentation exists.
    """
    m = len(data)
    # best[i]: (logp, ntokens, first_token) for the suffix starting at i
    best: list[tuple[float, int, bytes] | None] = [None] * (m + 1)
    best[m] = (0.0, 0, b"")
    for i in range(m - 1, -1, -1):
        chosen = None
        for l in range(1, min(max_len, m - i) + 1):
            tok = data[i : i + l]
            if tok == exclude:
                continue
            lp = logp.get(tok)
            if lp is None:
                continue
            nxt = best[i + l]
            if nxt is None:
                continue
            cand = (lp + nxt[0], 1 + nxt[1], tok)
            if chosen is None or _better(cand, chosen):
                chosen = cand
        best[i] = chosen
    if best[0] is None:
        return None
    tokens = []
    i = 0
    while i < m:
        tok = best[i][2]  # type: ignore[index]
        tokens.append(tok)
        i += len(tok)
    return tokens, best[0][0]


def _better(a: tuple[float, int, bytes], b: tuple[float, int, bytes]) -> bool:
    """Whether segmentation score ``a`` beats ``b``: a higher log-probability,
    then fewer tokens, then the lexicographically smaller first token."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


def _split_logp(t: bytes, logp: dict[bytes, float]) -> float:
    """Log-probability of the best segmentation of ``t`` into two or more
    tokens, or -inf if there is none, for ``t`` of at most ``MAX_TOKEN_LEN``
    bytes. A max-product over the substrings of ``t``, right to left, that
    leaves out the full span; the sums are ``lp + best[j]`` as in
    ``_viterbi``, so it returns the score of ``_viterbi(t, logp,
    MAX_TOKEN_LEN, exclude=t)``."""
    m = len(t)
    best = [float("-inf")] * m + [0.0]
    for i in range(m - 1, -1, -1):
        top = best[i]
        for j in range(i + 1, m + 1 if i else m):
            lp = logp.get(t[i:j])
            if lp is not None and lp + best[j] > top:
                top = lp + best[j]
        best[i] = top
    return best[0]


def train_chunk_unigram(chunk: bytes, target_size: int) -> UnigramVocab:
    """EM-train a unigram vocabulary of (at most) ``target_size`` tokens on a
    single corpus chunk. ``training_weight`` records the raw chunk bytes."""
    if target_size <= 0:
        raise ValueError("target_size must be positive")
    counts = Counter(pretokenize(chunk))
    if not counts:
        raise ValueError("chunk has no pretokens")

    probs = _seed_candidates(counts, target_size)
    singles = {t for t in probs if len(t) == 1}

    while True:
        for _ in range(EM_ITERS_PER_ROUND):
            logp = {t: math.log(p) for t, p in probs.items()}
            exp_counts, _ = _expected_counts(counts, logp)
            new = {}
            for t in probs:
                c = exp_counts.get(t, 0.0)
                if c > 0.0:
                    new[t] = c
                elif len(t) == 1:
                    new[t] = BYTE_FLOOR  # coverage: single bytes never dropped
            probs = _normalized(new)
        if len(probs) <= target_size:
            break
        prunable = [t for t in probs if t not in singles]
        if not prunable:
            break
        logp = {t: math.log(p) for t, p in probs.items()}
        exp_counts, _ = _expected_counts(counts, logp)
        scored = []
        for t in prunable:
            c = exp_counts.get(t, 0.0)
            if c == 0.0:
                scored.append((0.0, t))
                continue
            alt = _viterbi(t, logp, MAX_TOKEN_LEN, exclude=t)
            alt_lp = alt[1] if alt is not None else float("-inf")
            scored.append((c * (logp[t] - alt_lp), t))
        scored.sort(key=lambda st: (st[0], st[1]))
        n_drop = min(
            max(1, int(PRUNE_FRACTION * len(prunable))), len(probs) - target_size
        )
        dropped = {t for _, t in scored[:n_drop]}
        probs = _normalized({t: p for t, p in probs.items() if t not in dropped})

    return UnigramVocab(probs=probs, training_weight=float(len(chunk)))


def encode(model: TokenizerModel, data: bytes) -> list[int]:
    """Viterbi-encode raw bytes; the ``<|endoftext|>`` token is never
    produced from text (only the packing layer inserts it)."""
    ids: list[int] = []
    for pt in pretokenize(data):
        seg = _viterbi(pt, model.logp, max(map(len, model.logp)))
        assert seg is not None  # single-byte coverage guarantees totality
        ids.extend(model.token_to_id[t] for t in seg[0])
    return ids
