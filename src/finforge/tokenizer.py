"""Byte-level Unigram tokenizer.

Pipeline: pretokenize raw bytes into character-class chunks, train a unigram
distribution per corpus chunk with EM, merge chunk vocabularies by
byte-weighted probability averaging, prune to the target size, and finalize
with full single-byte coverage plus an ``<|endoftext|>`` token. Encoding is
Viterbi maximum-probability segmentation per pretoken.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field

ENDOFTEXT = "<|endoftext|>"
ENDOFTEXT_ID = 0

MAX_TOKEN_LEN = 16
SEED_CAP_FACTOR = 10
EM_ITERS_PER_ROUND = 2
PRUNE_FRACTION = 0.25
BYTE_FLOOR = 1e-12

_PRETOKEN_RE = re.compile(rb"([ A-Za-z]+)|([0-9])|([^ A-Za-z0-9]+)")
_CLASS_NAMES = ("alpha_space", "digit", "other")

_ALL_BYTES = [bytes([b]) for b in range(256)]


class InsufficientCorpusError(ValueError):
    """Corpus slice is too small to seed a vocabulary."""


@dataclass(frozen=True)
class Pretoken:
    data: bytes
    klass: str


def pretokenize(data: bytes) -> list[Pretoken]:
    """Split raw bytes into pretokens by greedy leftmost-longest matching.

    The three classes are mutually exclusive byte sets, so the alternation
    ``[ A-Za-z]+ | [0-9] | [^ A-Za-z0-9]+`` partitions any input exactly.
    """
    out = []
    for m in _PRETOKEN_RE.finditer(data):
        out.append(Pretoken(m.group(0), _CLASS_NAMES[m.lastindex - 1]))
    return out


@dataclass
class UnigramVocab:
    """A probability distribution over byte-string tokens.

    ``training_weight`` is the raw byte count of the corpus the distribution
    was estimated from; it is the weight used when merging vocabularies.
    """

    probs: dict[bytes, float]
    training_weight: float

    def __len__(self) -> int:
        return len(self.probs)

    def validate(self, tol: float = 1e-9) -> None:
        total = math.fsum(self.probs.values())
        if abs(total - 1.0) > tol:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        for tok, p in self.probs.items():
            if not tok:
                raise ValueError("empty token in vocabulary")
            if p <= 0.0:
                raise ValueError(f"non-positive probability for {tok!r}")


def _normalized(probs: dict[bytes, float]) -> dict[bytes, float]:
    total = math.fsum(probs.values())
    out = {t: p / total for t, p in probs.items()}
    # Guard against underflow to exact zero: single bytes must stay encodable
    # and log-probabilities must stay finite.
    if min(out.values(), default=1.0) == 0.0:
        out = {t: (p if p > 0.0 else BYTE_FLOOR) for t, p in out.items() if p > 0.0 or len(t) == 1}
        total = math.fsum(out.values())
        out = {t: p / total for t, p in out.items()}
    return out


# ---------------------------------------------------------------------------
# Per-chunk EM training


def _pretoken_counts(chunk: bytes) -> Counter:
    counts = Counter()
    for pt in pretokenize(chunk):
        counts[pt.data] += 1
    return counts


def _seed_candidates(counts: Counter, target_size: int) -> dict[bytes, float]:
    """Initial candidate set: frequent substrings of pretokens plus all
    single bytes that occur, scored by frequency x length."""
    sub_freq: Counter = Counter()
    for word, freq in counts.items():
        m = len(word)
        for i in range(m):
            for j in range(i + 1, min(i + MAX_TOKEN_LEN, m) + 1):
                sub_freq[word[i:j]] += freq

    singles = {t: f for t, f in sub_freq.items() if len(t) == 1}
    multis = [(t, f) for t, f in sub_freq.items() if len(t) > 1 and f >= 2]
    multis.sort(key=lambda tf: (-tf[1] * len(tf[0]), tf[0]))
    cap = max(0, SEED_CAP_FACTOR * target_size - len(singles))
    multis = multis[:cap]

    seed = {t: float(f * len(t)) for t, f in sorted(singles.items())}
    for t, f in multis:
        seed[t] = float(f * len(t))
    return _normalized(seed)


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
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


def train_chunk_unigram(chunk: bytes, target_size: int) -> UnigramVocab:
    """EM-train a unigram vocabulary of (at most) ``target_size`` tokens on a
    single corpus chunk. ``training_weight`` records the raw chunk bytes."""
    if target_size <= 0:
        raise ValueError("target_size must be positive")
    counts = _pretoken_counts(chunk)
    if not counts:
        raise InsufficientCorpusError("chunk has no pretokens")

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


# ---------------------------------------------------------------------------
# Merging, pruning, finalization


def merge_vocabs(vocabs: list[UnigramVocab]) -> UnigramVocab:
    """Byte-weighted average of unigram distributions (union of token sets)."""
    if not vocabs:
        raise ValueError("cannot merge an empty list of vocabularies")
    total_w = math.fsum(v.training_weight for v in vocabs)
    merged: dict[bytes, float] = {}
    for v in vocabs:
        w = v.training_weight / total_w
        for t, p in v.probs.items():
            merged[t] = merged.get(t, 0.0) + w * p
    merged = _normalized({t: merged[t] for t in sorted(merged)})
    return UnigramVocab(probs=merged, training_weight=total_w)


def prune_to_size(
    vocab: UnigramVocab, size: int, protected: frozenset[bytes] | set[bytes] = frozenset()
) -> UnigramVocab:
    """Keep the ``size`` highest-probability tokens (protected tokens always
    survive), then renormalize. Ties at the cut resolve by byte order."""
    if size <= 0:
        raise ValueError("size must be positive")
    protected = set(protected) & set(vocab.probs)
    if size < len(protected):
        raise ValueError("size smaller than the protected set")
    ranked = sorted(vocab.probs.items(), key=lambda tp: (-tp[1], tp[0]))
    kept = dict((t, p) for t, p in vocab.probs.items() if t in protected)
    for t, p in ranked:
        if len(kept) >= size:
            break
        kept.setdefault(t, p)
    kept = {t: kept[t] for t in sorted(kept)}
    return UnigramVocab(probs=_normalized(kept), training_weight=vocab.training_weight)


@dataclass
class TokenizerModel:
    """Finalized tokenizer: log-probability table, dense id assignment, and
    special tokens. Id 0 is always ``<|endoftext|>``; every single byte has a
    token, so any byte string is encodable."""

    logp: dict[bytes, float]
    id_to_token: list[bytes]  # index 0 holds b"" as the special-token slot
    token_to_id: dict[bytes, int]
    special_tokens: dict[str, int] = field(
        default_factory=lambda: {ENDOFTEXT: ENDOFTEXT_ID}
    )
    max_token_len: int = 1

    @property
    def vocab_size(self) -> int:
        return len(self.id_to_token)

    @property
    def eot_id(self) -> int:
        return self.special_tokens[ENDOFTEXT]

    @classmethod
    def from_ranked(cls, ranked: list[tuple[bytes, float]]) -> TokenizerModel:
        """Tokens with their log-probabilities take ids 1, 2, ... in order."""
        id_to_token = [b""] + [t for t, _ in ranked]  # id 0: <|endoftext|>
        return cls(
            logp=dict(ranked),
            id_to_token=id_to_token,
            token_to_id={t: i for i, t in enumerate(id_to_token) if i},
            max_token_len=max(len(t) for t, _ in ranked),
        )


def finalize(vocab: UnigramVocab) -> TokenizerModel:
    """Add any absent single-byte tokens at a floor probability, add
    ``<|endoftext|>`` as id 0, renormalize, and assign dense ids."""
    probs = dict(vocab.probs)
    for b in _ALL_BYTES:
        if b not in probs:
            probs[b] = BYTE_FLOOR
    probs = _normalized(probs)
    ranked = sorted(probs.items(), key=lambda tp: (-tp[1], tp[0]))
    return TokenizerModel.from_ranked([(t, math.log(p)) for t, p in ranked])


def finalize_to_size(vocab: UnigramVocab, size: int) -> TokenizerModel:
    """Prune ``vocab`` so that the finalized tokenizer, with the missing
    single bytes and ``<|endoftext|>`` added, has exactly ``size`` entries."""
    singles = {t for t in vocab.probs if len(t) == 1}
    keep = size - (256 - len(singles)) - 1
    if keep < len(singles):
        raise ValueError(f"target size {size} too small for byte coverage")
    if len(vocab) > keep:
        vocab = prune_to_size(vocab, keep, protected=singles)
    return finalize(vocab)


def encode(model: TokenizerModel, data: bytes) -> list[int]:
    """Viterbi-encode raw bytes; the ``<|endoftext|>`` token is never
    produced from text (only the packing layer inserts it)."""
    ids: list[int] = []
    for pt in pretokenize(data):
        seg = _viterbi(pt.data, model.logp, model.max_token_len)
        assert seg is not None  # single-byte coverage guarantees totality
        ids.extend(model.token_to_id[t] for t in seg[0])
    return ids


def decode(model: TokenizerModel, ids: list[int], eot_surface: bytes = b"") -> bytes:
    out = []
    for i in ids:
        if i < 0 or i >= model.vocab_size:
            raise ValueError(f"token id {i} out of range [0, {model.vocab_size})")
        out.append(eot_surface if i == model.eot_id else model.id_to_token[i])
    return b"".join(out)


# ---------------------------------------------------------------------------
# Split-and-merge parallel training


def train_parallel(
    domains: list[list[bytes]],
    chunk_vocab: int = 65536,
    final_vocab: int = 2**17,
) -> TokenizerModel:
    """Train one unigram vocabulary per chunk, merge hierarchically (chunks
    within a domain first, then across domains), prune to the final size and
    finalize. Merging is an associative byte-weighted reduction, so the
    grouping is fixed for determinism but does not affect the result."""
    if not domains or any(not chunks for chunks in domains):
        raise InsufficientCorpusError("corpus partition has an empty domain")
    merged = merge_vocabs(
        [merge_vocabs([train_chunk_unigram(c, chunk_vocab) for c in chunks]) for chunks in domains]
    )
    return finalize_to_size(merged, final_vocab)


# ---------------------------------------------------------------------------
# Serialization

_HEADER = "unigram-tokenizer-v1"


def save_tokenizer(model: TokenizerModel, path: str) -> None:
    """Write the tokenizer file format; load->save is byte-identical."""
    lines = [f"{_HEADER} {model.vocab_size}", f"special {ENDOFTEXT} {model.eot_id}"]
    for i in range(1, model.vocab_size):
        tok = model.id_to_token[i]
        lines.append(f"{i}\t{tok.hex()}\t{model.logp[tok]:.17g}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def load_tokenizer(path: str) -> TokenizerModel:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != _HEADER or len(lines) < 2:
        raise ValueError(f"not a {_HEADER} file: {path}")
    vocab_size = int(head[1])
    special = lines[1].split()
    if (
        len(special) != 3
        or special[:2] != ["special", ENDOFTEXT]
        or int(special[2]) != ENDOFTEXT_ID
    ):
        raise ValueError("malformed special-token line")
    ranked: list[tuple[bytes, float]] = []
    for line in lines[2:]:
        sid, hextok, lp = line.split("\t")
        tok = bytes.fromhex(hextok)
        if int(sid) != len(ranked) + 1:
            raise ValueError("ids are not dense and ascending")
        ranked.append((tok, float(lp)))
    if len(ranked) + 1 != vocab_size:
        raise ValueError("vocab size mismatch")
    return TokenizerModel.from_ranked(ranked)
