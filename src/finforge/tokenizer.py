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
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .atomic import atomic_write, read_lines

ENDOFTEXT = "<|endoftext|>"
ENDOFTEXT_ID = 0

MAX_TOKEN_LEN = 16
SEED_CAP_FACTOR = 10
EM_ITERS_PER_ROUND = 2
PRUNE_FRACTION = 0.25
BYTE_FLOOR = 1e-12
# Bytes that one ``TokenizerModel``'s encode memo may hold: each entry's
# pretoken and id tuple, as ``sys.getsizeof`` counts them.
_MEMO_BYTES = 8 << 20

_PRETOKEN_RE = re.compile(rb"[ A-Za-z]+|[0-9]|[^ A-Za-z0-9]+")

_ALL_BYTES = [bytes([b]) for b in range(256)]


class InsufficientCorpusError(ValueError):
    """Corpus slice is too small to seed a vocabulary."""


class BadTokenError(ValueError):
    """A token table entry that ``encode`` cannot use; ``token_id`` is its id."""

    def __init__(self, token_id: int, what: str):
        super().__init__(f"token id {token_id}: {what}")
        self.token_id = token_id


def pretokenize(data: bytes) -> list[bytes]:
    """Split raw bytes into pretokens by greedy leftmost-longest matching.

    The three classes are mutually exclusive byte sets, so the alternation
    ``[ A-Za-z]+ | [0-9] | [^ A-Za-z0-9]+`` partitions any input exactly.
    """
    return _PRETOKEN_RE.findall(data)


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


def _prefixes(vocab) -> set[bytes]:
    """Every non-empty prefix of every token of ``vocab``."""
    return {t[:k] for t in vocab for k in range(1, len(t) + 1)}


def _lattice(
    word: bytes, vocab: dict[bytes, float], prefixes: set[bytes]
) -> list[tuple[int, int, bytes]]:
    """The segmentation lattice of ``word``: every ``(i, j, word[i:j])`` with
    ``word[i:j]`` in ``vocab`` and at most ``MAX_TOKEN_LEN`` bytes, in
    ``(i, j)`` order. ``prefixes`` is ``_prefixes(vocab)``; the scan from
    ``i`` stops at the first substring that no token starts with."""
    m = len(word)
    edges = []
    for i in range(m):
        for j in range(i + 1, min(i + MAX_TOKEN_LEN, m) + 1):
            piece = word[i:j]
            if piece not in prefixes:
                break
            if piece in vocab:
                edges.append((i, j, piece))
    return edges


def _filtered(
    lattices: list[tuple[int, int, list[tuple[int, int, bytes]]]], vocab: dict[bytes, float]
) -> list[tuple[int, int, list[tuple[int, int, bytes]]]]:
    """``lattices`` without the edges whose token is not in ``vocab``. When
    ``vocab`` is a subset of the vocabulary they were built from, as after a
    prune, these are the lattices ``_lattice`` builds from ``vocab``: the
    same edges in the same ``(i, j)`` order."""
    return [(f, m, [e for e in edges if e[2] in vocab]) for f, m, edges in lattices]


def _expected_counts(
    lattices: list[tuple[int, int, list[tuple[int, int, bytes]]]], logp: dict[bytes, float]
) -> tuple[dict[bytes, float], float]:
    """E-step: expected token counts over all segmentations (forward-backward
    on the lattice of each unique pretoken, given as ``(freq, len(word),
    edges)``), and the total corpus log-likelihood.

    The lattices are built once per chunk from the seed vocabulary and
    ``_filtered`` after each prune, so one list serves every E-step of a
    prune round. EM also drops tokens within a round; the forward pass
    leaves out the edges whose token is not in ``logp`` and keeps the rest,
    with their log-probabilities, for the backward pass and the counts.

    Alpha and beta are ``_logsumexp``s, whose one- and two-term cases are
    taken inline; they do not depend on the order of their terms, and every
    term is finite, so the two-term case needs no -inf check. The counts
    are added in ``(word, i, j)`` order."""
    exp_counts: dict[bytes, float] = defaultdict(float)
    total_ll = 0.0
    neg_inf = float("-inf")
    get, exp, log = logp.get, math.exp, math.log
    for freq, m, edges in lattices:
        # Forward, in start order: every edge into i starts before i, so
        # alpha[i] is complete when the first live edge out of i is reached.
        live = []
        into: list[list[float]] = [[] for _ in range(m + 1)]
        alpha = [neg_inf] * (m + 1)
        alpha[0] = 0.0
        last = 0
        for i, j, t in edges:
            lp = get(t)
            if lp is None:
                continue
            live.append((i, j, t, lp))
            if i != last:
                last = i
                terms = into[i]
                if len(terms) == 1:
                    alpha[i] = terms[0]
                elif len(terms) == 2:
                    a, b = terms
                    if a < b:
                        a, b = b, a
                    alpha[i] = a + log(1.0 + exp(b - a))
                elif terms:
                    alpha[i] = _logsumexp(terms)
            if alpha[i] != neg_inf:
                into[j].append(alpha[i] + lp)
        if not into[m]:
            continue  # unsegmentable under current vocab; contributes nothing
        z = _logsumexp(into[m])
        # Backward, in reverse start order: beta[j] is complete before any
        # edge that ends at j is reached.
        beta = [neg_inf] * (m + 1)
        beta[m] = 0.0
        terms = []
        last = m
        for i, j, _, lp in reversed(live):
            if i != last:
                if len(terms) == 1:
                    beta[last] = terms[0]
                elif len(terms) == 2:
                    a, b = terms
                    if a < b:
                        a, b = b, a
                    beta[last] = a + log(1.0 + exp(b - a))
                elif terms:
                    beta[last] = _logsumexp(terms)
                terms = []
                last = i
            if beta[j] != neg_inf:
                terms.append(lp + beta[j])
        # The first start's beta is never read: no edge ends there.
        total_ll += freq * z
        for i, j, t, lp in live:
            if alpha[i] != neg_inf and beta[j] != neg_inf:
                exp_counts[t] += freq * exp(alpha[i] + lp + beta[j] - z)
    return exp_counts, total_ll


def _logsumexp(xs: list[float]) -> float:
    """``log(sum(exp(x) for x in xs))`` for non-empty ``xs``, summed by
    ``math.fsum`` after scaling by the largest term ``m``. With two terms,
    ``m``'s is exactly ``exp(0) = 1.0``, and the ``fsum`` of two floats is
    their correctly rounded sum, which is what ``+`` gives."""
    if len(xs) == 1:
        return xs[0]  # the general form gives x + log(1.0), which is x
    m = max(xs)
    if m == float("-inf"):
        return m
    if len(xs) == 2:
        return m + math.log(1.0 + math.exp(min(xs) - m))
    return m + math.log(math.fsum([math.exp(x - m) for x in xs]))


def _viterbi(
    data: bytes, logp: dict[bytes, float], max_len: int, prefixes: set[bytes]
) -> tuple[list[bytes], float] | None:
    """Maximum-product segmentation of ``data``.

    Ties break by fewer tokens, then lexicographically smallest token,
    applied greedily from the left over suffix-optimal continuations.
    Returns None when no segmentation exists. ``prefixes`` is
    ``_prefixes(logp)``; the scan from ``i`` stops at the first substring
    that no token starts with, as in ``_lattice``.
    """
    m = len(data)
    # best[i]: (logp, ntokens, first_token) for the suffix starting at i
    best: list[tuple[float, int, bytes] | None] = [None] * (m + 1)
    best[m] = (0.0, 0, b"")
    for i in range(m - 1, -1, -1):
        chosen = None
        for l in range(1, min(max_len, m - i) + 1):
            tok = data[i : i + l]
            if tok not in prefixes:
                break
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


def _split_logps(tokens: list[bytes], logp: dict[bytes, float]) -> list[float]:
    """For each of ``tokens`` (of at most ``MAX_TOKEN_LEN`` bytes), the
    log-probability of its best segmentation into two or more tokens, or
    -inf if there is none.

    The best full segmentation of a suffix is computed once, keyed by its
    bytes, and shared by every token that ends with it. Each best is a max
    over the same ``lp + best`` sums as in ``_viterbi``, so every score is
    the float that the per-token ``_split_logp`` of
    ``tests/reference_tokenizer.py`` returns."""
    full = {b"": 0.0}  # suffix -> its best segmentation's log-probability

    def best(s: bytes, stop: int) -> float:
        # The best of s[:j] followed by the best of s[j:], for j in 1..stop.
        top = float("-inf")
        for j in range(1, stop + 1):
            lp = logp.get(s[:j])
            if lp is not None:
                rest = s[j:]
                tail = full.get(rest)
                if tail is None:
                    tail = full[rest] = best(rest, len(rest))
                if lp + tail > top:
                    top = lp + tail
        return top

    return [best(t, len(t) - 1) for t in tokens]


def train_chunk_unigram(chunk: bytes, target_size: int) -> UnigramVocab:
    """EM-train a unigram vocabulary of (at most) ``target_size`` tokens on a
    single corpus chunk. ``training_weight`` records the raw chunk bytes."""
    if target_size <= 0:
        raise ValueError("target_size must be positive")
    counts = Counter(pretokenize(chunk))
    if not counts:
        raise InsufficientCorpusError("chunk has no pretokens")

    probs = _seed_candidates(counts, target_size)
    singles = {t for t in probs if len(t) == 1}
    # Built once: a prune only removes tokens, so each later round's
    # lattices are these, filtered.
    prefixes = _prefixes(probs)
    lattices = [(f, len(w), _lattice(w, probs, prefixes)) for w, f in counts.items()]

    while True:
        for _ in range(EM_ITERS_PER_ROUND):
            logp = {t: math.log(p) for t, p in probs.items()}
            exp_counts, _ = _expected_counts(lattices, logp)
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
        exp_counts, _ = _expected_counts(lattices, logp)
        scored = []
        for t, alt in zip(prunable, _split_logps(prunable, logp)):
            c = exp_counts.get(t, 0.0)
            scored.append((c * (logp[t] - alt) if c != 0.0 else 0.0, t))
        scored.sort(key=lambda st: (st[0], st[1]))
        n_drop = min(
            max(1, int(PRUNE_FRACTION * len(prunable))), len(probs) - target_size
        )
        dropped = {t for _, t in scored[:n_drop]}
        probs = _normalized({t: p for t, p in probs.items() if t not in dropped})
        lattices = _filtered(lattices, probs)

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


class BoundedMemo(dict):
    """A dict of at most ``bound`` bytes of entries, counting the
    ``sys.getsizeof`` of each key part and of the value. ``put`` keeps no
    entry larger than the bound, and empties the memo when the next entry
    would not fit."""

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound
        self.nbytes = 0

    def put(self, key, value):
        """Store ``value`` under ``key`` if it fits the bound; return ``value``."""
        parts = key if isinstance(key, tuple) else (key,)
        size = sum(map(sys.getsizeof, parts)) + sys.getsizeof(value)
        if size <= self.bound:
            if self.nbytes + size > self.bound:
                self.clear()
                self.nbytes = 0
            self[key] = value
            self.nbytes += size
        return value


@dataclass
class TokenizerModel:
    """Finalized tokenizer: log-probability table and dense id assignment.
    Id 0 is always ``<|endoftext|>``; every single byte has a token, so any
    byte string is encodable.

    Every ``encode`` call on a model shares its ``BoundedMemo`` of pretoken
    -> ids, so each distinct pretoken is segmented once per model. The
    prefix set of the tokens, which bounds the Viterbi scan, is built on the
    first ``encode``. Both assume that the model is not changed in place."""

    logp: dict[bytes, float]
    id_to_token: list[bytes]  # index 0 holds b"", the <|endoftext|> slot
    token_to_id: dict[bytes, int]
    max_token_len: int = 1
    _memo: BoundedMemo = field(default_factory=lambda: BoundedMemo(_MEMO_BYTES),
                               init=False, repr=False, compare=False)
    _prefix_set: set | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def vocab_size(self) -> int:
        return len(self.id_to_token)

    @property
    def eot_id(self) -> int:
        return ENDOFTEXT_ID

    @classmethod
    def from_ranked(cls, ranked: list[tuple[bytes, float]]) -> TokenizerModel:
        """Tokens with their log-probabilities take ids 1, 2, ... in order.

        A table that ``encode`` cannot use is a ``ValueError``: an empty or
        repeated token, or a log-probability that is not finite or is above
        0 (a ``BadTokenError``, which names the id), or a byte with no
        single-byte token."""
        token_to_id: dict[bytes, int] = {}
        for i, (t, lp) in enumerate(ranked, 1):
            if not t:
                raise BadTokenError(i, "empty token")
            if t in token_to_id:
                raise BadTokenError(i, f"token {t.hex()} repeats id {token_to_id[t]}")
            if not -math.inf < lp <= 0.0:  # also false for nan
                raise BadTokenError(i, f"log-probability {lp!r} is not finite and at most 0")
            token_to_id[t] = i
        missing = [b.hex() for b in _ALL_BYTES if b not in token_to_id]
        if missing:
            raise ValueError(f"no single-byte token for {len(missing)} bytes, first 0x{missing[0]}")
        return cls(
            logp=dict(ranked),
            id_to_token=[b""] + [t for t, _ in ranked],  # id 0: <|endoftext|>
            token_to_id=token_to_id,
            max_token_len=max(len(t) for t, _ in ranked),
        )

    def _segment(self, pretoken: bytes) -> tuple[int, ...]:
        """The ids of ``pretoken``'s Viterbi segmentation, kept in the memo."""
        if self._prefix_set is None:
            self._prefix_set = _prefixes(self.logp)
        best = _viterbi(pretoken, self.logp, self.max_token_len, self._prefix_set)
        assert best is not None  # single-byte coverage guarantees totality
        return self._memo.put(pretoken, tuple([self.token_to_id[t] for t in best[0]]))


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
    produced from text (only the packing layer inserts it). A pretoken that
    the model's memo holds is not segmented again."""
    ids: list[int] = []
    memo = model._memo
    for pt in pretokenize(data):
        seg = memo.get(pt)
        ids.extend(model._segment(pt) if seg is None else seg)
    return ids


def decode(model: TokenizerModel, ids: list[int]) -> bytes:
    """Join the tokens' bytes; ``<|endoftext|>`` decodes to nothing."""
    for i in ids:
        if i < 0 or i >= model.vocab_size:
            raise ValueError(f"token id {i} out of range [0, {model.vocab_size})")
    return b"".join([model.id_to_token[i] for i in ids])


# ---------------------------------------------------------------------------
# Split-and-merge training


def train_parallel(
    domains: list[list[bytes]],
    chunk_vocab: int = 65536,
    final_vocab: int = 2**17,
) -> TokenizerModel:
    """Train one unigram vocabulary per chunk, one chunk after another in
    this process, merge hierarchically (chunks within a domain first, then
    across domains), prune to the final size and finalize. Merging is an
    associative byte-weighted reduction, so the grouping is fixed for
    determinism but does not affect the result."""
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
    """Write the tokenizer file format, atomically; load->save is
    byte-identical."""
    lines = [f"{_HEADER} {model.vocab_size}", f"special {ENDOFTEXT} {model.eot_id}"]
    for i in range(1, model.vocab_size):
        tok = model.id_to_token[i]
        lines.append(f"{i}\t{tok.hex()}\t{model.logp[tok]:.17g}")
    with atomic_write(path) as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))


def load_tokenizer(path: str) -> TokenizerModel:
    """Read a file written by ``save_tokenizer``. A malformed file is a
    ``ValueError`` that names the file and, where there is one, the line."""
    lines = [line for _, line in read_lines(path)]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != _HEADER or not head[1].isdecimal() or len(lines) < 2:
        raise ValueError(f"not a {_HEADER} file: {path}")
    vocab_size = int(head[1])
    if lines[1].split() != ["special", ENDOFTEXT, str(ENDOFTEXT_ID)]:
        raise ValueError(f"{path}:2: malformed special-token line")
    ranked: list[tuple[bytes, float]] = []
    for lineno, line in enumerate(lines[2:], 3):  # token id k is on line k + 2
        try:
            sid, hextok, lp = line.split("\t")
            ranked.append((bytes.fromhex(hextok), float(lp)))
            dense = int(sid) == len(ranked)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not dense:
            raise ValueError(f"{path}:{lineno}: ids are not dense and ascending")
    if len(ranked) + 1 != vocab_size:
        raise ValueError(f"{path}: vocab size mismatch")
    try:
        return TokenizerModel.from_ranked(ranked)
    except BadTokenError as exc:
        raise ValueError(f"{path}:{exc.token_id + 2}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
