"""Byte-level Unigram tokenizer.

Pipeline: pretokenize raw bytes into character-class chunks, train a unigram
distribution per corpus chunk with EM, merge chunk vocabularies by
byte-weighted probability averaging, prune to the target size, and finalize
with full single-byte coverage plus an ``<|endoftext|>`` token. Encoding is
Viterbi maximum-probability segmentation per pretoken.
"""

from __future__ import annotations

import io
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
    ``word[i:j]`` in ``vocab``, in ``(i, j)`` order. ``prefixes`` is
    ``_prefixes(vocab)``; the scan from ``i`` stops at the first substring
    that no token starts with, so at the longest token."""
    m = len(word)
    edges = []
    for i in range(m):
        for j in range(i + 1, m + 1):
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
    Single bytes are never dropped, so every position has a live edge in
    and out, and every alpha and beta that is read is finite.

    Alpha and beta are ``_logsumexp``s, whose one- and two-term cases are
    taken inline; they do not depend on the order of their terms. The counts
    are added in ``(word, i, j)`` order."""
    exp_counts: dict[bytes, float] = defaultdict(float)
    total_ll = 0.0
    get, exp, log = logp.get, math.exp, math.log
    for freq, m, edges in lattices:
        # Forward, in start order: every edge into i starts before i, so
        # alpha[i] is complete when the first live edge out of i is reached.
        live = []
        into: list[list[float]] = [[] for _ in range(m + 1)]
        alpha = [0.0] * (m + 1)
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
                else:
                    alpha[i] = _logsumexp(terms)
            into[j].append(alpha[i] + lp)
        z = _logsumexp(into[m])
        # Backward, in reverse start order: beta[j] is complete before any
        # edge that ends at j is reached.
        beta: list = [None] * m + [0.0]  # a beta read before it is set fails
        terms = []
        last = m - 1  # the start of the last live edge, the byte word[m - 1:]
        for i, j, _, lp in reversed(live):
            if i != last:
                if len(terms) == 1:
                    beta[last] = terms[0]
                elif len(terms) == 2:
                    a, b = terms
                    if a < b:
                        a, b = b, a
                    beta[last] = a + log(1.0 + exp(b - a))
                else:
                    beta[last] = _logsumexp(terms)
                terms = []
                last = i
            terms.append(lp + beta[j])
        # The first start's beta is never read: no edge ends there.
        total_ll += freq * z
        for i, j, t, lp in live:
            exp_counts[t] += freq * exp(alpha[i] + lp + beta[j] - z)
    return exp_counts, total_ll


def _logsumexp(xs: list[float]) -> float:
    """``log(sum(exp(x) for x in xs))`` for non-empty, finite ``xs``, summed
    by ``math.fsum`` after scaling by the largest term ``m``. With two
    terms, ``m``'s is exactly ``exp(0) = 1.0``, and the ``fsum`` of two
    floats is their correctly rounded sum, which is what ``+`` gives."""
    if len(xs) == 1:
        return xs[0]  # the general form gives x + log(1.0), which is x
    m = max(xs)
    if len(xs) == 2:
        return m + math.log(1.0 + math.exp(min(xs) - m))
    return m + math.log(math.fsum([math.exp(x - m) for x in xs]))


def _viterbi(
    data: bytes, logp: dict[bytes, float], prefixes: set[bytes]
) -> tuple[list[bytes], float]:
    """Maximum-product segmentation of ``data`` over its ``_lattice``, whose
    ``prefixes`` is ``_prefixes(logp)``; every byte of ``data`` must have a
    token, so a segmentation exists.

    Each suffix keeps the smallest ``(-logp, ntokens, first_token)``, so
    ties break by fewer tokens, then lexicographically smallest token,
    applied greedily from the left over suffix-optimal continuations.
    """
    m = len(data)
    # best[i]: (-logp, ntokens, first_token) for the suffix starting at i;
    # the lattice reversed reaches every edge out of i after those out of j > i.
    best: list = [None] * m + [(0.0, 0, b"")]
    for i, j, tok in reversed(_lattice(data, logp, prefixes)):
        nxt = best[j]
        # (-L) - lp is exactly -(lp + L): IEEE rounding is symmetric in sign.
        cand = (nxt[0] - logp[tok], 1 + nxt[1], tok)
        if best[i] is None or cand < best[i]:
            best[i] = cand
    tokens = []
    i = 0
    while i < m:
        tok = best[i][2]
        tokens.append(tok)
        i += len(tok)
    return tokens, -best[0][0]


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
        raise ValueError("chunk has no pretokens")

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
    """Finalized tokenizer: its log-probability table, whose tokens take ids
    1, 2, ... in the table's order. Id 0 is always ``<|endoftext|>``;
    ``id_to_token`` and ``token_to_id`` are derived from the table, so they
    cannot disagree with it. Every single byte must have a token, so that
    any byte string is encodable: a table without one is a ``ValueError``
    here, and ``encode`` relies on it.

    Every ``encode`` call on a model shares its ``BoundedMemo`` of pretoken
    -> ids, so each distinct pretoken is segmented once per model. The
    prefix set of the tokens, which bounds the Viterbi scan, is built on the
    first ``encode``. Both assume that the model is not changed in place."""

    logp: dict[bytes, float]
    id_to_token: list[bytes] = field(init=False)  # index 0 holds b"", the <|endoftext|> slot
    token_to_id: dict[bytes, int] = field(init=False)
    _memo: BoundedMemo = field(default_factory=lambda: BoundedMemo(_MEMO_BYTES),
                               init=False, repr=False, compare=False)
    _prefix_set: set | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        missing = [b.hex() for b in _ALL_BYTES if b not in self.logp]
        if missing:
            raise ValueError(f"no single-byte token for {len(missing)} bytes, first 0x{missing[0]}")
        self.id_to_token = [b"", *self.logp]
        self.token_to_id = {t: i for i, t in enumerate(self.logp, 1)}

    @property
    def vocab_size(self) -> int:
        return len(self.id_to_token)

    @property
    def eot_id(self) -> int:
        return ENDOFTEXT_ID

    def _segment(self, pretoken: bytes) -> tuple[int, ...]:
        """The ids of ``pretoken``'s Viterbi segmentation, kept in the memo."""
        if self._prefix_set is None:
            self._prefix_set = _prefixes(self.logp)
        tokens = _viterbi(pretoken, self.logp, self._prefix_set)[0]
        return self._memo.put(pretoken, tuple([self.token_to_id[t] for t in tokens]))


def finalize(vocab: UnigramVocab) -> TokenizerModel:
    """Add any absent single-byte tokens at a floor probability, add
    ``<|endoftext|>`` as id 0, renormalize, and assign dense ids."""
    probs = dict(vocab.probs)
    for b in _ALL_BYTES:
        if b not in probs:
            probs[b] = BYTE_FLOOR
    probs = _normalized(probs)
    ranked = sorted(probs.items(), key=lambda tp: (-tp[1], tp[0]))
    return TokenizerModel({t: math.log(p) for t, p in ranked})


def finalize_to_size(vocab: UnigramVocab, size: int) -> TokenizerModel:
    """Prune ``vocab`` so that the finalized tokenizer, with the missing
    single bytes and ``<|endoftext|>`` added, has exactly ``size`` entries."""
    singles = {t for t in vocab.probs if len(t) == 1}
    keep = size - (256 - len(singles)) - 1
    if keep < len(singles):
        raise ValueError(f"target size {size} too small for byte coverage")
    if len(vocab.probs) > keep:
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
    """Join the tokens' bytes in one pass; ``<|endoftext|>`` decodes to nothing."""
    table, out = model.id_to_token, io.BytesIO()
    for i in ids:
        if not 0 <= i < len(table):
            raise ValueError(f"token id {i} out of range [0, {len(table)})")
        out.write(table[i])
    return out.getvalue()


# ---------------------------------------------------------------------------
# Split-and-merge training


def train_parallel(
    domains: list[list[bytes]], chunk_vocab: int, final_vocab: int
) -> TokenizerModel:
    """Train one unigram vocabulary per chunk, one chunk after another in
    this process, merge hierarchically (chunks within a domain first, then
    across domains), prune to the final size and finalize. Merging is an
    associative byte-weighted reduction, so the grouping is fixed for
    determinism but does not affect the result."""
    if not domains or any(not chunks for chunks in domains):
        raise ValueError("corpus partition has an empty domain")
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
    """Read a file written by ``save_tokenizer``, checking each line as it
    is read. A malformed file is a ``ValueError`` that names the file and,
    where there is one, the first bad line: one that does not parse, an id
    that is not the next one, or a token that ``encode`` cannot use (an
    empty or repeated token, or a log-probability that is not finite or is
    above 0). Then the header's size is checked, and ``TokenizerModel``
    checks the single-byte coverage."""
    lines = read_lines(path)
    head = next(lines, (1, ""))[1].split()
    special = next(lines, None)
    if len(head) != 2 or head[0] != _HEADER or not head[1].isdecimal() or special is None:
        raise ValueError(f"not a {_HEADER} file: {path}")
    if special[1].split() != ["special", ENDOFTEXT, str(ENDOFTEXT_ID)]:
        raise ValueError(f"{path}:2: malformed special-token line")
    logp: dict[bytes, float] = {}
    for lineno, line in lines:  # token id k is on line k + 2
        k = lineno - 2
        try:
            sid, hextok, lp = line.split("\t")
            t, lp, dense = bytes.fromhex(hextok), float(lp), int(sid) == k
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not dense:
            raise ValueError(f"{path}:{lineno}: ids are not dense and ascending")
        if not t:
            what = "empty token"
        elif t in logp:
            what = f"token {t.hex()} repeats id {list(logp).index(t) + 1}"
        elif not -math.inf < lp <= 0.0:  # also false for nan
            what = f"log-probability {lp!r} is not finite and at most 0"
        else:
            logp[t] = lp
            continue
        raise ValueError(f"{path}:{lineno}: token id {k}: {what}")
    if len(logp) + 1 != int(head[1]):
        raise ValueError(f"{path}: vocab size mismatch")
    try:
        return TokenizerModel(logp)
    except ValueError as exc:  # a byte without a token
        raise ValueError(f"{path}: {exc}") from None
