"""Vocabulary-size selection: minimize total encoded corpus size at
log2(vocab) bits per token, then round up to a power of two."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tokenizer import TokenizerModel, UnigramVocab, encode, finalize_to_size


@dataclass(frozen=True)
class VocabCandidate:
    size: int
    encoded_tokens: int
    encoded_bits: float


def encoded_token_count(model: TokenizerModel, corpus: list[bytes]) -> int:
    return sum(len(encode(model, doc)) for doc in corpus)


def sweep(
    base: UnigramVocab, corpus: list[bytes], candidates: list[int]
) -> list[VocabCandidate]:
    if not candidates:
        raise ValueError("no candidate sizes given")
    if sorted(candidates) != list(candidates):
        raise ValueError("candidate sizes must be sorted ascending")
    if not any(corpus):
        raise ValueError("corpus is empty")
    out = []
    for size in candidates:
        model = finalize_to_size(base, size)
        n_tok = encoded_token_count(model, corpus)
        out.append(VocabCandidate(size, n_tok, n_tok * math.log2(size)))
    return out


def round_up_pow2(n: int) -> int:
    if n <= 0:
        raise ValueError("need a positive size")
    return 1 << (n - 1).bit_length()


def best_size(swept: list[VocabCandidate]) -> int:
    """Candidate size with the fewest encoded bits (ties to the smaller size)."""
    return min(swept, key=lambda c: (c.encoded_bits, c.size)).size

