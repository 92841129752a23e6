"""Likelihood-based few-shot evaluation, sliding-window bits per byte,
greedy decoding, and scoring/aggregation metrics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import LanguageModel, target_nll
from .tokenizer import TokenizerModel, encode

CALIBRATION_CONTEXT = b"Answer:"
WINDOW, STRIDE = 2048, 1024  # sliding-window scoring; see _windowed_nll


@dataclass(frozen=True)
class ClassificationTask:
    context: bytes
    candidates: tuple[bytes, ...]
    gold: bytes | None = None

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("need at least one candidate")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidates must be distinct")


# ---------------------------------------------------------------------------
# Log-likelihoods


def sequence_logprob(lm: LanguageModel, context: list[int], continuation: list[int]) -> float:
    """Sum of next-token log-probabilities (nats) of the continuation given
    the context. Long inputs fall back to sliding-window scoring with at
    least ``WINDOW - STRIDE`` tokens of context per scored position."""
    if not continuation:
        raise ValueError("continuation must be non-empty")
    full = list(context) + list(continuation)
    return -_windowed_nll(lm, full, first_scored=len(context), window=WINDOW, stride=STRIDE)


def _token_nll(lm: LanguageModel, tokens: list[int], scored: list[int]) -> float:
    """NLL (nats) of tokens at the given positions (>= 1), conditioning on
    all earlier tokens in ``tokens``."""
    start = min(scored, default=1) - 1
    if start < 0:
        raise ValueError("position 0 has no context to be scored from")
    logits = lm.logits(tokens[:-1], start)  # column j predicts token start + j + 1
    scored = np.asarray(scored, dtype=np.intp)
    _, nll = target_nll(np.asarray(logits)[:, scored - 1 - start], np.asarray(tokens)[scored])
    return float(nll.sum())


def _windowed_nll(
    lm: LanguageModel, tokens: list[int], first_scored: int, window: int, stride: int
) -> float:
    """NLL of tokens[first_scored:] under a sliding window.

    The first window scores everything it covers; each later window scores
    only its final ``stride`` positions, so every scored token after the
    first window keeps at least ``window - stride`` context tokens. That
    needs ``1 <= stride < window``, and so ``window >= 2``."""
    if not 1 <= stride < window:
        raise ValueError(f"need 1 <= stride < window, got stride {stride} and window {window}")
    n = len(tokens)
    total = 0.0
    scored_to = first_scored
    while scored_to < n:
        end = min(window if scored_to < window else scored_to + stride, n)
        start = max(0, end - window)
        total += _token_nll(
            lm, tokens[start:end], [p - start for p in range(scored_to, end)]
        )
        scored_to = end
    return total


def bits_per_byte(
    lm: LanguageModel,
    docs: list[bytes],
    tok: TokenizerModel,
    window: int = WINDOW,
    stride: int = STRIDE,
) -> float:
    """Total negative log-likelihood in bits over all documents divided by
    their raw byte length. Each document is scored independently (windows
    never span documents), with the separator token as initial context."""
    if not docs:
        raise ValueError("no documents to score")
    total_nll = 0.0
    total_bytes = 0
    for doc in docs:
        ids = [tok.eot_id] + encode(tok, doc)
        total_nll += _windowed_nll(lm, ids, first_scored=1, window=window, stride=stride)
        total_bytes += len(doc)
    if total_bytes == 0:
        raise ValueError("documents are empty")
    return total_nll / math.log(2.0) / total_bytes


# ---------------------------------------------------------------------------
# Classification

METHODS = ("regular", "calibration", "normalization")


def candidate_logprob(lm, tok, context: bytes, candidate: bytes) -> float:
    ctx_ids = [tok.eot_id] + encode(tok, context)
    cand_ids = encode(tok, candidate)
    return sequence_logprob(lm, ctx_ids, cand_ids)


def classify(
    lm: LanguageModel, tok: TokenizerModel, task: ClassificationTask, method: str
) -> bytes:
    """Pick a candidate by likelihood. ``regular`` maximizes p(cand|ctx);
    ``calibration`` divides by the content-free p(cand|"Answer:");
    ``normalization`` divides the probability by the candidate token count.
    Ties go to the earliest candidate in task order."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    scores = []
    for cand in task.candidates:
        lp = candidate_logprob(lm, tok, task.context, cand)
        if method == "regular":
            score = lp
        elif method == "calibration":
            score = lp - candidate_logprob(lm, tok, CALIBRATION_CONTEXT, cand)
        else:  # log of p / n_tokens: p itself underflows for long candidates
            score = lp - math.log(len(encode(tok, cand)))
        scores.append(score)
    return task.candidates[int(np.argmax(scores))]


def assemble_prompt(
    context: bytes,
    pool: list[tuple[bytes, bytes]],
    k_shots: int,
    shot_seed: int,
    example_index: int,
    separator: bytes = b"\n\n",
) -> bytes:
    """Sample k exemplars without replacement (deterministically per example)
    and prepend them to the test context."""
    if k_shots > len(pool):
        raise ValueError("exemplar pool smaller than requested shot count")
    rng = np.random.default_rng([shot_seed, example_index])
    picks = []
    remaining = list(range(len(pool)))
    for _ in range(k_shots):
        i = int(rng.integers(0, len(remaining)))
        picks.append(remaining.pop(i))
    parts = [pool[i][0] + pool[i][1] for i in picks]
    parts.append(context)
    return separator.join(parts)


# ---------------------------------------------------------------------------
# Generation and scoring


def greedy_decode(
    lm: LanguageModel,
    prompt: list[int],
    max_new_tokens: int,
    stop: set[int] | None = None,
    eot_id: int = 0,
) -> list[int]:
    """Repeatedly append the argmax next token (ties to the lowest id);
    stops at the separator token or any stop token."""
    if max_new_tokens < 1:
        raise ValueError("max_new_tokens must be at least 1")
    stop = set(stop or ())
    tokens = list(prompt)
    out: list[int] = []
    for _ in range(max_new_tokens):
        nxt = int(np.argmax(lm.logits(tokens, len(tokens) - 1)[:, 0]))
        if nxt == eot_id or nxt in stop:
            break
        out.append(nxt)
        tokens.append(nxt)
    return out


def default_normalizer(s: bytes) -> bytes:
    return s.strip().lower()


def exact_match(pred: bytes, gold: bytes, normalizer=default_normalizer) -> int:
    return int(normalizer(pred) == normalizer(gold))


def weighted_f1(preds: list, golds: list, labels: list) -> float:
    """Per-label F1 averaged with weights given by gold support fraction."""
    if not preds or len(preds) != len(golds):
        raise ValueError("need equal non-empty prediction and gold lists")
    total = 0.0
    for label in labels:
        tp = sum(1 for p, g in zip(preds, golds) if p == label and g == label)
        fp = sum(1 for p, g in zip(preds, golds) if p == label and g != label)
        fn = sum(1 for p, g in zip(preds, golds) if p != label and g == label)
        support = tp + fn
        if support == 0:
            continue
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / support
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        total += f1 * support / len(golds)
    return total


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


# ---------------------------------------------------------------------------
# Task file IO


def _is_strings(values) -> bool:
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def load_tasks(path: str) -> list[dict]:
    """Newline-delimited JSON task records with a string ``context`` plus
    either ``candidates`` (a list of strings, with an optional string
    ``gold``) or ``gold`` alone. An optional ``shots_pool`` is a list of
    objects with string ``context`` and ``gold``."""
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("not a JSON object")
                if "context" not in rec:
                    raise ValueError("missing 'context'")
                if "candidates" not in rec and "gold" not in rec:
                    raise ValueError("need 'candidates' or 'gold'")
                if not isinstance(rec["context"], str) or not isinstance(rec.get("gold", ""), str):
                    raise ValueError("'context' and 'gold' must be strings")
                if not _is_strings(rec.get("candidates", [])):
                    raise ValueError("'candidates' must be a list of strings")
                pool = rec.get("shots_pool", [])
                if not isinstance(pool, list) or not all(
                    isinstance(s, dict) and _is_strings([s.get("context"), s.get("gold")])
                    for s in pool
                ):
                    raise ValueError(
                        "'shots_pool' must be a list of objects with string 'context' and 'gold'"
                    )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed task record: {exc}") from exc
            records.append(rec)
    return records
