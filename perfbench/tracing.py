"""Spans and counts around calls into the program's public functions.

The tracer replaces module attributes with timing wrappers; nothing inside
the program changes. Every binding of a wrapped function is replaced, so a
name imported into another module (``evalharness.encode`` is
``tokenizer.encode``) is timed too. Spans are kept in memory as
``(id, parent, name, start, end)`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Public functions per layer. A name the program no longer has is skipped, so
# removing one does not break the benchmark; it then reports no calls.
WRAPPED = {
    "tokenizer": (
        "pretokenize", "train_chunk_unigram", "merge_vocabs", "prune_to_size",
        "finalize", "encode", "decode", "save_tokenizer", "load_tokenizer",
    ),
    "model": ("forward", "backward"),
    "trainer": (
        "pack_documents", "shuffle_stream", "adamw_step", "clip_gradients",
        "component_weight_norms", "DiagnosticsLog.record", "save_checkpoint",
        "load_checkpoint", "validation_loss", "train",
    ),
    "evalharness": (
        "classify", "candidate_logprob", "sequence_logprob", "assemble_prompt",
        "greedy_decode", "bits_per_byte",
    ),
    "cli": ("main", "read_documents", "partition_corpus"),
    "config": ("parse_config",),
}

COUNTS = (
    "tokenizer.encode.bytes", "tokenizer.encode.tokens", "model.forward.rows",
    "model.backward.rows", "trainer.save_checkpoint.bytes",
)


def rebind(package: str, target, replacement) -> list[tuple[object, str]]:
    """Point every module attribute of ``package`` that is ``target`` at
    ``replacement``; returns the (module, attribute) pairs changed."""
    changed = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or (modname != package and not modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


class Tracer:
    """Records one span per call of each wrapped function, and counts of the
    work those calls did. ``package``, ``wrapped`` and ``clock`` can be
    replaced for tests."""

    def __init__(self, package: str = "finforge", wrapped: dict = WRAPPED, clock=time.perf_counter):
        self.package = package
        self.wrapped = wrapped
        self.span_names = tuple(f"{mod}.{name}" for mod, names in wrapped.items() for name in names)
        self.clock = clock
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.labels: dict[int, str] = {}
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0)
        self.scored_tokens = 0  # tokens scored or generated by the eval harness
        self.eval_forward_rows = 0  # forward rows computed inside the eval harness
        self._stack: list[int] = []
        self._eval_depth = 0
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for modname, names in self.wrapped.items():
            mod = sys.modules.get(f"{self.package}.{modname}")
            if mod is None:
                continue
            for name in names:
                owner, _, attr = name.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                fn = getattr(holder, attr, None) if holder is not None else None
                if not callable(fn):
                    continue
                wrapper = self._wrap(f"{modname}.{name}", fn)
                if owner:  # a method: the class attribute is its only binding
                    setattr(holder, attr, wrapper)
                    self._undo.append(((holder, attr), fn))
                else:
                    for site in rebind(self.package, fn, wrapper):
                        self._undo.append((site, fn))

    def uninstall(self) -> None:
        for (holder, attr), fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        after = getattr(self, "_after_" + span_name.replace(".", "_"), None)
        is_eval = span_name.startswith("evalharness.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [sid, parent, span_name, self.clock(), None]
            self.spans.append(span)
            self._stack.append(sid)
            self._eval_depth += is_eval
            try:
                result = fn(*args, **kwargs)
            finally:
                self._eval_depth -= is_eval
                self._stack.pop()
                span[4] = self.clock()
            if after is not None:
                after(sid, args, result)
            return result

        return wrapper

    def _after_tokenizer_encode(self, sid, args, result):
        self.counts["tokenizer.encode.bytes"] += len(args[1])
        self.counts["tokenizer.encode.tokens"] += len(result)
        if self._inside("evalharness.bits_per_byte"):
            self.scored_tokens += len(result)  # each document token is scored once

    def _after_model_forward(self, sid, args, result):
        self.counts["model.forward.rows"] += len(args[1])
        if self._eval_depth:
            self.eval_forward_rows += len(args[1])

    def _after_model_backward(self, sid, args, result):
        self.counts["model.backward.rows"] += len(args[1])

    def _after_trainer_save_checkpoint(self, sid, args, result):
        self.counts["trainer.save_checkpoint.bytes"] += os.path.getsize(args[0])

    def _after_evalharness_sequence_logprob(self, sid, args, result):
        self.scored_tokens += len(args[2])

    def _after_evalharness_greedy_decode(self, sid, args, result):
        self.scored_tokens += len(result)

    def _after_cli_main(self, sid, args, result):
        argv = args[0] if args else []
        self.labels[sid] = " ".join(a for a in argv[:2] if not a.startswith("-"))

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][2] == name for i in self._stack)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per wrapped function: ``calls``, ``s`` (busy time: recursive calls
        are not counted twice) and ``self_s`` (busy time minus time in
        wrapped children). Plus the counts and derived ratios."""
        out = {}
        for name in self.span_names:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        child_time = [0.0] * len(self.spans)
        for sid, parent, name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, parent, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[sid]
            if not self._has_ancestor(parent, name):
                out[f"{name}.s"] += end - start
        out.update(self.counts)
        out["evalharness.rows_per_scored_token"] = (
            self.eval_forward_rows / self.scored_tokens if self.scored_tokens else 0.0
        )
        steps = out.get("trainer.adamw_step.calls", 0)
        out["trainer.diag_rows_per_step"] = (
            out.get("trainer.DiagnosticsLog.record.calls", 0) / steps if steps else 0.0
        )
        return out

    def _has_ancestor(self, sid: int, name: str) -> bool:
        while sid >= 0:
            if self.spans[sid][2] == name:
                return True
            sid = self.spans[sid][1]
        return False

    def write_spans(self, path: str, rep: int) -> None:
        with open(path, "a", encoding="utf-8") as f:
            for sid, parent, name, start, end in self.spans:
                rec = {"rep": rep, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if sid in self.labels:
                    rec["label"] = self.labels[sid]
                f.write(json.dumps(rec) + "\n")
