"""Command-line surface tying the modules into reproducible pipelines.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Stdout carries data (tables, results); stderr carries diagnostics.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import sys

import numpy as np

from . import config as C
from . import evalharness as E
from . import model as M
from . import scaling as S
from . import tokenizer as T
from . import trainer as R
from .atomic import read_lines
from .vocabselect import best_size, round_up_pow2, sweep

EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _number(kind, low, high=math.inf, above=False):
    """An argparse ``type=`` for a ``kind`` of at least ``low`` (above
    ``low`` when ``above``) and at most ``high``. argparse turns a rejected
    value into a usage error that names the flag."""
    want = f"{kind.__name__} {'above' if above else 'at least'} {low}"
    if high < math.inf:
        want += f" and at most {high}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan  # fails every comparison below, as a NaN input does
        if not (low < value if above else low <= value) or not value <= high:
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
        return value

    return parse


_count = _number(int, 1)
_positive = _number(float, 0, above=True)


# ---------------------------------------------------------------------------
# Corpus ingestion


def read_documents(path: str) -> list[bytes]:
    """A corpus is a .jsonl file (records with a ``text`` field), a .txt
    file (one document), or a directory of such files."""
    if os.path.isdir(path):
        docs = []
        for name in sorted(os.listdir(path)):
            full = os.path.join(path, name)
            if os.path.isfile(full) and name.endswith((".txt", ".jsonl")):
                docs.extend(read_documents(full))
        if not docs:
            raise ValueError(f"no .txt or .jsonl documents under {path}")
        return docs
    if path.endswith(".jsonl"):
        docs = []
        for lineno, line in read_lines(path):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
            text = rec.get("text") if isinstance(rec, dict) else None
            if not isinstance(text, str) or not text:
                raise ValueError(f"{path}:{lineno}: record without text")
            docs.append(text.encode("utf-8"))
        return docs
    with open(path, "rb") as f:
        return [f.read()]


def partition_corpus(path: str, domains: int, chunks: int) -> list[list[bytes]]:
    """K x C byte chunks. Subdirectories are domains when present; otherwise
    documents are split evenly into K groups. Each domain's bytes are cut
    into C contiguous chunks of near-equal size."""
    subdirs = (
        sorted(
            d for d in os.listdir(path) if os.path.isdir(os.path.join(path, d))
        )
        if os.path.isdir(path)
        else []
    )
    if subdirs:
        groups = [b"".join(read_documents(os.path.join(path, d))) for d in subdirs]
        if len(groups) != domains:
            raise ValueError(
                f"{path} has {len(groups)} domain subdirectories, expected {domains}"
            )
    else:
        docs = read_documents(path)
        parts = np.array_split(np.arange(len(docs)), domains)
        groups = [b"".join(docs[i] for i in idx) for idx in parts]
    out = []
    for blob in groups:
        if len(blob) < chunks:
            raise ValueError("domain too small for the requested chunk count")
        bounds = np.linspace(0, len(blob), chunks + 1, dtype=int)
        out.append([blob[bounds[i] : bounds[i + 1]] for i in range(chunks)])
    return out


def _load_model(path: str) -> M.LanguageModel:
    """The checkpoint's model; its AdamW moments are not read."""
    shape, cfg, params, _ = R.load_checkpoint(path, moments=False)
    return M.LanguageModel(shape, params, eps=cfg.ln_eps, qk_layer_scaling=cfg.qk_layer_scaling)


def _check_vocab(tok: T.TokenizerModel, tok_path: str, shape: S.ModelShape, ckpt_path: str):
    """A tokenizer of another size than the checkpoint's vocabulary would
    feed it ids that its embedding does not have, or never use some."""
    if tok.vocab_size != shape.vocab:
        raise ValueError(
            f"tokenizer {tok_path} has {tok.vocab_size} tokens, but checkpoint "
            f"{ckpt_path} has a vocabulary of {shape.vocab}"
        )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train_tokenizer(args) -> int:
    domains = partition_corpus(args.corpus, args.domains, args.chunks)
    model = T.train_parallel(domains, args.chunk_vocab, args.target_vocab)
    T.save_tokenizer(model, args.out)
    holdout = domains[0][0][: 64 * 1024]
    n_tok = len(T.encode(model, holdout))
    bpt = len(holdout) / n_tok if n_tok else float("nan")
    print(f"vocab_size,{model.vocab_size}")
    print(f"holdout_bytes_per_token,{bpt:.4f}")
    print(f"out,{args.out}")
    return 0


def cmd_sweep_vocab(args) -> int:
    docs = read_documents(args.corpus)
    blob = b"".join(docs)
    base = T.train_chunk_unigram(blob, args.base_vocab)
    swept = sweep(base, docs, sorted(args.candidates))
    total_bytes = sum(len(d) for d in docs)
    print("size,tokens,bits,bits_per_byte")
    for c in swept:
        print(f"{c.size},{c.encoded_tokens},{c.encoded_bits:.6f},{c.encoded_bits / total_bytes:.6f}")
    best = best_size(swept)
    print(f"chosen_raw,{best}")
    print(f"chosen_rounded,{round_up_pow2(best)}")
    return 0


def cmd_plan(args) -> int:
    shape = None if args.shape is None else _parse_shape(args.shape, args.vocab)
    if args.params_only is not None:
        target = args.params_only
    else:
        budget = S.ComputeBudget(args.gpu_hours, args.tflops * 1e12, args.discount)
        flops = S.effective_flops(budget)
        print(f"effective_flops,{flops:.6e}")
        sizes = []
        for fit in (S.APPROACH_1, S.APPROACH_2):
            p, t = S.chinchilla_predict(flops, fit)
            sizes.append(p)
            print(f"approach{fit.approach}_params,{p:.6e}")
            print(f"approach{fit.approach}_tokens,{t:.6e}")
        target = 0.5 * (sizes[0] + sizes[1])
    if shape is None:
        shape = S.propose_shape(target, args.vocab)
    print(
        f"shape,layers={shape.layers},heads={shape.heads},hidden={shape.hidden},"
        f"head_dim={shape.head_dim},ffn={shape.ffn_hidden},vocab={shape.vocab}"
    )
    table = S.count_parameters(shape)
    width = max(len(r.name) for r in table.rows)
    for r in table.rows:
        print(f"{r.name},{r.per_instance},{r.instances},{r.total}", file=sys.stdout)
        print(f"  {r.name:<{width}} {r.per_instance:>15,} x {r.instances:>5} = {r.total:>18,}", file=sys.stderr)
    print(f"grand_total,{table.grand_total}")
    return 0


def _parse_shape(spec: str, vocab: int) -> S.ModelShape:
    try:
        layers, heads, head_dim = (int(x) for x in spec.split(","))
    except ValueError:
        raise _UsageError(f"--shape takes layers,heads,head_dim as integers, got {spec!r}") from None
    if min(layers, heads, head_dim) < 1:
        raise _UsageError(f"--shape needs layers, heads and head_dim of at least 1, got {spec!r}")
    return S.ModelShape(layers, heads, heads * head_dim, head_dim, 4 * heads * head_dim, vocab)


def cmd_train(args) -> int:
    if not args.resume and (args.override or args.reshuffle):
        raise _UsageError("--override and --reshuffle apply only with --resume")
    values = C.parse_config(args.config)
    out_dir = values["out_dir"]
    if not args.resume and os.path.isdir(out_dir):
        # A fresh run would append to an earlier run's rows and leave its
        # later checkpoints, which belong to another trajectory.
        for name in sorted(os.listdir(out_dir)):
            if name == "diagnostics.csv" or fnmatch.fnmatch(name, "checkpoint-*.bin"):
                raise ValueError(f"{os.path.join(out_dir, name)}: out_dir holds an earlier run; "
                                 "resume it with --resume, or train into an empty out_dir")
    tok = T.load_tokenizer(values["tokenizer"])
    try:
        cfg = C.train_config_from(values)
        hidden = values["heads"] * values["head_dim"]
        shape = S.ModelShape(
            values["layers"], values["heads"], hidden, values["head_dim"], 4 * hidden,
            tok.vocab_size,
        )
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    ckpt = R.load_checkpoint(args.resume) if args.resume else None
    if ckpt:
        _check_vocab(tok, values["tokenizer"], ckpt[0], args.resume)
    docs_raw = read_documents(values["corpus"])
    docs = [T.encode(tok, d) for d in docs_raw]
    docs = R.shuffle_stream(docs, R.derive_seed(cfg.seed, "doc-shuffle"))
    val_docs = None
    if values["val_corpus"]:
        val_raw = read_documents(values["val_corpus"])[: values["val_max_chunks"]]
        val_docs = [T.encode(tok, d) for d in val_raw]

    if args.resume:
        try:
            overrides = C.parse_overrides(args.override)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        os.makedirs(out_dir, exist_ok=True)
        R.cut_diagnostics(out_dir, ckpt[3].step)
        with R.DiagnosticsLog(os.path.join(out_dir, "diagnostics.csv")) as diag:
            shape, cfg, params, state = R.resume_with_overrides(
                ckpt, overrides, args.reshuffle, diag
            )
    else:
        params = M.init_params(shape, values["init_seed"])
        state = None

    for line in C.resolved_lines(values, cfg):
        print(line, file=sys.stderr)
    try:
        state, last = R.train(
            params, shape, docs, cfg, values["steps"], out_dir,
            eot_id=tok.eot_id, val_docs=val_docs, state=state,
        )
    except R.TrainingDiverged as exc:
        exc.last_checkpoint = exc.last_checkpoint or args.resume  # where this run began
        raise
    except R.StateMismatch as exc:
        raise ValueError(f"{args.resume}: {exc}") from None
    print(f"final_checkpoint,{last}")
    print(f"final_step,{state.step}")
    return 0


def cmd_eval(args) -> int:
    if args.eval_cmd == "bpb" and args.stride >= args.window:
        raise _UsageError(
            f"--stride must be less than --window, got {args.stride} and {args.window}"
        )
    lm = _load_model(args.model)
    tok = T.load_tokenizer(args.tokenizer)
    _check_vocab(tok, args.tokenizer, lm.shape, args.model)
    if args.eval_cmd == "bpb":
        docs = read_documents(args.docs)
        bpb = E.bits_per_byte(lm, docs, tok, window=args.window, stride=args.stride)
        print(f"bits_per_byte,{bpb:.10f}")
        return 0
    if args.eval_cmd == "generate":
        prompt = [tok.eot_id] + T.encode(tok, args.prompt.encode("utf-8"))
        out = E.greedy_decode(lm, prompt, args.max_new_tokens, eot_id=tok.eot_id)
        sys.stdout.buffer.write(T.decode(tok, out) + b"\n")
        return 0
    # classify
    records = E.load_tasks(args.tasks)
    methods = E.METHODS if args.method == "all" else (args.method,)
    failures = 0
    print("example_id,method,chosen,correct")
    for i, rec in enumerate(records):
        try:
            if "candidates" not in rec:
                raise ValueError("record has no 'candidates' to classify")
            pool = [
                (s["context"].encode(), s["gold"].encode())
                for s in rec.get("shots_pool", [])
            ]
            context = rec["context"].encode()
            if args.shots:
                context = E.assemble_prompt(context, pool, args.shots, args.seed, i)
            task = E.ClassificationTask(
                context=context,
                candidates=tuple(c.encode() for c in rec["candidates"]),
                gold=rec.get("gold", "").encode() or None,
            )
            for method in methods:
                chosen = E.classify(lm, tok, task, method)
                correct = "" if task.gold is None else int(chosen == task.gold)
                print(f"{i},{method},{chosen.decode('utf-8', 'replace')},{correct}")
        except ValueError as exc:
            failures += 1
            print(f"example {i}: {exc}", file=sys.stderr)
    return EXIT_DATA if failures else 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="finforge")
    sub = p.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("train-tokenizer")
    t.add_argument("--corpus", required=True)
    t.add_argument("--domains", type=_count, default=1)
    t.add_argument("--chunks", type=_count, default=1)
    t.add_argument("--chunk-vocab", type=_count, default=65536)
    t.add_argument("--target-vocab", type=_count, default=2**17)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train_tokenizer)

    v = sub.add_parser("sweep-vocab")
    v.add_argument("--corpus", required=True)
    v.add_argument(
        "--candidates", required=True, help="comma-separated sizes",
        type=lambda text: [_count(c) for c in text.split(",")],
    )
    v.add_argument("--base-vocab", type=_count, default=4096)
    v.set_defaults(fn=cmd_sweep_vocab)

    pl = sub.add_parser("plan")
    pl.add_argument("--gpu-hours", type=_positive, default=1.3e6)
    pl.add_argument("--tflops", type=_positive, default=102.0)
    pl.add_argument("--discount", type=_number(float, 0, high=1, above=True), default=0.75)
    pl.add_argument("--vocab", type=_count, default=2**17)
    pl.add_argument("--params-only", type=_positive, default=None)
    pl.add_argument("--shape", default=None, help="layers,heads,head_dim")
    pl.set_defaults(fn=cmd_plan)

    tr = sub.add_parser("train")
    tr.add_argument("--config", required=True)
    tr.add_argument("--resume", default=None)
    tr.add_argument("--override", action="append", default=[])
    tr.add_argument("--reshuffle", action="store_true")
    tr.set_defaults(fn=cmd_train)

    ev = sub.add_parser("eval")
    evs = ev.add_subparsers(dest="eval_cmd", required=True)
    for name in ("bpb", "classify", "generate"):
        e = evs.add_parser(name)
        e.add_argument("--model", required=True)
        e.add_argument("--tokenizer", required=True)
        if name == "bpb":
            e.add_argument("--docs", required=True)
            e.add_argument("--window", type=_number(int, 2), default=E.WINDOW)
            e.add_argument("--stride", type=_count, default=E.STRIDE)
        elif name == "classify":
            e.add_argument("--tasks", required=True)
            e.add_argument("--method", default="all", choices=("all",) + E.METHODS)
            e.add_argument("--shots", type=_number(int, 0), default=0)
            e.add_argument("--seed", type=int, default=0)
        else:
            e.add_argument("--prompt", required=True)
            e.add_argument("--max-new-tokens", type=_count, default=32)
        e.set_defaults(fn=cmd_eval)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (M.NonFiniteError, R.TrainingDiverged) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
