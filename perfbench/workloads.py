"""The four parts and the two workloads made of them: a seeded set-up, the
timed calls of one repetition, and the checks on their outputs.

Each repetition drives ``finforge.cli.main`` in this process as a closed
loop: one caller waits for each call before making the next. Functions of
the program are always reached through their module (``T.encode``, not a
saved reference), so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from finforge import cli
from finforge import evalharness as E
from finforge import model as M
from finforge import scaling as S
from finforge import tokenizer as T
from finforge import trainer as R

import gen
import tracing


@dataclass
class Phase:
    """One timed call, from ``time.perf_counter()`` value ``start``. ``code``
    is the CLI exit code, None for a call the benchmark makes itself."""

    name: str
    start: float
    seconds: float
    code: int | None = None
    stdout: bytes = b""
    stderr: str = ""
    value: object = None
    part: str = ""  # the workload that made it, inside a Composite


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Fixture:
    dir: str
    paths: dict[str, str] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    parts: list["Fixture"] = field(default_factory=list)

    @property
    def out(self) -> str:
        """Where a repetition writes; emptied before each one."""
        return os.path.join(self.dir, "out")


def run_cli(name: str, argv: list[str]) -> Phase:
    """Run one CLI call in this process with its standard streams captured."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n", write_through=True)
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = saved
    return Phase(name, start, seconds, code, out.buffer.getvalue(), err.getvalue())


def timed(name: str, fn, *args) -> Phase:
    start = time.perf_counter()
    value = fn(*args)
    return Phase(name, start, time.perf_counter() - start, value=value)


def sha256_file(path: str) -> str:
    # Read in chunks: a whole checkpoint read at once would add its size to
    # the peak memory the benchmark reports.
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixture_tokenizer(text: str, vocab_size: int) -> T.TokenizerModel:
    """A tokenizer made without EM: ``finalize`` over a unigram vocabulary of
    the text's most frequent pretoken substrings (scored by count x length)
    plus every byte, so that tokenizer-training changes do not move the
    workloads that only use a tokenizer."""
    max_len = 10  # longest substring considered, in bytes
    subs: Counter = Counter()
    singles: Counter = Counter(bytes([b]) for b in range(256))  # add-one for every byte
    for m in gen.PRETOKEN_RE.finditer(text):
        word = m.group(0).encode()
        singles.update(word[i : i + 1] for i in range(len(word)))
        for i in range(len(word)):
            for j in range(i + 2, min(i + max_len, len(word)) + 1):
                subs[word[i:j]] += 1
    n_multi = vocab_size - 256 - 1  # every byte, plus <|endoftext|>
    ranked = sorted(subs.items(), key=lambda tc: (-tc[1] * len(tc[0]), tc[0]))[:n_multi]
    if len(ranked) < n_multi:
        raise ValueError(f"sample too small for a {vocab_size}-token fixture tokenizer")
    weights = dict(singles)
    weights.update((t, c * len(t)) for t, c in ranked)
    total = math.fsum(weights.values())
    vocab = T.UnigramVocab({t: w / total for t, w in sorted(weights.items())}, float(len(text)))
    tok = T.finalize(vocab)
    assert tok.vocab_size == vocab_size
    return tok


def _joined(docs: dict[str, list[str]]) -> list[str]:
    return [d for domain in gen.DOMAINS for d in docs[domain]]


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int, d: str) -> Fixture:
        """Write the inputs and fixtures into ``d``."""
        raise NotImplementedError

    def run(self, fx: Fixture) -> list[Phase]:
        """One repetition: the timed calls, writing their outputs into ``fx.out``."""
        raise NotImplementedError

    def fingerprint(self, fx: Fixture, phases: list[Phase]) -> dict[str, str]:
        """Digests of every output that must repeat byte for byte."""
        fp = {f"{p.name}.stdout": sha256(p.stdout) for p in phases if p.code is not None}
        for name in sorted(os.listdir(fx.out)):
            fp[name] = sha256_file(os.path.join(fx.out, name))
        return fp

    def checks(self, fx: Fixture, phases: list[Phase]) -> list[Check]:
        return []

    def rates(self, fx: Fixture, phases: list[Phase]) -> dict[str, tuple[float, str]]:
        """The workload's own throughput and quality metrics for one repetition."""
        raise NotImplementedError

    def expected_counts(self, fx: Fixture) -> dict[str, int]:
        """Span counts one traced repetition must show, computed from the
        workload's own settings."""
        return {}

    def clear(self, fx: Fixture) -> None:
        """Empty the output directory before a repetition."""
        shutil.rmtree(fx.out, ignore_errors=True)
        os.makedirs(fx.out)

    def quality(self, fx: Fixture, rates: dict[str, list[float]]) -> tuple[float, list[Check]]:
        """Held-out bytes per token under the workload's tokenizer, with the
        round-trip check; computed once, outside the timed calls. ``rates``
        holds each repetition's rates()."""
        tok = T.load_tokenizer(fx.paths["tokenizer"])
        text = fx.info["heldout"]
        ids = T.encode(tok, text)
        return len(text) / len(ids), [Check("decode(encode(heldout)) == heldout", T.decode(tok, ids) == text)]


# ---------------------------------------------------------------------------


class TokTrain(Workload):
    name = "tok-train"
    why = "tokenizer EM training then Viterbi encode of held-out text; no model or trainer code runs"
    DOMAINS, CHUNKS = 2, 2
    CORPUS_BYTES = 4_000
    CHUNK_VOCAB, TARGET_VOCAB = 150, 384
    HELDOUT_BYTES = 256_000

    def setup(self, seed, d):
        docs = gen.corpus(seed, "train", self.CORPUS_BYTES)
        held = gen.corpus(seed, "heldout", self.HELDOUT_BYTES)
        gen.check_disjoint(_joined(docs), _joined(held))
        corpus_dir = os.path.join(d, "corpus")
        for domain, texts in docs.items():
            os.makedirs(os.path.join(corpus_dir, domain))
            gen.write_jsonl(os.path.join(corpus_dir, domain, "docs.jsonl"), texts)
        heldout = "\n".join(_joined(held)).encode()
        path = os.path.join(d, "heldout.txt")
        with open(path, "wb") as f:
            f.write(heldout)
        return Fixture(d, {"corpus": corpus_dir, "heldout": path}, {
            "corpus_bytes": sum(len(t.encode()) for t in _joined(docs)),
            "heldout_bytes": len(heldout),
            "class_shares": gen.class_shares(_joined(docs)),
        })

    def run(self, fx):
        tok_path = os.path.join(fx.out, "tokenizer.txt")
        train = run_cli("train-tokenizer", [
            "train-tokenizer", "--corpus", fx.paths["corpus"],
            "--domains", str(self.DOMAINS), "--chunks", str(self.CHUNKS),
            "--chunk-vocab", str(self.CHUNK_VOCAB), "--target-vocab", str(self.TARGET_VOCAB),
            "--out", tok_path,
        ])
        if train.code != 0:
            return [train]
        with open(fx.paths["heldout"], "rb") as f:
            heldout = f.read()
        tok = T.load_tokenizer(tok_path)
        enc = timed("encode", T.encode, tok, heldout)
        enc.value = (tok, heldout, enc.value)
        return [train, enc]

    def fingerprint(self, fx, phases):
        fp = super().fingerprint(fx, phases)
        if len(phases) == 2:
            fp["encode.ids"] = sha256(np.asarray(phases[1].value[2], dtype="<i8").tobytes())
        return fp

    def checks(self, fx, phases):
        if len(phases) != 2:
            return []
        tok, heldout, ids = phases[1].value
        return [
            Check("tokenizer vocab size", tok.vocab_size == self.TARGET_VOCAB, f"got {tok.vocab_size}"),
            Check("decode(encode(heldout)) == heldout", T.decode(tok, ids) == heldout),
        ]

    def rates(self, fx, phases):
        train, enc = phases
        ids = enc.value[2]
        return {
            "tok_train_kb_s": (fx.info["corpus_bytes"] / 1e3 / train.seconds, "KB/s"),
            "encode_mb_s": (fx.info["heldout_bytes"] / 1e6 / enc.seconds, "MB/s"),
            "tok_bytes_per_token": (fx.info["heldout_bytes"] / len(ids), "B/token"),
        }

    def quality(self, fx, rates):
        # Measured on every repetition's own encode; the round trip is in checks().
        values = rates.get("tok_bytes_per_token") or [float("nan")]
        return values[0], []

    def expected_counts(self, fx):
        return {
            "tokenizer.train_chunk_unigram.calls": self.DOMAINS * self.CHUNKS,
            "tokenizer.merge_vocabs.calls": self.DOMAINS + 1,
            "cli.main.calls": 1,
        }


@dataclass
class TrainShape:
    layers: int
    heads: int
    head_dim: int
    vocab: int
    seq_len: int
    batch: int
    steps: int
    checkpoint_interval: int
    corpus_bytes: int
    val_bytes: int


class Train(Workload):
    """``finforge train`` from scratch on a fixture tokenizer."""

    VAL_CHUNKS = 1
    TOKENIZER_SAMPLE = 16_000

    def __init__(self, name: str, why: str, shape: TrainShape):
        self.name, self.why, self.shape = name, why, shape

    def setup(self, seed, d):
        s = self.shape
        docs = _joined(gen.corpus(seed, "train", s.corpus_bytes))
        val = _joined(gen.corpus(seed, "heldout", s.val_bytes))
        gen.check_disjoint(docs, val)
        paths = {k: os.path.join(d, v) for k, v in (
            ("corpus", "train.jsonl"), ("val", "val.jsonl"), ("tokenizer", "tokenizer.txt"),
            ("config", "run.cfg"),
        )}
        gen.write_jsonl(paths["corpus"], docs)
        gen.write_jsonl(paths["val"], val)
        sample = "\n".join(_joined(gen.corpus(seed, "train", self.TOKENIZER_SAMPLE)))
        T.save_tokenizer(fixture_tokenizer(sample, s.vocab), paths["tokenizer"])
        config = {
            "corpus": paths["corpus"], "val_corpus": paths["val"],
            "tokenizer": paths["tokenizer"], "out_dir": os.path.join(d, "out"),
            "steps": s.steps, "layers": s.layers, "heads": s.heads, "head_dim": s.head_dim,
            "init_seed": seed, "seed": seed, "val_max_chunks": self.VAL_CHUNKS,
            "seq_len": s.seq_len, "batch_warmup_size": s.batch, "batch_main_size": s.batch,
            "max_lr": 3e-4, "final_lr": 3e-5, "warmup_steps": max(1, s.steps // 4),
            "horizon_steps": 10 * s.steps, "train_loss_interval": 1,
            "val_interval": s.steps, "checkpoint_interval": s.checkpoint_interval,
        }
        with open(paths["config"], "w", encoding="utf-8") as f:
            f.writelines(f"{k} = {v}\n" for k, v in config.items())
        return Fixture(d, paths, {
            "class_shares": gen.class_shares(docs),
            "heldout": "\n".join(val).encode(),
        })

    def run(self, fx):
        return [run_cli("train", ["train", "--config", fx.paths["config"]])]

    def _final_loss(self, fx) -> float | None:
        with open(os.path.join(fx.out, "diagnostics.csv"), encoding="utf-8") as f:
            rows = [line.rstrip("\n").split(",") for line in f]
        losses = [(int(r[0]), float(r[3])) for r in rows if r[1:3] == ["train_loss", "raw"]]
        return losses[-1][1] if losses and losses[-1][0] == self.shape.steps else None

    def checks(self, fx, phases):
        s = self.shape
        ckpts = sorted(n for n in os.listdir(fx.out) if n.startswith("checkpoint-"))
        want = sorted({f"checkpoint-{k:08d}.bin" for k in
                       list(range(s.checkpoint_interval, s.steps + 1, s.checkpoint_interval)) + [s.steps]})
        loss = self._final_loss(fx)
        return [
            Check("stdout final_step", f"final_step,{s.steps}\n".encode() in phases[0].stdout),
            Check("checkpoints written", ckpts == want, f"got {ckpts}"),
            Check("final train loss finite", loss is not None and math.isfinite(loss), f"got {loss}"),
        ]

    def rates(self, fx, phases):
        s = self.shape
        return {
            "train_tok_s": (s.steps * s.batch * s.seq_len / phases[0].seconds, "tok/s"),
            "train_final_loss": (self._final_loss(fx), "nats"),
        }

    def expected_counts(self, fx):
        s = self.shape
        return {
            "model.backward.calls": s.steps * s.batch,
            "trainer.adamw_step.calls": s.steps,
            "trainer.save_checkpoint.calls": s.steps // s.checkpoint_interval + 1,
            "trainer.validation_loss.calls": 1,
            "cli.main.calls": 1,
        }


class EvalFewshot(Workload):
    name = "eval-fewshot"
    why = "few-shot classify, greedy generation and sliding-window bits per byte on one checkpoint"
    LAYERS, HEADS, HEAD_DIM, VOCAB = 2, 4, 16, 1024
    TASKS, CANDIDATES, POOL, SHOTS = 2, len(gen.CANDIDATES), 8, 5
    PROMPT_BYTES, NEW_TOKENS = 600, 32
    BPB_BYTES, WINDOW, STRIDE = 4_000, 256, 128
    TOKENIZER_SAMPLE = 16_000

    def setup(self, seed, d):
        paths = {k: os.path.join(d, v) for k, v in (
            ("tokenizer", "tokenizer.txt"), ("model", "model.bin"), ("tasks", "tasks.jsonl"),
            ("docs", "heldout.jsonl"),
        )}
        train = _joined(gen.corpus(seed, "train", self.TOKENIZER_SAMPLE))
        docs = _joined(gen.corpus(seed, "heldout", self.BPB_BYTES))
        gen.check_disjoint(train, docs)
        tok = fixture_tokenizer("\n".join(train), self.VOCAB)
        T.save_tokenizer(tok, paths["tokenizer"])
        hidden = self.HEADS * self.HEAD_DIM
        shape = S.ModelShape(self.LAYERS, self.HEADS, hidden, self.HEAD_DIM, 4 * hidden, self.VOCAB)
        params = M.init_params(shape, seed)
        # The separator's embedding (and so, tied, its output logit) is zero:
        # greedy decoding then never stops early, and always does the full
        # --max-new-tokens of work that the check below asserts.
        params["Wem"][:, tok.eot_id] = 0.0
        R.save_checkpoint(paths["model"], shape, R.TrainConfig(), params, R.TrainState.fresh(params))
        tasks = gen.few_shot_tasks(seed, self.TASKS, self.POOL)
        with open(paths["tasks"], "w", encoding="utf-8", newline="\n") as f:
            f.writelines(json.dumps(t, sort_keys=True) + "\n" for t in tasks)
        gen.write_jsonl(paths["docs"], docs)
        return Fixture(d, paths, {
            "class_shares": gen.class_shares(train),
            "heldout": "\n".join(docs).encode(),
            "bpb_bytes": sum(len(t.encode()) for t in docs),
            "prompt": gen.prompt(seed, self.PROMPT_BYTES),
        })

    def run(self, fx):
        common = ["--model", fx.paths["model"], "--tokenizer", fx.paths["tokenizer"]]
        generated = []

        def greedy_decode(*args, **kwargs):
            result = observed(*args, **kwargs)
            generated.append(len(result))
            return result

        observed = E.greedy_decode
        sites = tracing.rebind("finforge", observed, greedy_decode)
        try:
            phases = [
                run_cli("classify", ["eval", "classify", *common, "--tasks", fx.paths["tasks"],
                                     "--method", "all", "--shots", str(self.SHOTS),
                                     "--seed", "0"]),
                run_cli("generate", ["eval", "generate", *common, "--prompt", fx.info["prompt"],
                                     "--max-new-tokens", str(self.NEW_TOKENS)]),
                run_cli("bpb", ["eval", "bpb", *common, "--docs", fx.paths["docs"],
                                "--window", str(self.WINDOW), "--stride", str(self.STRIDE)]),
            ]
        finally:
            for mod, attr in sites:
                setattr(mod, attr, observed)
        phases[1].value = generated
        return phases

    def checks(self, fx, phases):
        classify, generate, bpb = phases
        rows = classify.stdout.decode().splitlines()[1:]
        chosen = [r.split(",")[2] for r in rows]
        want_rows = self.TASKS * len(E.METHODS)
        bpb_line = bpb.stdout.decode().strip()
        try:
            bpb_value = float(bpb_line.split(",", 1)[1])
        except (IndexError, ValueError):
            bpb_value = float("nan")
        return [
            Check("classify rows", len(rows) == want_rows
                  and all(c in gen.CANDIDATES for c in chosen), f"got {len(rows)} rows"),
            Check(f"generate emitted {self.NEW_TOKENS} tokens",
                  generate.value == [self.NEW_TOKENS], f"got {generate.value}"),
            Check("bits_per_byte positive", bpb_value > 0 and math.isfinite(bpb_value), bpb_line),
        ]

    def rates(self, fx, phases):
        classify, generate, bpb = phases
        return {
            "classify_ex_s": (self.TASKS / classify.seconds, "ex/s"),
            "generate_tok_s": (self.NEW_TOKENS / generate.seconds, "tok/s"),
            "bpb_kb_s": (fx.info["bpb_bytes"] / 1e3 / bpb.seconds, "KB/s"),
        }

    def expected_counts(self, fx):
        return {
            "evalharness.candidate_logprob.calls": 4 * self.CANDIDATES * self.TASKS,
            "evalharness.classify.calls": len(E.METHODS) * self.TASKS,
            "evalharness.greedy_decode.calls": 1,
            "evalharness.bits_per_byte.calls": 1,
            "trainer.load_checkpoint.calls": 3,
            "cli.main.calls": 3,
        }


class Composite(Workload):
    """Several workloads run one after another as one repetition. Their
    phases, checks, rates and expected span counts add up; the quality
    metric is the first part's."""

    def __init__(self, name: str, why: str, parts: list[Workload]):
        self.name, self.why, self.parts = name, why, parts

    def setup(self, seed, d):
        fx = Fixture(d)
        for part in self.parts:
            sub = os.path.join(d, part.name)
            os.makedirs(sub)
            fx.parts.append(part.setup(seed, sub))
            fx.info[part.name] = {k: v for k, v in fx.parts[-1].info.items() if isinstance(v, (int, float, dict))}
        return fx

    def clear(self, fx):
        for part, pfx in zip(self.parts, fx.parts):
            part.clear(pfx)

    def run(self, fx):
        phases = []
        for part, pfx in zip(self.parts, fx.parts):
            ran = part.run(pfx)
            for p in ran:
                p.part = part.name
            phases += ran
            if any(p.code not in (None, 0) for p in ran):
                break
        return phases

    def _each(self, fx, phases):
        for part, pfx in zip(self.parts, fx.parts):
            yield part, pfx, [p for p in phases if p.part == part.name]

    def fingerprint(self, fx, phases):
        return {f"{part.name}/{k}": v for part, pfx, ph in self._each(fx, phases)
                for k, v in part.fingerprint(pfx, ph).items()}

    def checks(self, fx, phases):
        return [c for part, pfx, ph in self._each(fx, phases) for c in part.checks(pfx, ph)]

    def rates(self, fx, phases):
        out = {}
        for part, pfx, ph in self._each(fx, phases):
            out.update(part.rates(pfx, ph))
        return out

    def quality(self, fx, rates):
        value, checks = self.parts[0].quality(fx.parts[0], rates)
        for part, pfx in zip(self.parts[1:], fx.parts[1:]):
            checks += part.quality(pfx, rates)[1]
        return value, checks

    def expected_counts(self, fx):
        out: Counter = Counter()
        for part, pfx in zip(self.parts, fx.parts):
            out.update(part.expected_counts(pfx))
        return dict(out)


_TOK = TokTrain()
_WIDE = Train("train-wide", "model-bound training where matrix contractions dominate: L4 N8 Dh32, V 1024, seq_len 128",
              TrainShape(4, 8, 32, 1024, 128, 2, 2, 1, 12_000, 2_000))
_TINY = Train("train-tiny", "trainer per-step and per-call overhead: L2 N2 Dh8, seq_len 32, 200 short steps",
              TrainShape(2, 2, 8, 512, 32, 2, 200, 50, 12_000, 2_000))
_EVAL = EvalFewshot()

# The two workloads the benchmark is judged on (BENCHMARK.json). Each run is
# long, because on a shared 2-core VM the speed of the same code swings by up
# to 1.6x for seconds to minutes and short runs spread widely; that leaves
# time for two. Each is the other's control: tokenizer EM and per-call
# overhead run only in the first, wide contractions, eval and prefix
# recomputation only in the second.
BENCHMARK_WORKLOADS = (
    Composite("tok-and-tiny", "tok-train then train-tiny: tokenizer EM, Viterbi encode and trainer per-step overhead; "
              "no eval and no wide model", [_TOK, _TINY]),
    Composite("wide-and-eval", "train-wide then eval-fewshot: wide-model contractions, few-shot classify, generation "
              "and bpb; no tokenizer training", [_WIDE, _EVAL]),
)
WORKLOADS = {w.name: w for w in (_TOK, _WIDE, _TINY, _EVAL) + BENCHMARK_WORKLOADS}
