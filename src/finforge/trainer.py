"""Training loop: document packing, AdamW with weight-decay exclusions,
learning-rate and batch-size warmup schedules, gradient clipping, smoothed
loss, per-component diagnostics, and checkpoint/rollback with overrides.

Determinism contract: (seed, config, corpus) fully determine the parameter
trajectory. All randomness (shuffles, dropout) is derived from the root seed
by labeled hashing, so resuming from a checkpoint is bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import model as M
from .atomic import atomic_write
from .scaling import ModelShape

CHECKPOINT_MAGIC = b"BGPT"
CHECKPOINT_VERSION = 1


def derive_seed(root: int, label: str) -> int:
    h = hashlib.blake2b(f"{root}:{label}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class TrainConfig:
    max_lr: float = 6e-5
    final_lr: float = 6e-6
    warmup_steps: int = 1800
    horizon_steps: int = 139_200
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.1
    clip_norm: float = 0.3
    seq_len: int = 2048
    batch_warmup_size: int = 1024
    batch_main_size: int = 2048
    batch_warmup_steps: int = 7200
    dropout_at: float = 0.0
    dropout_h: float = 0.0
    dropout_f: float = 0.0
    qk_layer_scaling: bool = False
    adam_eps: float = 1e-8
    ln_eps: float = 1e-5
    smooth_alpha: float = 0.001
    loss_on_separator: bool = True
    train_loss_interval: int = 5
    val_interval: int = 300
    checkpoint_interval: int = 300
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.final_lr <= self.max_lr:
            raise ValueError("need 0 < final_lr <= max_lr")
        if self.warmup_steps >= self.horizon_steps:
            raise ValueError("warmup_steps must be below horizon_steps")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")


def horizon_from_tokens(total_tokens: float, cfg: TrainConfig) -> int:
    """Cosine horizon: planned tokens over the post-warmup tokens per step."""
    return math.ceil(total_tokens / (cfg.batch_main_size * cfg.seq_len))


# ---------------------------------------------------------------------------
# Data pipeline


def pack_documents(docs: list[list[int]], seq_len: int, eot_id: int) -> list[list[int]]:
    """Concatenate docs with a separator after each, then cut into chunks of
    exactly ``seq_len`` tokens; the final partial chunk is dropped."""
    if seq_len < 2:
        raise ValueError("seq_len must be at least 2")
    stream: list[int] = []
    for doc in docs:
        stream.extend(doc)
        stream.append(eot_id)
    n_chunks = len(stream) // seq_len
    return [stream[i * seq_len : (i + 1) * seq_len] for i in range(n_chunks)]


def _fisher_yates(n: int, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def shuffle_stream(docs: list, seed: int, mode: str = "full", shard_count: int = 1):
    """Deterministic permutation of documents. ``full`` permutes globally;
    ``shard_level`` permutes contiguous shards, preserving in-shard order."""
    if mode == "full":
        perm = _fisher_yates(len(docs), seed)
        return [docs[i] for i in perm]
    if mode == "shard_level":
        bounds = np.array_split(np.arange(len(docs)), shard_count)
        perm = _fisher_yates(len(bounds), seed)
        out = []
        for s in perm:
            out.extend(docs[i] for i in bounds[s])
        return out
    raise ValueError(f"unknown shuffle mode {mode!r}")


# ---------------------------------------------------------------------------
# Schedules


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup from 0, cosine decay to final_lr, then flat."""
    if step < 0:
        raise ValueError("step must be non-negative")
    if step <= cfg.warmup_steps:
        return cfg.max_lr * step / cfg.warmup_steps
    if step >= cfg.horizon_steps:
        return cfg.final_lr
    frac = (step - cfg.warmup_steps) / (cfg.horizon_steps - cfg.warmup_steps)
    return cfg.final_lr + 0.5 * (cfg.max_lr - cfg.final_lr) * (1.0 + math.cos(math.pi * frac))


def batch_size_at(step: int, cfg: TrainConfig) -> int:
    if step < 1:
        raise ValueError("step counts from 1")
    return cfg.batch_warmup_size if step <= cfg.batch_warmup_steps else cfg.batch_main_size


# ---------------------------------------------------------------------------
# Optimizer


def grad_global_norm(grads: dict[str, np.ndarray]) -> float:
    """Global L2 norm; ``inf`` when a group's or the total's square overflows."""
    with np.errstate(over="ignore"):
        squares = [float(np.sum(g * g)) for g in grads.values()]
    try:
        return math.sqrt(math.fsum(squares))
    except OverflowError:
        return math.inf


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float):
    """Scale all gradients so the global L2 norm is at most ``clip_norm``.

    A non-finite norm raises ``NonFiniteError`` naming the first group, in
    ``grads``'s order, whose gradient is not finite, or saying that the
    squared norm overflowed while every group was finite."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    norm = grad_global_norm(grads)
    if not math.isfinite(norm):
        for name in grads:
            if not np.isfinite(grads[name]).all():
                raise M.NonFiniteError(f"non-finite gradient in {name}")
        raise M.NonFiniteError("gradient norm overflows float64; every group is finite")
    if norm > clip_norm:
        scale = clip_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    return grads, norm


def decayed(name: str) -> bool:
    """Weight matrices get decay; LayerNorm gains/biases and bias vectors do not."""
    return name.rsplit(".", 1)[-1][0] in ("W", "U")


def adamw_step(params, grads, state: "TrainState", lr: float, cfg: TrainConfig) -> None:
    """One AdamW update with bias correction, in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, theta in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
        if decayed(name):
            update = update + cfg.weight_decay * theta
        theta -= lr * update


def smoothed_loss(series: list[float], alpha: float = 0.001) -> float:
    """Normalized exponential running average of the last series value."""
    if not series:
        raise ValueError("series is empty")
    state = TrainState()
    for x in series:
        smooth = state.smooth_update(x, alpha)
    return smooth


def component_weight_norms(params: dict[str, np.ndarray]) -> dict[str, float]:
    """L2 norm of each parameter group divided by sqrt(element count)."""
    return {
        name: float(np.linalg.norm(t.reshape(-1)) / math.sqrt(t.size))
        for name, t in params.items()
    }


# ---------------------------------------------------------------------------
# State and checkpoints


@dataclass
class TrainState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    smooth_num: float = 0.0
    smooth_den: float = 0.0
    epoch: int = 0
    stream_pos: int = 0
    order: list[int] = field(default_factory=list)
    shuffle_salt: int = 0

    @classmethod
    def fresh(cls, params):
        return cls(
            m={k: np.zeros_like(v) for k, v in params.items()},
            v={k: np.zeros_like(v) for k, v in params.items()},
        )

    def smooth_update(self, x: float, alpha: float) -> float:
        self.smooth_num = x + (1.0 - alpha) * self.smooth_num
        self.smooth_den = 1.0 + (1.0 - alpha) * self.smooth_den
        return self.smooth_num / self.smooth_den


class TrainingDiverged(RuntimeError):
    def __init__(self, message: str, last_checkpoint: str | None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint


def save_checkpoint(path, shape: ModelShape, cfg: TrainConfig, params, state: TrainState):
    """Binary checkpoint: magic, version, JSON header, raw little-endian
    float64 tensor payloads in manifest order, written atomically.
    save->load->save is byte-identical."""
    tensors = []
    for name in sorted(params):
        tensors.append((f"param:{name}", params[name]))
    for name in sorted(state.m):
        tensors.append((f"m:{name}", state.m[name]))
    for name in sorted(state.v):
        tensors.append((f"v:{name}", state.v[name]))
    manifest = []
    offset = 0
    for name, t in tensors:
        nbytes = t.size * 8
        manifest.append(
            {"name": name, "dtype": "<f8", "shape": list(t.shape), "offset": offset}
        )
        offset += nbytes
    header = {
        "shape": asdict(shape),
        "step": state.step,
        "config": asdict(cfg),
        "state": {
            "smooth_num": state.smooth_num,
            "smooth_den": state.smooth_den,
            "epoch": state.epoch,
            "stream_pos": state.stream_pos,
            "order": state.order,
            "shuffle_salt": state.shuffle_salt,
        },
        "manifest": manifest,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for _, t in tensors:
            f.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (shape, cfg, params, state)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint (bad magic {magic!r})")
        prefix = f.read(12)
        if len(prefix) < 12:
            raise ValueError(f"{path}: truncated checkpoint header")
        version, hlen = struct.unpack("<IQ", prefix)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        header = json.loads(f.read(hlen))
        payload = f.read()
    try:
        shape = ModelShape(**header["shape"])
        cfg = TrainConfig(**header["config"])
        expected = M.param_shapes(shape)
        groups: dict[str, dict[str, np.ndarray]] = {"param": {}, "m": {}, "v": {}}
        for entry in header["manifest"]:
            kind, _, name = entry["name"].partition(":")
            if kind not in groups or expected.get(name) != tuple(entry["shape"]):
                raise ValueError(
                    f"{path}: manifest entry {entry['name']!r} with shape {entry['shape']} "
                    "is not a tensor of the model shape"
                )
            arr = np.frombuffer(
                payload, dtype=entry["dtype"], count=math.prod(entry["shape"]),
                offset=entry["offset"],
            ).reshape(entry["shape"]).copy()
            groups[kind][name] = arr
        missing = [k for k in expected if k not in groups["param"]]
        if missing:
            raise ValueError(f"{path}: manifest has no entry 'param:{missing[0]}'")
        st = header["state"]
        state = TrainState(
            step=header["step"], m=groups["m"], v=groups["v"],
            smooth_num=st["smooth_num"], smooth_den=st["smooth_den"],
            epoch=st["epoch"], stream_pos=st["stream_pos"], order=st["order"],
            shuffle_salt=st["shuffle_salt"],
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header: {exc!r}") from exc
    return shape, cfg, groups["param"], state


# ---------------------------------------------------------------------------
# The loop


class DiagnosticsLog:
    """Comma-separated diagnostics: ``step,kind,name,value`` per line,
    appended to ``path`` through one handle. ``rows`` holds the rows of the
    latest step only, so a long run does not grow it."""

    def __init__(self, path: str):
        self._file = open(path, "a")
        self.rows: list[tuple[int, str, str, str]] = []

    def record(self, step: int, kind: str, name: str, value) -> None:
        row = (step, kind, name, repr(value) if isinstance(value, float) else str(value))
        if self.rows and self.rows[-1][0] != step:
            self.rows.clear()
        self.rows.append(row)
        self._file.write(f"{row[0]},{row[1]},{row[2]},{row[3]}\n")

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _epoch_order(n: int, cfg: TrainConfig, epoch: int, salt: int) -> list[int]:
    return _fisher_yates(n, derive_seed(cfg.seed, f"epoch:{epoch}:{salt}"))


def _loss_weights(chunk: list[int], eot_id: int, cfg: TrainConfig):
    if cfg.loss_on_separator:
        return None
    targets = np.asarray(chunk[1:])
    w = (targets != eot_id).astype(float)
    return w if w.sum() > 0 else None


def train(
    params,
    shape: ModelShape,
    train_docs: list[list[int]],
    cfg: TrainConfig,
    steps: int,
    out_dir: str,
    eot_id: int = 0,
    val_docs: list[list[int]] | None = None,
    state: TrainState | None = None,
    callbacks=None,
) -> tuple[TrainState, str]:
    """Run (or continue) training for ``steps`` total optimizer steps.

    Returns the final state and the path of the last checkpoint written.
    Raises TrainingDiverged, pointing at the last good checkpoint, if a
    non-finite loss or gradient appears.
    """
    os.makedirs(out_dir, exist_ok=True)
    with DiagnosticsLog(os.path.join(out_dir, "diagnostics.csv")) as diag:
        chunks = pack_documents(train_docs, cfg.seq_len, eot_id)
        if not chunks:
            raise ValueError("corpus too small to fill a single training sequence")
        val_chunks = (
            pack_documents(val_docs, cfg.seq_len, eot_id) if val_docs else []
        )
        if state is None:
            state = TrainState.fresh(params)
        if not state.order:
            state.order = _epoch_order(len(chunks), cfg, state.epoch, state.shuffle_salt)

        last_ckpt: str | None = None

        def checkpoint() -> str:
            path = os.path.join(out_dir, f"checkpoint-{state.step:08d}.bin")
            save_checkpoint(path, shape, cfg, params, state)
            diag.record(state.step, "checkpoint", "path", os.path.basename(path))
            return path

        def next_batch(size: int) -> list[list[int]]:
            batch = []
            while len(batch) < size:
                if state.stream_pos >= len(state.order):
                    state.epoch += 1
                    state.stream_pos = 0
                    state.order = _epoch_order(len(chunks), cfg, state.epoch, state.shuffle_salt)
                batch.append(chunks[state.order[state.stream_pos]])
                state.stream_pos += 1
            return batch

        while state.step < steps:
            step = state.step + 1
            batch = next_batch(batch_size_at(step, cfg))
            fcfg = M.ForwardConfig(
                p_at=cfg.dropout_at, p_h=cfg.dropout_h, p_f=cfg.dropout_f,
                training=True, rng_seed=derive_seed(cfg.seed, "dropout"), step=step,
                eps=cfg.ln_eps, qk_layer_scaling=cfg.qk_layer_scaling,
            )
            total_loss = 0.0
            grads = None
            try:
                for chunk in batch:
                    loss, g = M.backward(
                        params, chunk[:-1], chunk[1:], shape, fcfg,
                        weights=_loss_weights(chunk, eot_id, cfg),
                    )
                    total_loss += loss
                    if grads is None:
                        grads = g
                    else:
                        for k in grads:
                            grads[k] += g[k]
                loss = total_loss / len(batch)
                for k in grads:
                    grads[k] /= len(batch)
                if not math.isfinite(loss):
                    raise M.NonFiniteError(f"non-finite loss at step {step}")
                grads, gnorm = clip_gradients(grads, cfg.clip_norm)
            except M.NonFiniteError as exc:
                diag.record(step, "halt", "non_finite", str(exc))
                raise TrainingDiverged(str(exc), last_ckpt) from exc

            adamw_step(params, grads, state, lr_at(step, cfg), cfg)

            diag.record(step, "grad_norm", "global", gnorm)
            for name, norm in component_weight_norms(params).items():
                diag.record(step, "weight_norm", name, norm)
            smooth = state.smooth_update(loss, cfg.smooth_alpha)
            if step % cfg.train_loss_interval == 0:
                diag.record(step, "train_loss", "raw", loss)
                diag.record(step, "train_loss", "smoothed", smooth)
            if val_chunks and step % cfg.val_interval == 0:
                vloss = validation_loss(params, shape, val_chunks, cfg)
                diag.record(step, "val_loss", "mean", vloss)
            if step % cfg.checkpoint_interval == 0:
                last_ckpt = checkpoint()
            diag.flush()
            if callbacks:
                for cb in callbacks:
                    cb(step, params, state, diag)

        last_ckpt = checkpoint()
        return state, last_ckpt


def validation_loss(params, shape, val_chunks, cfg: TrainConfig) -> float:
    fcfg = M.ForwardConfig(training=False, eps=cfg.ln_eps, qk_layer_scaling=cfg.qk_layer_scaling)
    losses = [
        M.cross_entropy_loss(M.forward(params, c[:-1], shape, fcfg), c[1:])
        for c in val_chunks
    ]
    return float(np.mean(losses))


def resume_with_overrides(
    ckpt_path: str,
    overrides: dict | None = None,
    reshuffle_remaining: bool = False,
    diag: DiagnosticsLog | None = None,
):
    """Load a checkpoint, apply partial config overrides, and optionally
    re-permute the not-yet-seen chunks with a newly derived seed. Returns
    (shape, cfg, params, state). Override provenance goes to ``diag``."""
    shape, cfg, params, state = load_checkpoint(ckpt_path)
    if overrides:
        unknown = set(overrides) - set(asdict(cfg))
        if unknown:
            raise ValueError(f"unknown config overrides: {sorted(unknown)}")
        cfg = replace(cfg, **overrides)
        if diag:
            for k, v in sorted(overrides.items()):
                diag.record(state.step, "override", k, v)
    if reshuffle_remaining:
        state.shuffle_salt += 1
        seed = derive_seed(cfg.seed, f"reshuffle:{state.shuffle_salt}")
        rest = state.order[state.stream_pos :]
        perm = _fisher_yates(len(rest), seed)
        state.order = state.order[: state.stream_pos] + [rest[i] for i in perm]
        if diag:
            diag.record(state.step, "override", "reshuffle_remaining", seed)
    return shape, cfg, params, state
