"""Training loop: document packing, AdamW with weight-decay exclusions,
learning-rate and batch-size warmup schedules, gradient clipping, smoothed
loss, per-component diagnostics, and checkpoint/rollback with overrides.

The optimizer runs on flat buffers: the parameters, the step's gradients and
the two AdamW moments each tile one float64 buffer, in sorted name order
(``model._offsets``), so one AdamW pass covers every group and a checkpoint
holds each buffer as it lies in memory. Dicts of views keep the per-group
names for the model, the diagnostics and the checkpoints.
``backward`` hands each gradient group straight to the step's buffer, so a
step holds these four model copies plus one sequence's activations.

Determinism contract: (seed, config, corpus) fully determine the parameter
trajectory. All randomness (shuffles, dropout) is derived from the root seed
by labeled hashing, so resuming from a checkpoint is bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import model as M
from .atomic import atomic_write, json_value
from .model import _offsets, _tiled
from .scaling import ModelShape, _key, check_fields, check_key, count_parameters, declared

CHECKPOINT_MAGIC = b"BGPT"
CHECKPOINT_VERSION = 2


def derive_seed(root: int, label: str) -> int:
    h = hashlib.blake2b(f"{root}:{label}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class TrainConfig:
    max_lr: float = _key(6e-5, "(0, inf)")
    final_lr: float = _key(6e-6, "(0, inf)")
    warmup_steps: int = _key(1800, "[0, inf)")
    horizon_steps: int = _key(139_200, "[1, inf)")
    beta1: float = _key(0.9, "[0, 1)")
    beta2: float = _key(0.95, "[0, 1)")
    weight_decay: float = _key(0.1, "[0, inf)")
    clip_norm: float = _key(0.3, "(0, inf]")  # inf: no clipping
    seq_len: int = _key(2048, "[2, inf)")  # a shorter sequence holds no target
    batch_warmup_size: int = _key(1024, "[1, inf)")
    batch_main_size: int = _key(2048, "[1, inf)")
    batch_warmup_steps: int = _key(7200, "[0, inf)")
    dropout_at: float = _key(0.0, "[0, 1)")
    dropout_h: float = _key(0.0, "[0, 1)")
    dropout_f: float = _key(0.0, "[0, 1)")
    qk_layer_scaling: bool = _key(False)
    adam_eps: float = _key(1e-8, "(0, inf)")
    ln_eps: float = _key(1e-5, "(0, inf)")
    smooth_alpha: float = _key(0.001, "[0, 1]")
    loss_on_separator: bool = _key(True)
    train_loss_interval: int = _key(5, "[1, inf)")
    val_interval: int = _key(300, "[1, inf)")
    checkpoint_interval: int = _key(300, "[1, inf)")
    seed: int = _key(0, "(-inf, inf)")  # it only labels hashes, so any int

    def __post_init__(self):
        check_fields(self)
        if not self.final_lr <= self.max_lr:
            raise ValueError(f"final_lr must be at most max_lr, got {self.final_lr!r}")
        if not self.warmup_steps < self.horizon_steps:
            raise ValueError(f"warmup_steps must be below horizon_steps, got {self.warmup_steps!r}")


# ---------------------------------------------------------------------------
# Data pipeline


def pack_documents(docs: list[list[int]], seq_len: int, eot_id: int) -> list[list[int]]:
    """Concatenate docs with a separator after each, then cut into chunks of
    exactly ``seq_len`` tokens; the final partial chunk is dropped."""
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


def shuffle_stream(docs: list, seed: int):
    """Deterministic permutation of documents."""
    return [docs[i] for i in _fisher_yates(len(docs), seed)]


# ---------------------------------------------------------------------------
# Schedules


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup from 0 (none if warmup_steps is 0), cosine decay to final_lr, then flat."""
    if step < 0:
        raise ValueError("step must be non-negative")
    if step <= cfg.warmup_steps:
        return cfg.max_lr * step / cfg.warmup_steps if cfg.warmup_steps else cfg.max_lr
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
        # np.add.reduce is the reduction np.sum makes, without its wrapper.
        squares = [float(np.add.reduce(g * g, axis=None)) for g in grads.values()]
    try:
        return math.sqrt(math.fsum(squares))
    except OverflowError:
        return math.inf


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float):
    """Scale all gradients, in place, so the global L2 norm is at most
    ``clip_norm``; returns ``grads`` itself and the norm before scaling.

    A non-finite norm raises ``NonFiniteError`` naming the first group, in
    ``grads``'s order, whose gradient is not finite, or saying that the
    squared norm overflowed while every group was finite."""
    norm = grad_global_norm(grads)
    if not math.isfinite(norm):
        for name in grads:
            if not np.isfinite(grads[name]).all():
                raise M.NonFiniteError(f"non-finite gradient in {name}")
        raise M.NonFiniteError("gradient norm overflows float64; every group is finite")
    if norm > clip_norm:
        scale = clip_norm / norm
        for g in grads.values():
            g *= scale
    return grads, norm


def decayed(name: str) -> bool:
    """Weight matrices get decay; LayerNorm gains/biases and bias vectors do not."""
    return name.rsplit(".", 1)[-1][0] in ("W", "U")


# Elements per pass of ``adamw_step``: its two scratch slices, 128 KiB each,
# stay in cache while every operation of the update runs over them.
_SLICE = 16_384


def _flat(kind: str, tensors: dict, params: dict) -> np.ndarray:
    """The float64 buffer that ``tensors`` tiles in the one layout
    (``model._offsets``) of the names and shapes of ``params``, as
    ``init_params``, ``TrainState.fresh`` and ``load_checkpoint`` lay theirs
    out. Else a ValueError names the first group of ``kind``, in ``params``'s
    order, that is not at its offset."""
    buf = getattr(next(iter(tensors.values()), None), "base", None)
    start = buf.ctypes.data if isinstance(buf, np.ndarray) and buf.ndim == 1 else None
    offsets = _offsets({name: p.shape for name, p in params.items()})
    for name, p in params.items():
        a = tensors.get(name)
        if not (start is not None and a is not None and a.shape == p.shape and a.base is buf
                and a.dtype == buf.dtype == np.float64 and a.flags.c_contiguous
                and a.ctypes.data == start + 8 * offsets[name]):
            raise ValueError(f"{kind} group {name!r} is not at its offset in one float64 "
                             "buffer laid out like the parameters")
    if len(tensors) != len(params) or buf.size != sum(p.size for p in params.values()):
        raise ValueError(f"{kind} holds more than the parameters' {len(params)} groups")
    return buf


def _decayed_ranges(params) -> list[tuple[int, int]]:
    """Merged index ranges of the decayed groups in ``_flat`` of ``params``."""
    ranges = []
    for name, off in _offsets({name: t.shape for name, t in params.items()}).items():
        if decayed(name):
            if ranges and ranges[-1][1] == off:
                ranges[-1] = (ranges[-1][0], off + params[name].size)
            else:
                ranges.append((off, off + params[name].size))
    return ranges


def adamw_step(flat, state: "TrainState", lr: float, cfg: TrainConfig):
    """One AdamW update with bias correction, in place.

    It makes one pass over ``flat``, the parameter, gradient, m and v buffers
    and the ``_decayed_ranges`` that ``train`` sets up once per call,
    ``_SLICE`` elements at a time through two scratch slices. Per element it
    computes, with exactly these operations in this order, ``m = b1*m +
    (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``, ``u = (m/bc1) / (sqrt(v/bc2) +
    eps)``, then ``u = u + wd*theta`` on the decayed groups only, and
    ``theta -= lr*u``."""
    P, G, Mo, Vo, ranges = flat
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    scratch, upd = np.empty(_SLICE), np.empty(_SLICE)
    for lo in range(0, P.size, _SLICE):
        hi = min(lo + _SLICE, P.size)
        theta, g, m, v = P[lo:hi], G[lo:hi], Mo[lo:hi], Vo[lo:hi]
        tmp, update = scratch[: hi - lo], upd[: hi - lo]
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=tmp)
        v *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, g, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.adam_eps
        np.divide(m, bc1, out=update)
        update /= tmp
        # Index ranges, not a 0/1 mask: adding 0.0 would turn an update of
        # -0.0 into +0.0.
        for a, b in ranges:
            a, b = max(a, lo) - lo, min(b, hi) - lo
            if a < b:
                update[a:b] += np.multiply(cfg.weight_decay, theta[a:b], out=tmp[a:b])
        update *= lr
        theta -= update


def component_weight_norms(params: dict[str, np.ndarray]) -> dict[str, float]:
    """L2 norm of each parameter group divided by sqrt(element count)."""
    norms = {}
    for name, t in params.items():
        x = t.reshape(-1)
        # sqrt(x . x) is what np.linalg.norm computes for a float vector
        norms[name] = math.sqrt(x.dot(x)) / math.sqrt(x.size)
    return norms


# ---------------------------------------------------------------------------
# State and checkpoints


@dataclass
class TrainState:  # its declared fields are a checkpoint header's; m and v, its payload
    step: int = _key(0, "[0, inf)")
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    smooth_num: float = _key(0.0, "[0, inf)")  # a sum of losses, each at least 0
    smooth_den: float = _key(0.0, "[0, inf)")
    epoch: int = _key(0, "[0, inf)")
    stream_pos: int = _key(0, "[0, inf)")
    order: list = _key(default_factory=list)  # of chunks, each an int in [0, inf)
    shuffle_salt: int = _key(0, "[0, inf)")

    @classmethod
    def fresh(cls, params):
        """Zero moments, each dict views of one buffer laid out like ``params``."""
        shapes = {name: t.shape for name, t in params.items()}
        return cls(m=_tiled(shapes, np.zeros)[1], v=_tiled(shapes, np.zeros)[1])

    def smooth_update(self, x: float, alpha: float) -> float:
        self.smooth_num = x + (1.0 - alpha) * self.smooth_num
        self.smooth_den = 1.0 + (1.0 - alpha) * self.smooth_den
        return self.smooth_num / self.smooth_den


class StateMismatch(ValueError):
    """A training state that the corpus of the run it is given to cannot hold."""


class TrainingDiverged(RuntimeError):
    """A non-finite loss or gradient, and the last good checkpoint or None."""

    def __init__(self, message: str, last_checkpoint: str | None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint

    def __str__(self) -> str:
        good = self.last_checkpoint or "none written by this run"
        return f"{self.args[0]}; last good checkpoint: {good}"


def save_checkpoint(path, shape: ModelShape, cfg: TrainConfig, params, state: TrainState):
    """Binary checkpoint: magic, version, a JSON header of the shape, step,
    config and training state, then the raw little-endian float64 buffers of
    the parameters and the m and v moments, each written whole in the layout
    ``_flat`` checks (``model._offsets``), written atomically.
    save->load->save is byte-identical."""
    bufs = [_flat(kind, tensors, params)
            for kind, tensors in (("param", params), ("m", state.m), ("v", state.v))]
    header = {
        "shape": asdict(shape),
        "step": state.step,
        "config": asdict(cfg),
        "state": {f.name: getattr(state, f.name) for f in declared(state) if f.name != "step"},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for buf in bufs:
            f.write(memoryview(buf.astype("<f8", copy=False)).cast("B"))  # the bytes, no copy


def _section(header: dict, name: str, cls, **extra):
    """The ``cls`` of the header's ``name`` section and ``extra``, whose keys
    together must be exactly the fields that ``cls`` declares."""
    if diff := {*header[name], *extra} ^ {f.name for f in declared(cls)}:
        raise ValueError(f"missing or unknown {name} keys: {', '.join(sorted(diff))}")
    return cls(**header[name], **extra)


def load_checkpoint(path, moments: bool = True):
    """Returns (shape, cfg, params, state).

    The payload must be param, m and v in the layout of the header's shape,
    ``3 * 8 * n`` bytes for ``n`` parameters; a version 1 header's list of
    the tensors, always the one that layout gives, is not read. Each kind
    read gets one native float64 buffer in the layout ``init_params`` gives
    its own, filled by one ``readinto``, so no other copy of the payload is
    made. With ``moments=False`` only the parameters are read, and
    ``state.m`` and ``state.v`` are empty."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint (bad magic {magic!r})")
        prefix = f.read(12)
        if len(prefix) < 12:
            raise ValueError(f"{path}: truncated checkpoint header")
        version, hlen = struct.unpack("<IQ", prefix)
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        size = os.fstat(f.fileno()).st_size
        if hlen > size - f.tell():
            raise ValueError(f"{path}: header length {hlen} runs past the end of the file")
        try:
            header = json_value(f.read(hlen), "checkpoint header")
            payload = size - f.tell()
            shape = _section(header, "shape", ModelShape)
            cfg = _section(header, "config", TrainConfig)
            want = 3 * 8 * count_parameters(shape).grand_total
            if payload != want:
                raise ValueError(f"the payload is {payload} bytes, not the {want} bytes of "
                                 "param, m and v at the header's shape")
            state = _section(header, "state", TrainState, step=header["step"])
            check_fields(state)
            for chunk in state.order:
                check_key("a chunk of order", chunk, int, "[0, inf)")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header: {exc!r}") from exc
        shapes, groups = M.param_shapes(shape), {"m": {}, "v": {}}
        for kind in ("param", "m", "v") if moments else ("param",):
            buf, groups[kind] = _tiled(shapes)
            if f.readinto(buf) != buf.nbytes:
                raise ValueError(f"{path}: the {kind} buffer is cut short")
            if sys.byteorder == "big":  # the payload is little-endian
                buf.byteswap(inplace=True)
    state.m, state.v = groups["m"], groups["v"]
    return shape, cfg, groups["param"], state


# ---------------------------------------------------------------------------
# The loop


class DiagnosticsLog:
    """Comma-separated diagnostics: ``step,kind,name,value`` per line,
    appended to ``path`` through one handle."""

    def __init__(self, path: str):
        self._file = open(path, "a")

    def record(self, step: int, kind: str, name: str, value) -> None:
        value = repr(value) if isinstance(value, float) else str(value)
        self._file.write(f"{step},{kind},{name},{value}\n")

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def cut_diagnostics(out_dir: str, step: int) -> None:
    """Keep in ``out_dir``'s ``diagnostics.csv`` only the rows of steps up to
    ``step``, the checkpoint a run resumes from, so the resumed run appends
    the rows of an uninterrupted one. Of ``step``'s own rows, those after its
    last ``checkpoint`` row are cut too (all of them if it has none): an
    earlier resume from ``step`` wrote its override rows there. A last line
    without its newline, left by a killed write, is dropped. The cut rows
    are appended, in order, to ``diagnostics-<step>-<last cut step>.csv``,
    which is replaced whole before ``diagnostics.csv`` is, so a killed cut
    loses no row. A row whose step is not an int is a ValueError naming
    ``path:line``."""
    path = os.path.join(out_dir, "diagnostics.csv")
    if not os.path.exists(path):
        return
    ckpt_row = f"{step},checkpoint,".encode()
    cut, held = [], []  # held: ``step``'s rows since its last checkpoint row
    with open(path, "rb") as f, atomic_write(path) as kept:
        for lineno, line in enumerate(f, 1):
            if not line.endswith(b"\n"):
                break
            head = line.partition(b",")[0]
            if not head.isdigit():
                raise ValueError(f"{path}:{lineno}: row step {head.decode(errors='replace')!r} "
                                 "is not an int")
            if int(head) > step:
                cut.append(line)
            elif int(head) < step:
                kept.write(line)
            else:
                held.append(line)
                if line.startswith(ckpt_row):
                    kept.writelines(held)
                    held = []
        cut[:0] = held
        if cut:
            last = cut[-1].partition(b",")[0].decode()
            sidecar = os.path.join(out_dir, f"diagnostics-{step}-{last}.csv")
            with atomic_write(sidecar) as side:
                if os.path.exists(sidecar):
                    with open(sidecar, "rb") as earlier:
                        side.write(earlier.read())
                side.writelines(cut)


def _epoch_order(n: int, cfg: TrainConfig, epoch: int, salt: int) -> list[int]:
    return _fisher_yates(n, derive_seed(cfg.seed, f"epoch:{epoch}:{salt}"))


def _loss_weights(chunk: list[int], eot_id: int, cfg: TrainConfig):
    if cfg.loss_on_separator:
        return None
    targets = np.asarray(chunk[1:])
    w = (targets != eot_id).astype(float)
    return w if w.sum() > 0 else None


def _mean_gradients(params, shape, batch, fcfg, cfg: TrainConfig, eot_id, grads, acc) -> float:
    """Mean loss over ``batch``; its mean gradients go into ``grads``, views
    that tile ``acc``. ``backward`` hands over each group's gradient as soon
    as it is final: the first sequence's is copied in, each later one's
    added, in batch order, and ``acc`` is then divided by the batch size
    once. Each sequence draws its own dropout masks: its ``rng_seed`` is
    derived from ``cfg.seed`` and its place in the batch.

    Memory: no sequence's whole gradient dict ever exists, so a step holds
    the four model copies plus one sequence's activations and one layer's
    gradients, 18.4 MiB together at the train-wide bench shape, T=128."""

    def copy_in(name, g):
        grads[name][...] = g

    def add_in(name, g):
        grads[name] += g

    total_loss = 0.0
    for i, chunk in enumerate(batch):
        total_loss += M.backward(
            params, chunk[:-1], chunk[1:], shape,
            replace(fcfg, rng_seed=derive_seed(cfg.seed, f"dropout:{i}")),
            emit=add_in if i else copy_in, weights=_loss_weights(chunk, eot_id, cfg),
        )
    acc /= len(batch)
    return total_loss / len(batch)


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
    overrides: dict | None = None,
    reshuffle: bool = False,
) -> tuple[TrainState, str]:
    """Run (or continue, from ``state``) training for ``steps`` total
    optimizer steps; returns the final state and the last checkpoint's path.

    Every check comes before the first write to ``out_dir``: ValueError if a
    fresh run's ``out_dir`` holds an earlier run, if ``steps`` is not above
    the step the run starts from, if the corpus, or a validation corpus
    given, packs into no sequence, or if ``params`` or the moments of
    ``state`` do not tile ``_flat``'s buffers; StateMismatch if
    ``state.order`` names a chunk the corpus does not have. Then a resume
    cuts the rows after its step (``cut_diagnostics``) and records
    ``overrides``, which ``cfg`` already holds, and ``reshuffle`` of the
    chunks not yet seen this epoch. A non-finite loss or gradient raises
    TrainingDiverged, naming the last good checkpoint this call wrote.
    """
    if state is None and os.path.isdir(out_dir):
        # A fresh run would append to an earlier run's rows and leave its
        # later checkpoints, which belong to another trajectory.
        for name in sorted(os.listdir(out_dir)):
            if name == "diagnostics.csv" or fnmatch.fnmatch(name, "checkpoint-*.bin"):
                raise ValueError(f"{os.path.join(out_dir, name)}: out_dir holds an earlier run; "
                                 "resume it with --resume, or train into an empty out_dir")
    start = 0 if state is None else state.step
    if not steps > start:
        raise ValueError(f"steps = {steps} is not above step {start}, where the run starts")
    chunks = pack_documents(train_docs, cfg.seq_len, eot_id)
    val_chunks = pack_documents(val_docs or [], cfg.seq_len, eot_id)
    if not chunks:
        raise ValueError("corpus too small to fill a single training sequence")
    if val_docs is not None and not val_chunks:
        raise ValueError("validation corpus too small to fill a single sequence")
    if state is None:
        state = TrainState.fresh(params)
    if not state.order:
        state.order = _epoch_order(len(chunks), cfg, state.epoch, state.shuffle_salt)
    if max(state.order) >= len(chunks):
        raise StateMismatch(
            f"checkpoint field 'order' holds chunk {max(state.order)}, but the corpus "
            f"packs into {len(chunks)} chunks"
        )
    acc, grads = _tiled({name: t.shape for name, t in params.items()})
    flat = (_flat("parameter", params, params), acc, _flat("m", state.m, params),
            _flat("v", state.v, params), _decayed_ranges(params))
    os.makedirs(out_dir, exist_ok=True)
    cut_diagnostics(out_dir, state.step)  # a fresh run's out_dir has no rows, as checked
    with DiagnosticsLog(os.path.join(out_dir, "diagnostics.csv")) as diag:
        for k, v in sorted((overrides or {}).items()):
            diag.record(state.step, "override", k, v)
        if reshuffle:
            state.shuffle_salt += 1
            seed = derive_seed(cfg.seed, f"reshuffle:{state.shuffle_salt}")
            rest = state.order[state.stream_pos :]
            state.order[state.stream_pos :] = [rest[i] for i in _fisher_yates(len(rest), seed)]
            diag.record(state.step, "override", "reshuffle_remaining", seed)

        last_ckpt: str | None = None

        def checkpoint_row() -> str:
            name = f"checkpoint-{state.step:08d}.bin"
            diag.record(state.step, "checkpoint", "path", name)
            return os.path.join(out_dir, name)

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
                p_at=cfg.dropout_at, p_h=cfg.dropout_h, p_f=cfg.dropout_f, step=step,
                eps=cfg.ln_eps, qk_layer_scaling=cfg.qk_layer_scaling,
            )
            try:
                loss = _mean_gradients(params, shape, batch, fcfg, cfg, eot_id, grads, acc)
                if not math.isfinite(loss):
                    raise M.NonFiniteError("non-finite loss")
                gnorm = clip_gradients(grads, cfg.clip_norm)[1]
            except M.NonFiniteError as exc:
                diag.record(step, "halt", "non_finite", str(exc))
                raise TrainingDiverged(f"{exc} at step {step}", last_ckpt) from exc

            adamw_step(flat, state, lr_at(step, cfg), cfg)

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
            ckpt = checkpoint_row() if step % cfg.checkpoint_interval == 0 else None
            diag.flush()  # before the checkpoint, so a resume from it keeps this step's rows
            if ckpt:
                save_checkpoint(ckpt, shape, cfg, params, state)
                last_ckpt = ckpt

        last_ckpt = checkpoint_row()
    save_checkpoint(last_ckpt, shape, cfg, params, state)  # once closing the log flushed its row
    return state, last_ckpt


def validation_loss(params, shape, val_chunks, cfg: TrainConfig) -> float:
    fcfg = M.ForwardConfig(eps=cfg.ln_eps, qk_layer_scaling=cfg.qk_layer_scaling)
    # each chunk's head output, fresh from its forward, is scored in place
    losses = [
        float(np.mean(M.target_nll(M.forward(params, c[:-1], shape, fcfg).T, c[1:])))
        for c in val_chunks
    ]
    return float(np.mean(losses))
