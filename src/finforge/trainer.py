"""Training loop: document packing, AdamW with weight-decay exclusions,
learning-rate and batch-size warmup schedules, gradient clipping, smoothed
loss, per-component diagnostics, and checkpoint/rollback with overrides.

The optimizer runs on flat buffers: the parameters, the step's gradients and
the two AdamW moments each tile one float64 buffer, in the order of the
parameter names, so one AdamW pass covers every group. Dicts of views keep
the per-group names for the model, the diagnostics and the checkpoints.
``backward`` hands each gradient group straight to the step's buffer, so a
step holds these four model copies plus one sequence's activations.

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
import reprlib
import struct
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import model as M
from .atomic import atomic_write
from .model import _tiled
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
        # The values a run divides by or scales with; a NaN fails every test.
        for name in ("batch_warmup_size", "batch_main_size", "train_loss_interval",
                     "val_interval", "checkpoint_interval"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        for name in ("beta1", "beta2", "dropout_at", "dropout_h", "dropout_f"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps!r}")
        if not 0 <= self.smooth_alpha <= 1:
            raise ValueError(f"smooth_alpha must be in [0, 1], got {self.smooth_alpha!r}")


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


def shuffle_stream(docs: list, seed: int):
    """Deterministic permutation of documents."""
    return [docs[i] for i in _fisher_yates(len(docs), seed)]


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
        for g in grads.values():
            g *= scale
    return grads, norm


def decayed(name: str) -> bool:
    """Weight matrices get decay; LayerNorm gains/biases and bias vectors do not."""
    return name.rsplit(".", 1)[-1][0] in ("W", "U")


# Elements per pass of ``adamw_step``: its two scratch slices, 128 KiB each,
# stay in cache while every operation of the update runs over them.
_SLICE = 16_384


def _flat(tensors: dict, names: list[str]) -> np.ndarray:
    """The float64 buffer whose consecutive slices are ``tensors[name]``,
    C-ordered, for ``names`` in order.

    Arrays that do not tile one buffer that way (a hand-made dict, one
    loaded in another order, an entry someone rebound) are copied into a
    new buffer, and each entry of ``tensors`` is rebound to its view, with
    the same values."""
    buf = tensors[names[0]].base if names else None
    if isinstance(buf, np.ndarray) and buf.ndim == 1 and buf.dtype == np.float64:
        start = buf.__array_interface__["data"][0]
        ptr = start
        for name in names:
            a = tensors[name]
            if (
                a.base is not buf or a.dtype != np.float64 or not a.flags.c_contiguous
                or a.__array_interface__["data"][0] != ptr
            ):
                break
            ptr += a.nbytes
        else:
            if ptr == start + buf.nbytes:
                return buf
    buf, views = _tiled({name: tensors[name].shape for name in names})
    for name, view in views.items():
        view[...] = tensors[name]
        tensors[name] = view  # drops the old array before the next copy
    return buf


def _decayed_ranges(params) -> list[tuple[int, int]]:
    """Merged index ranges of the decayed groups in ``_flat`` of ``params``."""
    ranges, off = [], 0
    for name, t in params.items():
        if decayed(name):
            if ranges and ranges[-1][1] == off:
                ranges[-1] = (ranges[-1][0], off + t.size)
            else:
                ranges.append((off, off + t.size))
        off += t.size
    return ranges


def adamw_step(params, grads, state: "TrainState", lr: float, cfg: TrainConfig, *, flat=None):
    """One AdamW update with bias correction, in place.

    It makes one pass over ``flat``, the parameter, gradient, m and v buffers
    and the ``_decayed_ranges`` that ``train`` lays out once per call, or by
    default ``_flat`` of ``params``, ``grads`` and the moments of ``state``
    (which may so rebind their entries), ``_SLICE`` elements at a time
    through two scratch slices. Per element it computes, with exactly these
    operations in this order, ``m = b1*m + (1-b1)*g``, ``v = b2*v +
    ((1-b2)*g)*g``, ``u = (m/bc1) / (sqrt(v/bc2) + eps)``, then ``u = u +
    wd*theta`` on the decayed groups only, and ``theta -= lr*u``."""
    if flat is None:
        names = list(params)
        flat = (*[_flat(d, names) for d in (params, grads, state.m, state.v)],
                _decayed_ranges(params))
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
        """Zero moments, each dict views of one buffer laid out like ``params``."""
        shapes = {name: t.shape for name, t in params.items()}
        return cls(m=_tiled(shapes, np.zeros)[1], v=_tiled(shapes, np.zeros)[1])

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
            if not (t.flags.c_contiguous and t.dtype == "<f8"):
                t = np.ascontiguousarray(t, dtype="<f8")
            f.write(memoryview(t).cast("B"))  # the bytes, without a copy


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# What a checkpoint header's training-state fields must hold, and how to tell.
_STATE_FIELDS = {
    "step": ("a non-negative int", _is_count),
    "epoch": ("a non-negative int", _is_count),
    "stream_pos": ("a non-negative int", _is_count),
    "shuffle_salt": ("a non-negative int", _is_count),
    "order": (
        "a list of non-negative ints", lambda x: isinstance(x, list) and all(map(_is_count, x))
    ),
    "smooth_num": ("a number", _is_number),
    "smooth_den": ("a number", _is_number),
}


def _manifest_entries(header, shape: ModelShape, payload_bytes: int) -> dict:
    """The manifest's entries by kind (param, m, v), then name, in manifest
    order, after checking that each is a tensor of the model shape and that
    together they tile the payload: in manifest order from byte 0, each
    starting where the one before ends, no name twice, and the payload ends
    where the last one does."""
    expected = M.param_shapes(shape)
    entries: dict[str, dict[str, dict]] = {"param": {}, "m": {}, "v": {}}
    end, label, twice = 0, None, None
    for entry in header["manifest"]:
        label = entry["name"]
        kind, _, name = label.partition(":")
        if kind not in entries or expected.get(name) != tuple(entry["shape"]):
            raise ValueError(
                f"manifest entry {label!r} with shape {entry['shape']} "
                "is not a tensor of the model shape"
            )
        if entry["dtype"] != "<f8":
            raise ValueError(
                f"manifest entry {label!r} has dtype {entry['dtype']!r}, "
                "not little-endian float64 ('<f8')"
            )
        # A repeated name is reported after a missing parameter, so an entry
        # renamed to another's name is reported as the one it replaced.
        if name in entries[kind]:
            twice = twice or label
        if not (_is_count(entry["offset"]) and entry["offset"] == end):
            raise ValueError(
                f"manifest entry {label!r} has offset {reprlib.repr(entry['offset'])}, "
                f"not {end}: the entries must tile the payload in manifest order"
            )
        end += math.prod(entry["shape"]) * 8
        if end > payload_bytes:
            raise ValueError(
                f"manifest entry {label!r} ends at payload byte {end}, "
                f"past the payload's {payload_bytes} bytes"
            )
        entries[kind][name] = entry
    if end != payload_bytes:
        raise ValueError(
            f"manifest entry {label!r} ends at payload byte {end}, "
            f"{payload_bytes - end} bytes before the payload does"
        )
    missing = [k for k in expected if k not in entries["param"]]
    if missing:
        raise ValueError(f"manifest has no entry 'param:{missing[0]}'")
    if twice:
        raise ValueError(f"manifest entry {twice!r} appears twice")
    return entries


def load_checkpoint(path, moments: bool = True):
    """Returns (shape, cfg, params, state).

    Each kind of tensor (param, m, v) gets one native float64 buffer, laid
    out in manifest order, and each tensor is read from the file straight
    into its view of that buffer, so no other copy of the payload is made.
    With ``moments=False`` only the parameters are read: the m and v
    entries are checked in the header, and ``state.m`` and ``state.v`` are
    empty."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint (bad magic {magic!r})")
        prefix = f.read(12)
        if len(prefix) < 12:
            raise ValueError(f"{path}: truncated checkpoint header")
        version, hlen = struct.unpack("<IQ", prefix)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        size = os.fstat(f.fileno()).st_size
        if hlen > size - f.tell():
            raise ValueError(f"{path}: header length {hlen} runs past the end of the file")
        try:
            header = json.loads(f.read(hlen))
            base = f.tell()
            shape = ModelShape(**header["shape"])
            cfg = TrainConfig(**header["config"])
            entries = _manifest_entries(header, shape, size - base)
            st = dict(header["state"], step=header["step"])
            for key, (what, ok) in _STATE_FIELDS.items():
                if not ok(st[key]):
                    raise ValueError(
                        f"checkpoint field {key!r} must be {what}, got {reprlib.repr(st[key])}"
                    )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header: {exc!r}") from exc
        groups = {"m": {}, "v": {}}
        for kind in ("param", "m", "v") if moments else ("param",):
            named = entries[kind]
            buf, groups[kind] = _tiled({name: tuple(e["shape"]) for name, e in named.items()})
            for name, view in groups[kind].items():
                f.seek(base + named[name]["offset"])
                if f.readinto(view) != view.nbytes:
                    raise ValueError(f"{path}: manifest entry '{kind}:{name}' is cut short")
            if sys.byteorder == "big":  # the payload is little-endian
                buf.byteswap(inplace=True)
    state = TrainState(m=groups["m"], v=groups["v"], **{k: st[k] for k in _STATE_FIELDS})
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


def _mean_gradients(params, shape, batch, fcfg, cfg: TrainConfig, eot_id, grads, acc) -> float:
    """Mean loss over ``batch``; its mean gradients go into ``grads``, views
    that tile ``acc``. ``backward`` hands over each group's gradient as soon
    as it is final: the first sequence's is copied in, each later one's
    added, in batch order, and ``acc`` is then divided by the batch size
    once.

    Memory: no sequence's whole gradient dict ever exists, so a step holds
    the four model copies plus one sequence's activations and one layer's
    gradients, 20.8 MiB together at the train-wide bench shape, T=128."""

    def copy_in(name, g):
        grads[name][...] = g

    def add_in(name, g):
        grads[name] += g

    total_loss = 0.0
    for i, chunk in enumerate(batch):
        loss, _ = M.backward(
            params, chunk[:-1], chunk[1:], shape, fcfg, weights=_loss_weights(chunk, eot_id, cfg),
            emit=add_in if i else copy_in,
        )
        total_loss += loss
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
    callbacks=None,
) -> tuple[TrainState, str]:
    """Run (or continue) training for ``steps`` total optimizer steps.

    Returns the final state and the path of the last checkpoint written.
    Raises TrainingDiverged, pointing at the last good checkpoint, if a
    non-finite loss or gradient appears, and ValueError, before the first
    step, if ``state.order`` names a chunk the corpus does not have or if
    ``state.m`` or ``state.v`` lacks a group of ``params`` or its shape.

    The optimizer works on flat buffers (see ``adamw_step``), laid out once
    before the first step: the entries of ``params`` and of the moments of
    ``state`` are rebound to views of one buffer each, unless they already
    are, and updated in place from then on. Callbacks may write values in
    place but must not rebind entries.
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
        if max(state.order) >= len(chunks):
            raise ValueError(
                f"checkpoint field 'order' holds chunk {max(state.order)}, but the corpus "
                f"packs into {len(chunks)} chunks"
            )
        for kind, moments in (("m", state.m), ("v", state.v)):
            for name, t in params.items():
                if name not in moments or moments[name].shape != t.shape:
                    raise ValueError(
                        f"training state has no AdamW moment '{kind}:{name}' of shape "
                        f"{t.shape}"
                    )
        # The optimizer's buffers for the whole run, laid out by the names of ``params``.
        names = list(params)
        acc, grads = _tiled({name: params[name].shape for name in names})
        flat = (_flat(params, names), acc, _flat(state.m, names), _flat(state.v, names),
                _decayed_ranges(params))

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
            try:
                loss = _mean_gradients(params, shape, batch, fcfg, cfg, eot_id, grads, acc)
                if not math.isfinite(loss):
                    raise M.NonFiniteError("non-finite loss")
                gnorm = clip_gradients(grads, cfg.clip_norm)[1]
            except M.NonFiniteError as exc:
                diag.record(step, "halt", "non_finite", str(exc))
                good = last_ckpt or "none written by this run"
                raise TrainingDiverged(
                    f"{exc} at step {step}; last good checkpoint: {good}", last_ckpt
                ) from exc

            adamw_step(params, grads, state, lr_at(step, cfg), cfg, flat=flat)

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
    ckpt,
    overrides: dict | None = None,
    reshuffle_remaining: bool = False,
    diag: DiagnosticsLog | None = None,
):
    """Load a checkpoint (``ckpt`` is its path, or what ``load_checkpoint``
    returned for it), apply partial config overrides, and optionally
    re-permute the not-yet-seen chunks with a newly derived seed. Returns
    (shape, cfg, params, state). Override provenance goes to ``diag``."""
    shape, cfg, params, state = ckpt if isinstance(ckpt, tuple) else load_checkpoint(ckpt)
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
