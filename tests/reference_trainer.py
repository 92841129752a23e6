"""Reference implementation of the trainer's optimizer step and checkpoint
reader.

These are the per-group forms of `clip_gradients`, `adamw_step` and the
per-step gradient accumulation of `train`: every operation runs on each
parameter group's own array, with a fresh temporary per operation, and
clipping returns a new dict. They are slow and kept only as the oracle that
tests compare the flat-buffer optimizer in `finforge.trainer` against.
`load_checkpoint` reads the whole payload into one bytes object and copies
each tensor out of it, the oracle for the trainer's in-place reader.
`flat_adamw_step` runs the flat optimizer itself on dicts laid out by `tiled`.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import replace

import numpy as np

from finforge import model as M
from finforge import trainer as TR
from finforge.scaling import ModelShape
from finforge.trainer import TrainConfig, TrainState, _loss_weights, decayed
from reference_model import gradients


def load_checkpoint(path):
    """(shape, cfg, params, state) of a valid checkpoint: each kind's
    tensors (param, m, v) copied into one buffer with ``np.frombuffer`` from
    the payload read whole, where they lie one after another in sorted name
    order at the header's shape, the kinds in turn."""
    with open(path, "rb") as f:
        _, hlen = struct.unpack("<IQ", f.read(16)[4:])
        header = json.loads(f.read(hlen))
        payload = f.read()
    shape, groups, offset = ModelShape(**header["shape"]), {}, 0
    for kind in ("param", "m", "v"):
        named = {}
        for name, dims in sorted(M.param_shapes(shape).items()):
            named[name] = np.frombuffer(
                payload, dtype="<f8", count=math.prod(dims), offset=offset
            ).reshape(dims)
            offset += named[name].nbytes
        groups[kind] = tiled(named)
    st = header["state"]
    state = TrainState(
        step=header["step"], m=groups["m"], v=groups["v"],
        **{k: st[k] for k in ("smooth_num", "smooth_den", "epoch", "stream_pos", "order",
                              "shuffle_salt")},
    )
    return shape, TrainConfig(**header["config"]), groups["param"], state


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


def adamw_step(params, grads, state, lr: float, cfg: TrainConfig) -> None:
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


def tiled(tensors: dict) -> dict:
    """A copy of ``tensors`` laid out as `train` takes its inputs: views of
    one float64 buffer in sorted name order, in a dict in ``tensors``'s order."""
    _, views = M._tiled({name: t.shape for name, t in tensors.items()})
    for name, view in views.items():
        view[...] = tensors[name]
    return views


def flat_adamw_step(params, grads, state, lr: float, cfg: TrainConfig) -> None:
    """`finforge.trainer.adamw_step` on ``params`` and ``state``'s moments,
    which must tile one buffer each as `train` requires (see `tiled`), and
    on a `tiled` copy of ``grads``."""
    kinds = {"parameter": params, "gradient": tiled(grads), "m": state.m, "v": state.v}
    flat = [TR._flat(kind, d, params) for kind, d in kinds.items()]
    TR.adamw_step((*flat, TR._decayed_ranges(params)), state, lr, cfg)


def batch_gradients(params, shape, batch, fcfg, cfg: TrainConfig, eot_id):
    """Mean loss and mean gradients of one step's batch: the first
    sequence's gradient dict is kept and every later one added to it, group
    by group, in batch order, then each group is divided by the batch size.
    Each sequence's dropout stream is keyed by its place in the batch."""
    total_loss = 0.0
    grads = None
    for i, chunk in enumerate(batch):
        seq_cfg = replace(fcfg, rng_seed=TR.derive_seed(cfg.seed, f"dropout:{i}"))
        loss, g = gradients(
            params, chunk[:-1], chunk[1:], shape, seq_cfg, weights=_loss_weights(chunk, eot_id, cfg)
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
    return loss, grads
