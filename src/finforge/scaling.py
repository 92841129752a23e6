"""Compute-budget planning: FLOPs accounting with the activation-checkpointing
discount, Chinchilla-style fits, the depth-width rule, shape rounding, exact
per-component parameter accounting, and ``check_key``, of every declared field."""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import MISSING, dataclass, field, fields

CHECKPOINT_DISCOUNT = 0.75

# Depth-width rule constants: D = exp(5.039) * exp(0.0555 * L)
_WIDTH_INTERCEPT = 5.039
_WIDTH_SLOPE = 0.0555

HEAD_COUNTS = range(8, 129, 8)
HEAD_DIMS = (64, 128, 192, 256)


def _key(default=MISSING, interval: str | None = None, **kw):
    """A declared field: its default, if any, and for a number the interval it
    must lie in, such as ``[0, 1)``, where ``(`` or ``)`` is an open end."""
    return field(default=default, metadata={"interval": interval}, **kw)


KINDS = {"int": int, "float": float, "bool": bool, "list": list}  # annotation -> type


def check_key(key: str, value, kind: type, interval: str | None) -> None:
    """ValueError naming ``key`` and ``value`` unless it is a ``kind`` (an int
    a float can hold may stand for one) inside ``interval``; a NaN is in none."""
    accepted = (int, float) if kind is float else kind
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted)
            or kind is float and isinstance(value, int) and abs(value) > sys.float_info.max):
        raise ValueError(f"{key} must be of type {kind.__name__}, got {reprlib.repr(value)}")
    if interval:
        low, high = (float(end) for end in interval[1:-1].split(","))
        if not ((low < value if interval[0] == "(" else low <= value)
                and (value < high if interval[-1] == ")" else value <= high)):
            raise ValueError(f"{key} must be in {interval}, got {value!r}")


def declared(cls) -> list:
    """The fields of the dataclass (or instance) ``cls`` that ``_key`` declared."""
    return [f for f in fields(cls) if "interval" in f.metadata]


def check_fields(obj) -> None:
    """``check_key`` of each declared field of ``obj``."""
    for f in declared(obj):
        check_key(f.name, getattr(obj, f.name), KINDS[f.type], f.metadata["interval"])


@dataclass(frozen=True)
class ComputeBudget:
    gpu_hours: float = _key(interval="(0, inf]")
    flops_per_gpu_second: float = _key(interval="(0, inf]")
    checkpoint_discount: float = _key(CHECKPOINT_DISCOUNT, "(0, 1]")

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ChinchillaFit:
    approach: int
    param_slope: float
    param_intercept: float
    token_slope: float
    token_intercept: float


APPROACH_1 = ChinchillaFit(1, 0.498, -1.004, 0.502, 0.229)
APPROACH_2 = ChinchillaFit(2, 0.490, -0.839, 0.510, 0.062)


def effective_flops(budget: ComputeBudget) -> float:
    """Usable FLOPs after discounting for activation-checkpointing recompute."""
    return (
        budget.checkpoint_discount
        * budget.gpu_hours
        * 3600.0
        * budget.flops_per_gpu_second
    )


def chinchilla_predict(flops: float, fit: ChinchillaFit) -> tuple[float, float]:
    """Compute-optimal (parameters, training tokens) for a FLOP budget."""
    if flops <= 0:
        raise ValueError("flops must be positive")
    lg = math.log10(flops)
    params = 10.0 ** (lg * fit.param_slope + fit.param_intercept)
    tokens = 10.0 ** (lg * fit.token_slope + fit.token_intercept)
    return params, tokens


def levine_width(layers: int) -> float:
    """Proposed optimal hidden width for a given layer count."""
    if layers < 0:
        raise ValueError("layer count must be non-negative")
    return math.exp(_WIDTH_INTERCEPT) * math.exp(_WIDTH_SLOPE * layers)


@dataclass(frozen=True)
class ModelShape:
    layers: int = _key(interval="[0, inf)")  # 0: a model with no blocks
    heads: int = _key(interval="[1, inf)")
    hidden: int = _key(interval="[1, inf)")
    head_dim: int = _key(interval="[1, inf)")
    ffn_hidden: int = _key(interval="[1, inf)")
    vocab: int = _key(interval="[1, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.hidden != self.heads * self.head_dim:
            raise ValueError("hidden must equal heads * head_dim")
        if self.ffn_hidden != 4 * self.hidden:
            raise ValueError("ffn_hidden must equal 4 * hidden")


@dataclass(frozen=True)
class ParamRow:
    name: str
    per_instance: int
    instances: int

    @property
    def total(self) -> int:
        return self.per_instance * self.instances


@dataclass(frozen=True)
class ParamTable:
    rows: tuple[ParamRow, ...]

    @property
    def grand_total(self) -> int:
        return sum(r.total for r in self.rows)


def count_parameters(shape: ModelShape) -> ParamTable:
    """Exact per-component parameter accounting for the architecture."""
    L, N = shape.layers, shape.heads
    D, Dh, Df, V = shape.hidden, shape.head_dim, shape.ffn_hidden, shape.vocab
    rows = [
        ParamRow("embedding", D * V, 1),
        ParamRow("embedding_ln_gain", D, 1),
        ParamRow("embedding_ln_bias", D, 1),
        ParamRow("input_ln_gain", D, L),
        ParamRow("input_ln_bias", D, L),
        ParamRow("attn_query_weight", Dh * D, L * N),
        ParamRow("attn_key_weight", Dh * D, L * N),
        ParamRow("attn_value_weight", Dh * D, L * N),
        ParamRow("attn_output_weight", D * Dh, L * N),
        ParamRow("attn_query_bias", Dh, L * N),
        ParamRow("attn_key_bias", Dh, L * N),
        ParamRow("attn_value_bias", Dh, L * N),
        ParamRow("attn_output_bias", D, L),
        ParamRow("post_attn_ln_gain", D, L),
        ParamRow("post_attn_ln_bias", D, L),
        ParamRow("ffn_in_weight", Df * D, L),
        ParamRow("ffn_out_weight", D * Df, L),
        ParamRow("ffn_in_bias", Df, L),
        ParamRow("ffn_out_bias", D, L),
        ParamRow("final_ln_gain", D, 1),
        ParamRow("final_ln_bias", D, 1),
    ]
    return ParamTable(tuple(r for r in rows if r.instances > 0))


def propose_shape(target_params: float, vocab: int) -> ModelShape:
    """Pick a model shape for a parameter target.

    For each layer count, the depth-width rule gives a raw width; it is
    rounded to the admissible head layout closest to that width. Across
    layer counts, the shape whose exact parameter count is closest to the
    target wins. Ties break toward fewer layers, then smaller width
    residual, then fewer heads. A target outside ``(1000 * vocab, the
    largest total searched]`` is a ValueError: no shape is closest to it.
    """
    if target_params <= vocab * 1000:  # first: a huge vocab would overflow the float key
        raise ValueError("target_params implausibly small for this vocabulary")

    def candidate(layers: int) -> tuple[int, tuple, ModelShape]:
        d_raw = levine_width(layers)
        resid, n, dh = min((abs(n * dh - d_raw), n, dh) for dh in HEAD_DIMS for n in HEAD_COUNTS)
        shape = ModelShape(layers, n, n * dh, dh, 4 * n * dh, vocab)
        return count_parameters(shape).grand_total, (layers, resid, n), shape

    candidates = [candidate(layers) for layers in range(1, 129)]
    largest = max(total for total, _, _ in candidates)
    if not target_params <= largest:  # NaN and inf too
        raise ValueError(f"a target of {target_params} parameters is outside ({vocab * 1000}, "
                         f"{largest}], the totals that the search reaches at vocabulary {vocab}")
    return min(candidates, key=lambda c: (abs(c[0] - target_params), *c[1]))[2]
