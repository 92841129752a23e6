"""Compute-budget planning: FLOPs accounting with the activation-checkpointing
discount, Chinchilla-style fits, the depth-width rule, shape rounding, and
exact per-component parameter accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass

CHECKPOINT_DISCOUNT = 0.75

# Depth-width rule constants: D = exp(5.039) * exp(0.0555 * L)
_WIDTH_INTERCEPT = 5.039
_WIDTH_SLOPE = 0.0555

HEAD_COUNTS = range(8, 129, 8)
HEAD_DIMS = (64, 128, 192, 256)


@dataclass(frozen=True)
class ComputeBudget:
    gpu_hours: float
    flops_per_gpu_second: float
    checkpoint_discount: float = CHECKPOINT_DISCOUNT

    def __post_init__(self):
        if min(self.gpu_hours, self.flops_per_gpu_second, self.checkpoint_discount) <= 0:
            raise ValueError("budget fields must be strictly positive")
        if self.checkpoint_discount > 1.0:
            raise ValueError("checkpoint_discount must be in (0, 1]")


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
    layers: int
    heads: int
    hidden: int
    head_dim: int
    ffn_hidden: int
    vocab: int

    def __post_init__(self):
        if self.layers < 0:
            raise ValueError("layers must be non-negative")
        if min(self.heads, self.hidden, self.head_dim, self.ffn_hidden, self.vocab) <= 0:
            raise ValueError("shape dimensions must be positive")
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
    residual, then fewer heads.
    """
    if target_params <= vocab * 1000:
        raise ValueError("target_params implausibly small for this vocabulary")
    best = None
    for layers in range(1, 129):
        d_raw = levine_width(layers)
        rounded = None
        for dh in HEAD_DIMS:
            for n in HEAD_COUNTS:
                cand = (abs(n * dh - d_raw), n, dh)
                if rounded is None or cand < rounded:
                    rounded = cand
        resid, n, dh = rounded
        d = n * dh
        shape = ModelShape(layers, n, d, dh, 4 * d, vocab)
        total = count_parameters(shape).grand_total
        key = (abs(total - target_params), layers, resid, n)
        if best is None or key < best[0]:
            best = (key, shape)
    assert best is not None
    return best[1]
