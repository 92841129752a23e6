import math

import pytest

from finforge import scaling as S


def hardware_friendly(shape):
    """Hidden and head dims are multiples of 8 (Tensor Core alignment)."""
    return shape.hidden % 8 == 0 and shape.head_dim % 8 == 0


def rows(table):
    return {r.name: r for r in table.rows}


# ---------------------------------------------------------------------------
# Effective FLOPs


def test_effective_flops_reference_budget():
    budget = S.ComputeBudget(gpu_hours=1.3e6, flops_per_gpu_second=1.02e14)
    got = S.effective_flops(budget)
    assert got == pytest.approx(0.75 * 1.3e6 * 3600 * 1.02e14, rel=1e-12)
    assert got == pytest.approx(3.5802e23, rel=1e-4)


def test_effective_flops_linear_in_each_factor():
    b = S.ComputeBudget(100.0, 1e12)
    assert S.effective_flops(S.ComputeBudget(200.0, 1e12)) == pytest.approx(
        2 * S.effective_flops(b)
    )
    assert S.effective_flops(
        S.ComputeBudget(100.0, 1e12, checkpoint_discount=1.0)
    ) == pytest.approx(S.effective_flops(b) / 0.75)


def test_budget_validation():
    with pytest.raises(ValueError):
        S.ComputeBudget(0.0, 1e12)
    with pytest.raises(ValueError):
        S.ComputeBudget(1.0, 1e12, checkpoint_discount=1.5)
    with pytest.raises(ValueError, match=r"gpu_hours must be in \(0, inf\], got nan"):
        S.ComputeBudget(math.nan, 1e12)  # NaN is in no interval


# ---------------------------------------------------------------------------
# Chinchilla-style fits


FLOPS = 3.5802e23


def test_approach_1_reference_point():
    params, tokens = S.chinchilla_predict(FLOPS, S.APPROACH_1)
    # independent recomputation of the fit formulas
    lg = math.log10(FLOPS)
    assert params == pytest.approx(10 ** (0.498 * lg - 1.004), rel=1e-12)
    assert tokens == pytest.approx(10 ** (0.502 * lg + 0.229), rel=1e-12)
    assert params == pytest.approx(52.993e9, rel=0.02)
    assert tokens == pytest.approx(1111.112e9, rel=0.02)


def test_approach_2_reference_point():
    params, tokens = S.chinchilla_predict(FLOPS, S.APPROACH_2)
    lg = math.log10(FLOPS)
    assert params == pytest.approx(10 ** (0.490 * lg - 0.839), rel=1e-12)
    assert tokens == pytest.approx(10 ** (0.510 * lg + 0.062), rel=1e-12)
    assert params == pytest.approx(49.753e9, rel=0.02)
    assert tokens == pytest.approx(1175.766e9, rel=0.02)


def test_chinchilla_monotone_in_flops():
    p1, t1 = S.chinchilla_predict(1e22, S.APPROACH_1)
    p2, t2 = S.chinchilla_predict(1e23, S.APPROACH_1)
    assert p2 > p1 and t2 > t1


def test_chinchilla_rejects_nonpositive_flops():
    with pytest.raises(ValueError):
        S.chinchilla_predict(0.0, S.APPROACH_1)


# ---------------------------------------------------------------------------
# Depth-width rule


def test_levine_width_at_70_layers():
    d = S.levine_width(70)
    assert d == pytest.approx(math.exp(5.039) * math.exp(0.0555 * 70), rel=1e-12)
    assert 7508.0 <= d <= 7512.0


def test_levine_width_monotone_and_base():
    assert S.levine_width(0) == pytest.approx(math.exp(5.039))
    assert S.levine_width(10) < S.levine_width(20)
    with pytest.raises(ValueError):
        S.levine_width(-1)


# ---------------------------------------------------------------------------
# Shape invariants


def test_shape_invariants_enforced():
    with pytest.raises(ValueError):
        S.ModelShape(2, 4, 17, 4, 68, 64)  # hidden != heads * head_dim
    with pytest.raises(ValueError):
        S.ModelShape(2, 4, 16, 4, 60, 64)  # ffn != 4 * hidden
    s = S.ModelShape(2, 4, 16, 4, 64, 64)
    assert not hardware_friendly(s)
    assert hardware_friendly(S.ModelShape(70, 40, 7680, 192, 30720, 131072))


# ---------------------------------------------------------------------------
# Parameter accounting


BIG = S.ModelShape(70, 40, 7680, 192, 30720, 131072)


def test_param_table_reference_shape_rows():
    table = rows(S.count_parameters(BIG))
    assert table["embedding"].total == 1_006_632_960
    assert table["embedding_ln_gain"].total == 7680
    assert table["input_ln_gain"].total == 537_600
    assert table["attn_query_weight"].per_instance == 192 * 7680
    assert table["attn_query_weight"].instances == 70 * 40
    assert table["attn_query_weight"].total == 4_128_768_000
    assert table["attn_key_weight"].total == 4_128_768_000
    assert table["attn_value_weight"].total == 4_128_768_000
    assert table["attn_output_weight"].total == 4_128_768_000
    assert table["attn_query_bias"].total == 70 * 40 * 192
    assert table["attn_output_bias"].total == 70 * 7680
    assert table["ffn_in_weight"].total == 70 * 30720 * 7680
    assert table["ffn_in_weight"].total + table["ffn_out_weight"].total == 33_030_144_000
    assert table["ffn_in_bias"].total == 70 * 30720
    assert table["final_ln_gain"].total == 7680


def test_param_table_reference_grand_total():
    assert S.count_parameters(BIG).grand_total == 50_558_868_480


def test_param_table_tiny_shape_hand_sum():
    # L=2, N=3, Dh=5, D=15, Df=60, V=11 summed by hand
    shape = S.ModelShape(2, 3, 15, 5, 60, 11)
    table = S.count_parameters(shape)
    emb = 15 * 11
    ln = 2 * 15 + 2 * 2 * 15 + 2 * 2 * 15 + 2 * 15  # embedding, input, post-attn, final
    attn_w = 2 * 3 * (3 * 5 * 15 + 15 * 5)
    attn_b = 2 * (3 * 3 * 5 + 15)
    ffn = 2 * (2 * 60 * 15 + 60 + 15)
    assert table.grand_total == emb + ln + attn_w + attn_b + ffn


def test_param_table_zero_layers():
    shape = S.ModelShape(0, 1, 8, 8, 32, 16)
    table = S.count_parameters(shape)
    # embedding + embedding LN + final LN only
    assert table.grand_total == 8 * 16 + 2 * 8 + 2 * 8
    with pytest.raises(KeyError):
        rows(table)["attn_query_weight"]


def test_tied_head_adds_no_rows():
    names = [r.name for r in S.count_parameters(BIG).rows]
    assert "lm_head" not in names and len(names) == len(set(names))


# ---------------------------------------------------------------------------
# Shape proposal


def test_propose_shape_reference_target():
    shape = S.propose_shape(50e9, 131072)
    assert (shape.layers, shape.heads, shape.hidden, shape.head_dim) == (70, 40, 7680, 192)
    assert shape.ffn_hidden == 30720 and shape.vocab == 131072
    assert hardware_friendly(shape)


def test_propose_shape_is_a_fixed_point():
    shape = S.propose_shape(50e9, 131072)
    again = S.propose_shape(float(S.count_parameters(shape).grand_total), 131072)
    assert again == shape


def test_propose_shape_rounding_is_nearest_admissible_width():
    # brute-force oracle over the full admissible grid for the chosen depth
    shape = S.propose_shape(50e9, 131072)
    d_raw = S.levine_width(shape.layers)
    best = min(
        (abs(n * dh - d_raw), n, dh)
        for dh in S.HEAD_DIMS
        for n in S.HEAD_COUNTS
    )
    assert (best[1], best[2]) == (shape.heads, shape.head_dim)


def test_propose_shape_brute_force_over_depths():
    # oracle: global argmin of |params - target| over the whole search space
    target, vocab = 2e9, 65536
    cands = []
    for layers in range(1, 129):
        d_raw = S.levine_width(layers)
        resid, n, dh = min(
            (abs(n * dh - d_raw), n, dh) for dh in S.HEAD_DIMS for n in S.HEAD_COUNTS
        )
        shape = S.ModelShape(layers, n, n * dh, dh, 4 * n * dh, vocab)
        total = S.count_parameters(shape).grand_total
        cands.append(((abs(total - target), layers, resid, n), shape))
    oracle = min(cands)[1]
    assert S.propose_shape(target, vocab) == oracle


def test_propose_shape_monotone_layers_in_target():
    small = S.propose_shape(5e9, 65536)
    large = S.propose_shape(50e9, 65536)
    assert large.layers >= small.layers
    assert S.count_parameters(large).grand_total > S.count_parameters(small).grand_total


def test_propose_shape_rejects_tiny_target():
    with pytest.raises(ValueError):
        S.propose_shape(1e6, 131072)


# The 128-layer shape at vocabulary 512, the largest that the search builds.
TOP_512 = S.ModelShape(128, 128, 32768, 256, 4 * 32768, 512)


@pytest.mark.parametrize("target", [math.inf, math.nan, 1e300, "just above"])
def test_propose_shape_refuses_a_target_beyond_the_largest_shape(target):
    # No shape is closest to these: every abs(total - inf) is inf, and a NaN
    # compares with none
    largest = S.count_parameters(TOP_512).grand_total
    assert largest == 1_649_338_875_904
    assert S.propose_shape(float(largest), 512) == TOP_512  # the end of the range is in it
    if target == "just above":
        target = math.nextafter(float(largest), math.inf)
    with pytest.raises(ValueError, match=r"outside \(512000, 1649338875904\],.* vocabulary 512"):
        S.propose_shape(target, 512)
