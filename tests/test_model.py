import math

import numpy as np
import pytest

from finforge import model as M
from finforge.scaling import ModelShape, count_parameters
from reference_model import _padded, alibi_matrices, dropout_mask, finite_diff_check, gradients

SHAPE = ModelShape(2, 2, 8, 4, 32, 16)
CFG = M.ForwardConfig()


def make_params(seed=0, shape=SHAPE):
    return M.init_params(shape, seed)


# ---------------------------------------------------------------------------
# ALiBi


def test_alibi_slopes_power_of_two_heads():
    assert np.allclose(M.alibi_slopes(8), [2.0 ** -(k + 1) for k in range(8)])
    assert np.allclose(M.alibi_slopes(1), [2.0 ** -8])
    assert np.allclose(M.alibi_slopes(16), [2.0 ** (-0.5 * (k + 1)) for k in range(16)])


def test_alibi_slopes_non_power_of_two_interleaves_half_steps():
    s = M.alibi_slopes(40)
    # first 32 heads follow the power-of-two ladder for n_pow = 32
    assert np.allclose(s[:32], [2.0 ** (-0.2 * (k + 1)) for k in range(32)])
    # head 33 restarts at a half-step offset
    assert s[32] == pytest.approx(2.0 ** -0.1, rel=1e-12)
    assert s[33] == pytest.approx(2.0 ** -0.3, rel=1e-12)


def test_alibi_matrix_hand_example():
    spec = alibi_matrices(1, 3)
    s = spec.slopes[0]
    # rows are key positions, columns are query positions
    expected = np.array([[0, -s, -2 * s], [0, 0, -s], [0, 0, 0]])
    assert np.array_equal(spec.biases[0], expected)
    assert np.array_equal(
        np.isneginf(spec.mask),
        np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=bool),
    )


def test_alibi_biases_zero_on_and_below_diagonal():
    spec = alibi_matrices(4, 9)
    keys, queries = np.tril_indices(9)  # key >= query
    assert np.all(spec.biases[:, keys, queries] == 0.0)
    ku, qu = np.triu_indices(9, k=1)
    assert np.all(spec.biases[:, ku, qu] < 0.0)


def test_alibi_validates_arguments():
    with pytest.raises(ValueError):
        alibi_matrices(0, 4)
    with pytest.raises(ValueError):
        alibi_matrices(4, 0)


# ---------------------------------------------------------------------------
# Pointwise pieces


def test_gelu_values():
    assert M.gelu(np.array([0.0]))[0] == 0.0
    x = np.array([1.0])
    expected = 0.5 * (1.0 + math.tanh(0.79788456 * (1.0 + 0.044715)))
    assert M.gelu(x)[0] == pytest.approx(expected, rel=1e-12)
    assert M.gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-8)
    assert M.gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-8)


def test_gelu_grad_matches_finite_difference():
    xs = np.linspace(-4, 4, 33)
    h = 1e-6
    num = (M.gelu(xs + h) - M.gelu(xs - h)) / (2 * h)
    assert np.allclose(M.gelu_grad(xs), num, atol=1e-8)


def test_layer_norm_hand_example():
    x = np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]])
    gain = np.array([1.0, 1.0, 2.0])
    bias = np.array([0.0, 1.0, 0.0])
    eps = 1e-5
    out = M.layer_norm(x, gain, bias, eps)
    inv = 1.0 / math.sqrt(2.0 / 3.0 + eps)
    assert out[0] == pytest.approx([-inv, 1.0, 2 * inv], rel=1e-12)
    assert out[1] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)  # zero variance row


# ---------------------------------------------------------------------------
# Initialization


def test_init_distribution_and_structure():
    shape = ModelShape(2, 2, 64, 32, 256, 512)
    params = M.init_params(shape, seed=1)
    z = 1.0 / math.sqrt(3 * 64)
    zp = z / math.sqrt(4)
    assert params["Wem"].std() == pytest.approx(z, rel=0.02)
    assert params["layer0.ffn.W"].std() == pytest.approx(z, rel=0.05)
    assert params["layer0.ffn.U"].std() == pytest.approx(zp, rel=0.05)
    assert params["layer0.attn.U"].std() == pytest.approx(zp, rel=0.05)
    assert np.all(params["ln_em.g"] == 1.0) and np.all(params["ln_em.b"] == 0.0)
    assert np.all(params["layer1.attn.bq"] == 0.0)
    assert np.all(params["layer0.ffn.b"] == 0.0)


def test_init_census_matches_parameter_table():
    params = make_params()
    assert sum(v.size for v in params.values()) == count_parameters(SHAPE).grand_total
    assert sorted(params) == sorted(M.param_shapes(SHAPE))


def test_init_deterministic_per_seed():
    a, b, c = make_params(7), make_params(7), make_params(8)
    for k in a:
        assert np.array_equal(a[k], b[k])
    assert not np.array_equal(a["Wem"], c["Wem"])


# ---------------------------------------------------------------------------
# Forward


TOKENS = [3, 1, 4, 1, 5, 9, 2, 6]


def dense_forward(params, tokens, shape, eps=1e-5):
    """Independent full-matrix reimplementation of the network (masked dense
    attention instead of per-query columns)."""
    tokens = np.asarray(tokens)
    T = len(tokens)
    spec = alibi_matrices(shape.heads, T)

    def ln(x, g, b):
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * g + b

    h = ln(params["Wem"][:, tokens].T, params["ln_em.g"], params["ln_em.b"])
    for l in range(shape.layers):
        p = f"layer{l}."
        xn = ln(h, params[p + "ln_in.g"], params[p + "ln_in.b"])
        Q = np.einsum("td,nhd->nth", xn, params[p + "attn.Wq"]) + params[p + "attn.bq"][:, None]
        K = np.einsum("td,nhd->nth", xn, params[p + "attn.Wk"]) + params[p + "attn.bk"][:, None]
        Vv = np.einsum("td,nhd->nth", xn, params[p + "attn.Wv"]) + params[p + "attn.bv"][:, None]
        scores = np.einsum("nih,njh->nij", K, Q) / math.sqrt(shape.head_dim) + spec.biases
        scores = np.where(np.isneginf(spec.mask), -np.inf, scores * spec.mask)
        e = np.exp(scores - np.nanmax(np.where(np.isfinite(scores), scores, np.nan), axis=1, keepdims=True))
        e = np.where(np.isfinite(scores), e, 0.0)
        probs = e / e.sum(axis=1, keepdims=True)  # softmax over keys i per query j
        ybar = np.einsum("nij,nih->njh", probs, Vv)
        y = np.einsum("nth,ndh->td", ybar, params[p + "attn.U"]) + params[p + "attn.c"]
        hbar = h + y
        xf = ln(hbar, params[p + "ln_at.g"], params[p + "ln_at.b"])
        a = xf @ params[p + "ffn.W"].T + params[p + "ffn.b"]
        o = M.gelu(a) @ params[p + "ffn.U"].T + params[p + "ffn.c"]
        h = hbar + o
    z = ln(h, params["ln_f.g"], params["ln_f.b"])
    return (z @ params["Wem"]).T


def test_forward_matches_dense_oracle():
    params = make_params(3)
    got = M.forward(params, TOKENS, SHAPE)
    want = dense_forward(params, TOKENS, SHAPE)
    assert got.shape == (SHAPE.vocab, len(TOKENS))
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_forward_single_token():
    params = make_params()
    logits = M.forward(params, [5], SHAPE)
    assert logits.shape == (SHAPE.vocab, 1)
    assert np.all(np.isfinite(logits))


def test_forward_causal_prefix_invariance_bit_exact():
    params = make_params(2)
    full = M.forward(params, TOKENS, SHAPE)
    for t in range(1, len(TOKENS) + 1):
        pre = M.forward(params, TOKENS[:t], SHAPE)
        assert np.array_equal(pre, full[:, :t])  # 0 ulp


def test_forward_longer_than_any_earlier_call():
    # ALiBi needs no trained positional table: longer sequences just work
    params = make_params()
    T = 40
    logits = M.forward(params, list(np.arange(T) % SHAPE.vocab), SHAPE)
    assert logits.shape == (SHAPE.vocab, T)
    assert np.all(np.isfinite(logits))


def test_forward_rejects_bad_tokens():
    params = make_params()
    with pytest.raises(ValueError):
        M.forward(params, [], SHAPE)
    with pytest.raises(ValueError):
        M.forward(params, [SHAPE.vocab], SHAPE)
    with pytest.raises(ValueError):
        M.forward(params, [-1], SHAPE)


def test_forward_raises_on_nonfinite_params():
    params = make_params()
    params["Wem"][0, 0] = np.nan
    with pytest.raises(M.NonFiniteError):
        M.forward(params, TOKENS, SHAPE)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "middle", "last", "later block"])
def test_a_nonfinite_head_output_names_the_lm_head(monkeypatch, value, where):
    # "later block": one value in the second block of a three-block head,
    # which a check of the first block alone would miss
    params = make_params()
    tokens = TOKENS if where != "later block" else (TOKENS * 9)[: 2 * M._BLOCK + 5]
    real = M._rows

    def rows(x, w):  # the head output, with one value replaced
        out = real(x, w)
        if w is params["Wem"]:
            flat = out[: len(tokens)].reshape(-1)  # a view of the rows of real positions
            later = (M._BLOCK + 3) * SHAPE.vocab + 5
            flat[{"first": 0, "middle": flat.size // 2, "last": -1, "later block": later}[where]] = value
        return out

    monkeypatch.setattr(M, "_rows", rows)
    with pytest.raises(M.NonFiniteError, match="^non-finite values at lm head$"):
        M.forward(params, tokens, SHAPE)


def test_embedding_layernorm_is_applied():
    params = make_params(4)
    base = M.forward(params, TOKENS, SHAPE)
    # a uniform bias would be absorbed by the next LayerNorm; use a
    # non-uniform gain so the change must survive to the output
    params["ln_em.g"] = params["ln_em.g"] * (1.0 + np.arange(SHAPE.hidden) / 4.0)
    shifted = M.forward(params, TOKENS, SHAPE)
    assert not np.allclose(base, shifted)


def test_tied_head_uses_embedding_matrix():
    params = make_params(5)
    base = M.forward(params, [1], ModelShape(0, 1, 8, 8, 32, 16))
    params2 = {k: v.copy() for k, v in params.items()}
    params2["Wem"][:, 7] *= 2.0  # column of an unused token still moves its logit
    changed = M.forward(params2, [1], ModelShape(0, 1, 8, 8, 32, 16))
    assert base[7, 0] != changed[7, 0]


# ---------------------------------------------------------------------------
# Dropout


def test_dropout_off_at_inference():
    # An inference config sets every p to 0: no mask is drawn, whatever the key.
    params = make_params()
    keyed = M.ForwardConfig(rng_seed=9, step=3)
    assert np.array_equal(
        M.forward(params, TOKENS, SHAPE, keyed),
        M.forward(params, TOKENS, SHAPE),
    )


def test_dropout_deterministic_and_keyed():
    params = make_params()
    c1 = M.ForwardConfig(p_h=0.5, rng_seed=9, step=3)
    c2 = M.ForwardConfig(p_h=0.5, rng_seed=9, step=3)
    c3 = M.ForwardConfig(p_h=0.5, rng_seed=9, step=4)
    a = M.forward(params, TOKENS, SHAPE, c1)
    assert np.array_equal(a, M.forward(params, TOKENS, SHAPE, c2))
    assert not np.array_equal(a, M.forward(params, TOKENS, SHAPE, c3))


def test_dropout_mask_scaling():
    cfg = M.ForwardConfig(rng_seed=1)
    keep = M._dropout_keep(cfg, 0, M._DROP_HIDDEN, 0.25, (2000, 1), (2016, 1))
    m = keep / (1.0 - 0.25)
    assert np.array_equal(m[keep], np.full(keep.sum(), 1.0 / 0.75))
    assert not keep[2000:].any()  # padding
    assert abs(keep[:2000].mean() - 0.75) < 0.05


@pytest.mark.parametrize("site", [M._DROP_ATTN, M._DROP_HIDDEN, M._DROP_FFN])
@pytest.mark.parametrize("T", [1, 2 * M._BLOCK + 13])
def test_dropout_keep_mask_is_the_one_shot_draw_padded(T, site):
    # Drawn _BLOCK rows at a time; T=77 ends in a partial chunk. The attention
    # mask is drawn by (head, key, query) and held by (head, query, key).
    cfg = M.ForwardConfig(rng_seed=11, step=4)
    N, D, Tp = 3, 40, -(-T // M._BLOCK) * M._BLOCK
    dims, padded = ((N, T, T), (N, Tp, Tp)) if site == M._DROP_ATTN else ((T, D), (Tp, D))
    keep = M._dropout_keep(cfg, 2, site, 0.3, dims, padded)
    drawn = dropout_mask(cfg, 2, site, 0.3, *dims)
    want = _padded(drawn.transpose(0, 2, 1) if site == M._DROP_ATTN else drawn, padded)
    assert keep.dtype == bool and keep.shape == padded
    assert np.array_equal(keep, want > 0)  # False on padding
    assert np.array_equal(keep / (1.0 - 0.3), want)
    assert M._dropout_keep(cfg, 2, site, 0.0, dims, padded) is None


# ---------------------------------------------------------------------------
# Loss


def test_loss_uniform_logits_is_log_vocab():
    logits = np.zeros((16, 5))
    assert M.cross_entropy_loss(logits, [0, 3, 7, 2, 9]) == pytest.approx(
        math.log(16), rel=1e-15
    )


def test_loss_hand_example_two_classes():
    logits = np.array([[math.log(3.0)], [0.0]])  # p = (0.75, 0.25)
    assert M.cross_entropy_loss(logits, [0]) == pytest.approx(-math.log(0.75), rel=1e-12)
    assert M.cross_entropy_loss(logits, [1]) == pytest.approx(-math.log(0.25), rel=1e-12)


@pytest.mark.parametrize("bad", [-1, 16])
def test_loss_and_backward_reject_a_target_out_of_range(bad):
    # -1 used to score as id V-1, and V raised numpy's bare IndexError
    logits = np.zeros((16, 3))
    with pytest.raises(ValueError, match=rf"target id {bad} out of range \[0, 16\)"):
        M.cross_entropy_loss(logits, [0, bad, 2])
    with pytest.raises(ValueError, match=rf"target id {bad} out of range \[0, 16\)"):
        M.backward(make_params(), [1, 2, 3], [0, bad, 2], SHAPE, M.ForwardConfig(),
                   lambda name, g: None)


def test_loss_rejects_a_target_count_that_is_not_the_position_count():
    # two targets for three positions used to average over the first two
    with pytest.raises(ValueError, match="2 targets for 3 positions"):
        M.cross_entropy_loss(np.zeros((16, 3)), [0, 1])
    with pytest.raises(ValueError, match="4 targets for 3 positions"):
        M.cross_entropy_loss(np.zeros((16, 3)), [0, 1, 2, 3])


def weighted_loss(logits, targets, weights):
    """The position-weighted loss that ``backward`` takes (``train`` under
    ``loss_on_separator = false``)."""
    return M._loss_grad(np.array(logits.T), logits.shape[1], targets, weights)


def test_loss_weights_exclude_positions():
    logits = np.array([[math.log(3.0), 0.0], [0.0, 0.0]])
    full = weighted_loss(logits, [0, 1], [1.0, 0.0])
    assert full == pytest.approx(-math.log(0.75), rel=1e-12)
    # weighted mean with equal weights equals the plain mean
    assert weighted_loss(logits, [0, 1], [1.0, 1.0]) == pytest.approx(
        M.cross_entropy_loss(logits, [0, 1]), rel=1e-15
    )


def test_loss_grad_logits_matches_loss():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(7, 4))
    targets = [1, 6, 0, 3]
    dlt = np.array(logits.T)
    loss = M._loss_grad(dlt, len(targets), targets, None)
    assert loss == pytest.approx(M.cross_entropy_loss(logits, targets), rel=1e-15)
    # gradient columns sum to zero (softmax minus one-hot, averaged)
    assert np.allclose(dlt.sum(axis=1), 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# Backward


TARGETS = [1, 4, 1, 5, 9, 2, 6, 5]


def test_gradients_match_finite_differences():
    params = make_params(11)
    report = finite_diff_check(params, TOKENS, TARGETS, SHAPE, CFG, sample_count=4)
    assert set(report) == set(params)
    assert max(report.values()) < 1e-5


def test_gradients_match_finite_differences_with_dropout():
    params = make_params(12)
    cfg = M.ForwardConfig(p_at=0.2, p_h=0.2, p_f=0.2, rng_seed=5, step=2)
    report = finite_diff_check(params, TOKENS, TARGETS, SHAPE, cfg, sample_count=3)
    assert max(report.values()) < 1e-5


def test_gradients_with_position_weights():
    params = make_params(13)
    weights = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0]
    loss, grads = gradients(params, TOKENS, TARGETS, SHAPE, CFG, weights=weights)
    logits = M.forward(params, TOKENS, SHAPE)
    assert loss == pytest.approx(
        weighted_loss(logits, TARGETS, weights), rel=1e-12
    )
    # spot-check one tensor numerically under the weighted loss
    h = 1e-6
    flat = params["layer0.ffn.U"].reshape(-1)
    g = grads["layer0.ffn.U"].reshape(-1)
    for i in (0, 17):
        orig = flat[i]
        flat[i] = orig + h
        up = weighted_loss(M.forward(params, TOKENS, SHAPE), TARGETS, weights)
        flat[i] = orig - h
        down = weighted_loss(M.forward(params, TOKENS, SHAPE), TARGETS, weights)
        flat[i] = orig
        assert g[i] == pytest.approx((up - down) / (2 * h), abs=1e-7)


def test_finite_diff_check_detects_corrupted_gradient(monkeypatch):
    params = make_params(14)
    real_backward = M.backward

    def corrupted(*args, emit, **kwargs):
        def corrupt(name, grad):
            emit(name, grad * 1.5 + 0.01 if name == "layer1.ffn.W" else grad)

        return real_backward(*args, emit=corrupt, **kwargs)

    monkeypatch.setattr(M, "backward", corrupted)
    report = finite_diff_check(params, TOKENS, TARGETS, SHAPE, CFG, sample_count=6)
    assert report["layer1.ffn.W"] > 1e-2
    assert report["layer0.ffn.W"] < 1e-5


def test_backward_embedding_gets_both_head_and_lookup_gradients():
    shape = ModelShape(0, 1, 8, 8, 32, 16)
    params = M.init_params(shape, 0)
    _, grads = gradients(params, [2, 2], [2, 3], shape, CFG)
    # token 3 never appears in the input, so its column is touched only by
    # the tied head; token 2 gets lookup gradient as well
    assert np.any(grads["Wem"][:, 3] != 0.0)
    assert np.any(grads["Wem"][:, 2] != 0.0)
    # untouched tokens have exactly zero gradient only in the head term if
    # their logit column got probability mass -- softmax makes all columns
    # receive head gradient, so just verify finiteness and shape
    assert grads["Wem"].shape == params["Wem"].shape


def test_qk_layer_scaling_changes_deeper_layers_only():
    params = make_params(15)
    base = M.forward(params, TOKENS, SHAPE)
    scaled = M.forward(params, TOKENS, SHAPE, M.ForwardConfig(qk_layer_scaling=True))
    assert not np.allclose(base, scaled)
    report = finite_diff_check(
        params, TOKENS, TARGETS, SHAPE, M.ForwardConfig(qk_layer_scaling=True), sample_count=3
    )
    assert max(report.values()) < 1e-5


def test_language_model_wrapper():
    params = make_params()
    lm = M.LanguageModel(SHAPE, params)
    out = lm.logits(TOKENS)
    assert np.array_equal(out, M.forward(params, TOKENS, SHAPE))
