"""Reference implementation of the decoder's forward and backward passes.

This is the per-query formulation: attention is computed one query column
at a time with `np.einsum` over that query's prefix keys, and every
projection is an `np.einsum` contraction. It is slow and kept only as the
oracle that tests compare the blocked kernels in `finforge.model` against.
Its ALiBi biases and causal mask are the dense (N, T, T) matrices of
`alibi_matrices`, built from the same `alibi_slopes`.

`cached_probs_gradients` is the other oracle: the blocked path with the
attention probabilities and a float dropout mask kept from the forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from unittest import mock

import numpy as np

from finforge import model as M
from finforge.model import (
    _BLOCK,
    _DROP_ATTN,
    _DROP_FFN,
    _DROP_HIDDEN,
    GELU_C0,
    GELU_C1,
    _check_finite,
    ForwardConfig,
    alibi_slopes,
)
from finforge.scaling import ModelShape


# LayerNorm, GELU and the loss gradient in their plain form (`ndarray.mean`
# and `.sum`, the tanh computed inside each function, a new array for each
# operation), kept here so that the primitives in `finforge.model` are
# checked against an oracle they share no code with.


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(GELU_C0 * x * (1.0 + GELU_C1 * x * x)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    u = GELU_C0 * x * (1.0 + GELU_C1 * x * x)
    t = np.tanh(u)
    du = GELU_C0 * (1.0 + 3.0 * GELU_C1 * x * x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


def target_nll(logits, targets):
    targets = np.asarray(targets, dtype=np.intp)
    shifted = np.asarray(logits).T
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return logp, -logp[np.arange(targets.shape[0]), targets]


def _weighted_mean(x, weights):
    """Mean of ``x`` under optional position weights, and its derivative."""
    if weights is None:
        return float(np.mean(x)), np.full(x.shape[0], 1.0 / x.shape[0])
    w = np.asarray(weights, dtype=float)
    return float((x * w).sum() / w.sum()), w / w.sum()


def _loss_grad_logits(logits, targets, weights=None):
    logp, nll = target_nll(logits, targets)
    loss, dloss = _weighted_mean(nll, weights)
    dlt = np.exp(logp)
    dlt[np.arange(nll.shape[0]), targets] -= 1.0
    return loss, dlt * dloss[:, None]  # (T, V)


def _ln_fwd(x, gain, bias, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gain + bias, (xhat, inv, gain)


def _ln_bwd(dy, cache):
    xhat, inv, gain = cache
    dxhat = dy * gain
    dx = (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    ) * inv
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    return dx, dgain, dbias


def dropout_mask(cfg: ForwardConfig, layer: int, site: int, p: float, *dims):
    """One site's float dropout mask over ``dims``, drawn whole from the
    site's `finforge.model._philox` stream: ``(rand >= p) / (1 - p)``, or
    None when ``p`` is 0."""
    if p <= 0.0:
        return None
    return (M._philox(cfg, layer, site).random(dims) >= p) / (1.0 - p)


def _padded(x, shape):
    """``x`` zero-padded at the end of every axis to ``shape``."""
    out = np.zeros(shape)
    out[tuple(slice(0, n) for n in x.shape)] = x
    return out


def _padded_mask(mask, shape):
    return None if mask is None else _padded(mask, shape)


@dataclass(frozen=True)
class AlibiSpec:
    heads: int
    seq_len: int
    slopes: np.ndarray  # (N,)
    biases: np.ndarray  # (N, T, T); rows index keys, columns queries
    mask: np.ndarray  # (T, T); 1 where key <= query, -inf where key > query


def alibi_matrices(heads: int, seq_len: int) -> AlibiSpec:
    if heads < 1 or seq_len < 1:
        raise ValueError("heads and seq_len must be at least 1")
    slopes = alibi_slopes(heads)
    i = np.arange(seq_len)[:, None]  # key position
    j = np.arange(seq_len)[None, :]  # query position
    dist = np.where(i < j, (i - j).astype(float), 0.0)
    biases = slopes[:, None, None] * dist[None, :, :]
    mask = np.where(i <= j, 1.0, -np.inf)
    return AlibiSpec(heads, seq_len, slopes, biases, mask)


def _forward(params, tokens, shape: ModelShape, cfg: ForwardConfig):
    """Run the network; returns (logits (V, T), cache for backward)."""
    L, N = shape.layers, shape.heads
    D, Dh, V = shape.hidden, shape.head_dim, shape.vocab
    tokens = np.asarray(tokens, dtype=np.intp)
    T = tokens.shape[0]
    if T < 1:
        raise ValueError("need at least one token")
    if tokens.min() < 0 or tokens.max() >= V:
        raise ValueError("token id out of range")

    inv_sqrt_dh = 1.0 / math.sqrt(Dh)
    alibi = alibi_matrices(N, T)
    p_at, p_h, p_f = cfg.p_at, cfg.p_h, cfg.p_f

    emb = params["Wem"][:, tokens].T  # (T, D)
    h, ln_em_cache = _ln_fwd(emb, params["ln_em.g"], params["ln_em.b"], cfg.eps)
    _check_finite(h, "embedding LayerNorm")

    layer_caches = []
    for l in range(L):
        p = f"layer{l}."
        xn, ln_in_cache = _ln_fwd(h, params[p + "ln_in.g"], params[p + "ln_in.b"], cfg.eps)

        Wq, Wk, Wv = params[p + "attn.Wq"], params[p + "attn.Wk"], params[p + "attn.Wv"]
        bq, bk, bv = params[p + "attn.bq"], params[p + "attn.bk"], params[p + "attn.bv"]
        Q = np.einsum("td,nhd->nth", xn, Wq) + bq[:, None, :]
        K = np.einsum("td,nhd->nth", xn, Wk) + bk[:, None, :]
        Vv = np.einsum("td,nhd->nth", xn, Wv) + bv[:, None, :]

        amask = dropout_mask(cfg, l, _DROP_ATTN, p_at, N, T, T)
        scale = float(l + 1) if cfg.qk_layer_scaling else 1.0
        probs = []  # per query: pre-dropout softmax over its prefix keys
        ybar = np.empty((N, T, Dh))
        for j in range(T):
            s = (
                np.einsum("nih,nh->ni", K[:, : j + 1, :], Q[:, j, :]) * inv_sqrt_dh
                + alibi.biases[:, : j + 1, j]
            ) / scale
            s = s - s.max(axis=1, keepdims=True)
            e = np.exp(s)
            pj = e / e.sum(axis=1, keepdims=True)
            probs.append(pj)
            pd = pj if amask is None else pj * amask[:, : j + 1, j]
            ybar[:, j, :] = np.einsum("ni,nih->nh", pd, Vv[:, : j + 1, :])

        U, c = params[p + "attn.U"], params[p + "attn.c"]
        y = np.einsum("nth,ndh->td", ybar, U) + c
        hmask = dropout_mask(cfg, l, _DROP_HIDDEN, p_h, T, D)
        yd = y if hmask is None else y * hmask
        hbar = h + yd
        _check_finite(hbar, f"layer {l} attention output")

        xf, ln_at_cache = _ln_fwd(
            hbar, params[p + "ln_at.g"], params[p + "ln_at.b"], cfg.eps
        )
        a = np.einsum("td,fd->tf", xf, params[p + "ffn.W"]) + params[p + "ffn.b"]
        g = gelu(a)
        o = np.einsum("tf,df->td", g, params[p + "ffn.U"]) + params[p + "ffn.c"]
        fmask = dropout_mask(cfg, l, _DROP_FFN, p_f, T, D)
        od = o if fmask is None else o * fmask
        h_next = hbar + od
        _check_finite(h_next, f"layer {l} FFN output")

        layer_caches.append(
            dict(
                h=h, ln_in=ln_in_cache, xn=xn, Q=Q, K=K, Vv=Vv, probs=probs,
                amask=amask, ybar=ybar, hmask=hmask, hbar=hbar, ln_at=ln_at_cache,
                xf=xf, a=a, g=g, fmask=fmask, scale=scale,
            )
        )
        h = h_next

    z, ln_f_cache = _ln_fwd(h, params["ln_f.g"], params["ln_f.b"], cfg.eps)
    logits = np.einsum("td,dv->tv", z, params["Wem"])  # tied head, no bias
    _check_finite(logits, "lm head")
    cache = dict(
        tokens=tokens, ln_em=ln_em_cache, layers=layer_caches, ln_f=ln_f_cache,
        z=z, alibi=alibi, inv_sqrt_dh=inv_sqrt_dh,
    )
    return logits.T, cache


def gradients(params, tokens, targets, shape: ModelShape, cfg: ForwardConfig, weights=None):
    """``(loss, grads)`` of `finforge.model.backward`, called through the
    module: each gradient it hands to ``emit``, in ``params`` order."""
    grads = {}
    loss = M.backward(params, tokens, targets, shape, cfg, emit=grads.__setitem__, weights=weights)
    return loss, {k: grads[k] for k in params}


def backward(params, tokens, targets, shape: ModelShape, cfg: ForwardConfig, weights=None):
    """Loss and exact gradients of cross_entropy_loss(forward(.))."""
    logits, cache = _forward(params, tokens, shape, cfg)
    loss, dlt = _loss_grad_logits(logits, targets, weights)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    tok = cache["tokens"]
    z = cache["z"]
    alibi = cache["alibi"]
    inv_sqrt_dh = cache["inv_sqrt_dh"]

    # Tied LM head: gradient flows into the embedding matrix twice.
    grads["Wem"] += np.einsum("tv,td->dv", dlt, z)
    dz = np.einsum("tv,dv->td", dlt, params["Wem"])
    dh, dg, db = _ln_bwd(dz, cache["ln_f"])
    grads["ln_f.g"] += dg
    grads["ln_f.b"] += db

    for l in range(shape.layers - 1, -1, -1):
        p = f"layer{l}."
        c = cache["layers"][l]
        # h_next = hbar + drop(o)
        do = dh if c["fmask"] is None else dh * c["fmask"]
        grads[p + "ffn.U"] += np.einsum("td,tf->df", do, c["g"])
        grads[p + "ffn.c"] += do.sum(axis=0)
        dgel = np.einsum("td,df->tf", do, params[p + "ffn.U"])
        da = dgel * gelu_grad(c["a"])
        grads[p + "ffn.W"] += np.einsum("tf,td->fd", da, c["xf"])
        grads[p + "ffn.b"] += da.sum(axis=0)
        dxf = np.einsum("tf,fd->td", da, params[p + "ffn.W"])
        dhbar_ln, dgat, dbat = _ln_bwd(dxf, c["ln_at"])
        grads[p + "ln_at.g"] += dgat
        grads[p + "ln_at.b"] += dbat
        dhbar = dh + dhbar_ln

        dyd = dhbar
        dy = dyd if c["hmask"] is None else dyd * c["hmask"]
        grads[p + "attn.c"] += dy.sum(axis=0)
        grads[p + "attn.U"] += np.einsum("td,nth->ndh", dy, c["ybar"])
        dybar = np.einsum("td,ndh->nth", dy, params[p + "attn.U"])

        Q, K, Vv = c["Q"], c["K"], c["Vv"]
        dQ = np.zeros_like(Q)
        dK = np.zeros_like(K)
        dV = np.zeros_like(Vv)
        T = Q.shape[1]
        for j in range(T):
            pj = c["probs"][j]  # (N, j+1)
            am = None if c["amask"] is None else c["amask"][:, : j + 1, j]
            pd = pj if am is None else pj * am
            dyb = dybar[:, j, :]  # (N, Dh)
            dpd = np.einsum("nh,nih->ni", dyb, Vv[:, : j + 1, :])
            dV[:, : j + 1, :] += np.einsum("ni,nh->nih", pd, dyb)
            dpj = dpd if am is None else dpd * am
            ds = pj * (dpj - (dpj * pj).sum(axis=1, keepdims=True))
            ds = ds * (inv_sqrt_dh / c["scale"])
            dK[:, : j + 1, :] += np.einsum("ni,nh->nih", ds, Q[:, j, :])
            dQ[:, j, :] = np.einsum("ni,nih->nh", ds, K[:, : j + 1, :])

        xn = c["xn"]
        dxn = np.zeros_like(xn)
        for name, dmat in (("q", dQ), ("k", dK), ("v", dV)):
            grads[p + f"attn.W{name}"] += np.einsum("nth,td->nhd", dmat, xn)
            grads[p + f"attn.b{name}"] += dmat.sum(axis=1)
            dxn += np.einsum("nth,nhd->td", dmat, params[p + f"attn.W{name}"])
        dh_ln, dgin, dbin = _ln_bwd(dxn, c["ln_in"])
        grads[p + "ln_in.g"] += dgin
        grads[p + "ln_in.b"] += dbin
        dh = dhbar + dh_ln

    demb, dgem, dbem = _ln_bwd(dh, cache["ln_em"])
    grads["ln_em.g"] += dgem
    grads["ln_em.b"] += dbem
    np.add.at(grads["Wem"].T, tok, demb)
    return loss, grads


# The blocked path as it was before the backward recomputed the attention
# probabilities: the forward keeps each query block's softmax and a float
# (N, Tp, Tp) attention-dropout mask drawn whole, and the attention backward
# reads them. The hidden and FFN masks are drawn whole too, and cached as the
# bool keep masks that `finforge.model.backward` reads. Everything else is
# `finforge.model`'s own code, so comparing the two checks the recompute and
# the chunked bool keep masks bit for bit.


def _cached_forward(params, tokens, shape: ModelShape, cfg: ForwardConfig, keep_cache: bool):
    L, N = shape.layers, shape.heads
    D, Dh = shape.hidden, shape.head_dim
    tokens = np.asarray(tokens, dtype=np.intp)
    T = tokens.shape[0]
    Tp = -(-T // _BLOCK) * _BLOCK
    inv_sqrt_dh = 1.0 / math.sqrt(Dh)
    bias = M._cached_block_bias(N, Tp)

    emb = _padded(params["Wem"][:, tokens].T, (Tp, D))
    h, ln_em_cache = M._ln_fwd(emb, params["ln_em.g"], params["ln_em.b"], cfg.eps)
    layer_caches = []
    for l in range(L):
        p = f"layer{l}."
        xn, ln_in_cache = M._ln_fwd(h, params[p + "ln_in.g"], params[p + "ln_in.b"], cfg.eps)
        Wqkv, Ucat = M._attn_maps(params, p, shape)
        qkv = M._rows(xn, Wqkv.T).reshape(Tp, 3, N, Dh)
        qkv[:, 0] += params[p + "attn.bq"]
        qkv[:, 2] += params[p + "attn.bv"]
        Q, K, Vv = qkv.transpose(1, 2, 0, 3)

        # (N, query, key), transposed from the (N, key, query) draw
        amask = dropout_mask(cfg, l, _DROP_ATTN, cfg.p_at, N, T, T)
        amask = _padded_mask(None if amask is None else amask.transpose(0, 2, 1), (N, Tp, Tp))
        scale = float(l + 1) if cfg.qk_layer_scaling else 1.0
        probs = []  # per query block: pre-dropout softmax over keys [0, k1)
        ybar = np.empty((Tp, N, Dh))
        for q0 in range(0, Tp, _BLOCK):
            k1 = q0 + _BLOCK
            s = Q[:, q0:k1] @ K[:, :k1].transpose(0, 2, 1)
            s *= inv_sqrt_dh
            s += bias[:, :, Tp - k1 :]
            s /= scale
            s -= s.max(axis=2, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=2, keepdims=True)
            probs.append(s)
            pd = s if amask is None else s * amask[:, q0:k1, :k1]
            ybar[q0:k1] = (pd @ Vv[:, :k1]).transpose(1, 0, 2)
        ybar = ybar.reshape(Tp, N * Dh)

        y = M._rows(ybar, Ucat) + params[p + "attn.c"]
        hmask = _padded_mask(dropout_mask(cfg, l, _DROP_HIDDEN, cfg.p_h, T, D), (Tp, D))
        hbar = h + (y if hmask is None else y * hmask)
        xf, ln_at_cache = M._ln_fwd(hbar, params[p + "ln_at.g"], params[p + "ln_at.b"], cfg.eps)
        a = M._rows(xf, params[p + "ffn.W"].T)
        a += params[p + "ffn.b"]
        g, gg = M._gelu_rows(a, np.empty_like(a))
        o = M._rows(g, params[p + "ffn.U"].T) + params[p + "ffn.c"]
        fmask = _padded_mask(dropout_mask(cfg, l, _DROP_FFN, cfg.p_f, T, D), (Tp, D))
        h_next = hbar + (o if fmask is None else o * fmask)
        layer_caches.append(dict(
            ln_in=ln_in_cache, qkv=(Q, K, Vv), probs=probs, amask=amask, ybar=ybar,
            hkeep=None if hmask is None else hmask > 0, ln_at=ln_at_cache, g=g, gg=gg,
            fkeep=None if fmask is None else fmask > 0, scale=scale,
        ))
        h = h_next

    z, ln_f_cache = M._ln_fwd(h, params["ln_f.g"], params["ln_f.b"], cfg.eps)
    head = M._rows(z, params["Wem"])
    return head[:T].T, dict(
        tokens=tokens, ln_em=ln_em_cache, layers=layer_caches, ln_f=ln_f_cache,
        z=z, head=head, bias=bias, inv_sqrt_dh=inv_sqrt_dh,
    )


def _cached_attention_back(dybar, c, bias, inv_sqrt_dh, p_at):
    N, Tp, Dh = dybar.shape
    Q, K, Vv = c["qkv"]
    amask = c["amask"]
    coef = inv_sqrt_dh / c["scale"]
    dqkv = np.zeros((Tp, 3, N, Dh))
    dQ, dK, dV = dqkv.transpose(1, 2, 0, 3)  # each (N, Tp, Dh)
    for qb, P in enumerate(c["probs"]):
        q0, k1 = qb * _BLOCK, (qb + 1) * _BLOCK
        am = None if amask is None else amask[:, q0:k1, :k1]
        pd = P if am is None else P * am
        dyb = dybar[:, q0:k1]
        dV[:, :k1] += pd.transpose(0, 2, 1) @ dyb
        dp = dyb @ Vv[:, :k1].transpose(0, 2, 1)
        if am is not None:
            dp *= am
        ds = P * (dp - (dp * P).sum(axis=2, keepdims=True))
        ds *= coef
        dK[:, :k1] += ds.transpose(0, 2, 1) @ Q[:, q0:k1]
        dQ[:, q0:k1] = ds @ K[:, :k1]
    return dqkv.reshape(Tp, 3 * N * Dh)


def cached_probs_gradients(params, tokens, targets, shape: ModelShape, cfg: ForwardConfig):
    """``gradients`` with the forward keeping each block's probabilities and
    a float attention-dropout mask, which the attention backward reads."""
    with mock.patch.multiple(M, _forward=_cached_forward, _attention_back=_cached_attention_back):
        return gradients(params, tokens, targets, shape, cfg)


def finite_diff_check(
    params,
    tokens,
    targets,
    shape: ModelShape,
    cfg: ForwardConfig,
    h: float = 1e-5,
    sample_count: int = 5,
    seed: int = 0,
) -> dict[str, float]:
    """Central-difference check of `finforge.model.backward`'s gradients on a
    random sample of coordinates per parameter group; returns max relative
    error per group. It calls `backward` and `forward` through the module,
    so a test can substitute either."""
    _, grads = gradients(params, tokens, targets, shape, cfg)
    rng = np.random.default_rng(seed)
    report = {}

    def loss_fn():
        return M.cross_entropy_loss(M.forward(params, tokens, shape, cfg), targets)

    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        idx = rng.choice(flat.size, size=min(sample_count, flat.size), replace=False)
        worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = grads[name].reshape(-1)[i]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
            worst = max(worst, err)
        report[name] = worst
    return report
