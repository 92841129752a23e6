"""Decoder-only transformer with ALiBi attention, pure numpy.

Embeddings with an extra LayerNorm, pre-LN residual blocks (multi-head
self-attention with ALiBi biases, then a GELU feed-forward), and a tied
LM head without bias. Forward, cross-entropy loss, and hand-derived
reverse-mode gradients, all in float64 for verification.

Every matrix product runs through BLAS GEMM on fixed row blocks aligned to
absolute positions. The residual stream is zero-padded once, at the
embedding, to a multiple of ``_BLOCK`` rows; each projection, the FFN and
the LM head multiply one ``_BLOCK``-row block at a time, every block with
the same shape. Attention runs per query block, batched over heads: query
block ``qb`` scores against keys ``[0, (qb+1)*_BLOCK)``, takes its ALiBi
bias and causal mask from absolute positions, and multiplies the row
softmax with the values of those keys (blockwise attention as in
FlashAttention, arXiv:2205.14135).

This makes outputs prefix-invariant by construction: logits for positions
1..t are bit-identical whether or not later tokens are present. Each row's
value comes out of GEMMs whose shapes depend only on the row's block, never
on the sequence length, so BLAS reduces it in the same order; keys after a
query get exact-zero probabilities, and adding a zero product is exact.
Padded rows never reach a real position: they sit after it.

Training keeps no attention probabilities: ``backward`` recomputes each
query block's softmax from the cached Q and K through the one helper the
forward used, with the same GEMM shapes and operations, so the bits are the
same (exact recomputation as in FlashAttention, trading compute for memory
as in Chen et al. 2016, arXiv:1604.06174). Every dropout mask is held as a
bool keep mask, the attention one scaled one query block at a time.

The same alignment makes a cached prefix exact. Once a block is complete,
its K and V rows are the same bits whatever comes after it, so ``forward``
can start from the K/V rows of the completed blocks of a prefix (``past``)
and compute only the blocks after them: each of those runs the same
per-block GEMMs and scores against the same keys ``[0, (qb+1)*_BLOCK)``
with the same bias as in a full forward. ``LanguageModel`` keeps a bounded
cache of the K/V rows of such blocks, keyed by the tokens up to each
block's end (K/V caching, Pope et al. 2022, arXiv:2211.05102); its callers
ask only for the logit columns they read, so no logits are cached.

The same row independence lets a forward skip the rows no caller reads.
``forward``'s ``start`` is the first column asked for: the last layer still
computes Q, K and V for every row, but its query blocks that end before
``start`` run no softmax, output projection or FFN, and no final LayerNorm
or head row is computed for them. ``target_nll`` overwrites logit rows with
their log-softmax one ``_BLOCK`` at a time, ``span_nll`` scores a block of
rows at a time and ``backward`` turns the head output into the loss
gradient in place: training included, besides the head output no array
holds more than a block of vocabulary-wide rows (the per-block scoring of
Wijmans et al. 2024, arXiv:2411.09009). ``LanguageModel`` keeps the float
of each scored span, so a span that eval scores again runs no forward.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .scaling import ModelShape, count_parameters
from .tokenizer import BoundedMemo

GELU_C0 = 0.79788456
GELU_C1 = 0.044715

_DROP_ATTN, _DROP_HIDDEN, _DROP_FFN = 0, 1, 2

# Rows per GEMM block: of 16, 32 and 64, the fastest overall when measured at
# the benchmark's model shapes and sequence lengths (32 to 288).
_BLOCK = 32
# Bytes of K/V rows of completed blocks a LanguageModel keeps, least recently
# used out first: 320 blocks at the benchmark's eval shape (L2 N4 Dh16),
# whatever the vocabulary size.
_CACHE_BYTES = 20 << 20
# Bytes of scored spans a LanguageModel keeps the NLL of: each entry's token
# and position keys and its float, as ``sys.getsizeof`` counts them.
_SCORE_BYTES = 4 << 20


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared in the computation graph."""


@dataclass(frozen=True)
class ForwardConfig:
    """One forward pass's settings; each ``p_*`` above 0 drops out at its site."""

    p_at: float = 0.0
    p_h: float = 0.0
    p_f: float = 0.0
    rng_seed: int = 0
    step: int = 0
    eps: float = 1e-5
    qk_layer_scaling: bool = False


def alibi_slopes(heads: int) -> np.ndarray:
    """Per-head distance-penalty slopes; exact powers of two when the head
    count is a power of two, interleaved half-steps otherwise."""
    n_pow = 2 ** math.floor(math.log2(heads))
    n = np.arange(1, heads + 1)
    n_tilde = 1 + ((n - 1) % n_pow) - 0.5 * ((n - 1) // n_pow)
    return 2.0 ** (-(8.0 / heads) * n_tilde)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU."""
    return _gelu_rows(np.array(x, dtype=float, ndmin=1))[0].reshape(np.shape(x))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d gelu / dx."""
    a = np.array(x, dtype=float, ndmin=1)
    return _gelu_rows(a, np.empty_like(a))[1].reshape(np.shape(x))


def _gelu_rows(a: np.ndarray, gg: np.ndarray | None = None):
    """``(a, gg)``: GELU of ``a`` written over ``a`` and, when ``gg`` is
    given, d gelu / da written into it. With ``t = tanh(C0*a*(1 + C1*a*a))``
    these are ``0.5*a*(1 + t)`` and ``0.5*(1 + t) + 0.5*a*(1 - t*t) *
    C0*(1 + 3*C1*a*a)``, computed by these operations in this order, so the
    bits are the same; one ``_BLOCK`` of rows at a time, in place, so no
    temporary is larger than a block."""
    u = w = None
    for r in range(0, a.shape[0], _BLOCK):
        x = a[r : r + _BLOCK]
        u = np.multiply(x, GELU_C0, out=None if u is None else u[: len(x)])
        w = np.multiply(x, GELU_C1, out=None if w is None else w[: len(x)])
        w *= x
        w += 1.0
        u *= w
        np.tanh(u, out=u)  # t
        if gg is not None:
            d = gg[r : r + _BLOCK]
            np.multiply(x, 3.0 * GELU_C1, out=w)
            w *= x
            w += 1.0
            w *= GELU_C0  # du
            np.multiply(u, u, out=d)
            np.subtract(1.0, d, out=d)
        x *= 0.5
        u += 1.0
        if gg is not None:
            d *= x
            d *= w
            np.multiply(u, 0.5, out=w)
            d += w
        x *= u
    return a, gg


def layer_norm(x, gain, bias, eps):
    """Row-wise LayerNorm with population variance; x is (T, D)."""
    return _ln_fwd(x, gain, bias, eps)[0]


def _row_mean(x):
    """``x.mean(axis=-1, keepdims=True)``: the same sum and division, without
    the Python wrapper around them."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _ln_fwd(x, gain, bias, eps):
    xhat = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(xhat ** 2) + eps)
    xhat *= inv
    cache = (xhat, inv, gain)
    return _ln_out(cache, bias), cache


def _ln_out(cache, bias):
    """A LayerNorm's output from its cache, as ``_ln_fwd`` computes it, so
    ``backward`` can rebuild it with the same bits instead of keeping it."""
    xhat, _, gain = cache
    return xhat * gain + bias


def _ln_bwd(dy, cache):
    xhat, inv, gain = cache
    dxhat = dy * gain
    dx = (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat)) * inv
    dgain = np.add.reduce(dy * xhat, axis=0)
    dbias = np.add.reduce(dy, axis=0)
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# Parameters


def param_shapes(shape: ModelShape) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and array shape, in initialization order."""
    N, D, Dh, Df = shape.heads, shape.hidden, shape.head_dim, shape.ffn_hidden
    layer = {"ln_in.g": (D,), "ln_in.b": (D,)}
    layer.update({"attn.W" + k: (N, Dh, D) for k in "qkv"})
    layer.update({"attn.b" + k: (N, Dh) for k in "qkv"})
    layer.update({
        "attn.U": (N, D, Dh), "attn.c": (D,), "ln_at.g": (D,), "ln_at.b": (D,),
        "ffn.W": (Df, D), "ffn.b": (Df,), "ffn.U": (D, Df), "ffn.c": (D,),
    })
    shapes = {"Wem": (D, shape.vocab), "ln_em.g": (D,), "ln_em.b": (D,)}
    for l in range(shape.layers):
        shapes.update({f"layer{l}.{k}": dims for k, dims in layer.items()})
    shapes.update({"ln_f.g": (D,), "ln_f.b": (D,)})
    return shapes


def init_std(hidden: int) -> float:
    return 1.0 / math.sqrt(3.0 * hidden)


def _offsets(shapes: dict) -> dict[str, int]:
    """The one layout of a buffer of ``shapes``, in memory and in a
    checkpoint: each name's element offset, its C-ordered tensor following
    the one before it in sorted name order."""
    offsets, off = {}, 0
    for name in sorted(shapes):
        offsets[name] = off
        off += math.prod(shapes[name])
    return offsets


def _tiled(shapes: dict, fill=np.empty) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A new float64 buffer from ``fill`` and its views at their
    ``_offsets``, one per ``name: shape`` of ``shapes``, in ``shapes``'s order."""
    buf, offsets = fill(sum(math.prod(s) for s in shapes.values())), _offsets(shapes)
    return buf, {name: buf[offsets[name] : offsets[name] + math.prod(shape)].reshape(shape)
                 for name, shape in shapes.items()}


def init_params(shape: ModelShape, seed: int) -> dict[str, np.ndarray]:
    """Gaussian init with std 1/sqrt(3D); the attention output map and the
    second FFN layer are rescaled by 1/sqrt(2L). Gains start at 1, biases 0.
    Draws go in ``param_shapes`` order, each into its view of one buffer,
    the layout the trainer's optimizer runs on, so training needs no copy."""
    L = shape.layers
    z = init_std(shape.hidden)
    zp = z / math.sqrt(2.0 * L) if L > 0 else z
    rng = np.random.default_rng(seed)
    _, params = _tiled(param_shapes(shape))
    for name, view in params.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("Wem", "Wq", "Wk", "Wv", "W"):
            view[...] = rng.normal(0.0, z, size=view.shape)
        elif leaf == "U":
            view[...] = rng.normal(0.0, zp, size=view.shape)
        else:
            view[...] = 1.0 if leaf == "g" else 0.0

    assert sum(v.size for v in params.values()) == count_parameters(shape).grand_total
    return params


def _philox(cfg: ForwardConfig, layer: int, site: int) -> np.random.Generator:
    """The dropout stream of one site of one layer at ``cfg.step``."""
    key = np.array(
        [cfg.rng_seed & 0xFFFFFFFFFFFFFFFF, (cfg.step << 16) ^ (layer << 4) ^ site],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _dropout_keep(cfg: ForwardConfig, layer: int, site: int, p: float, dims, padded):
    """Layer ``layer``'s dropout keep mask at ``site``, None when ``p`` is 0:
    bool of shape ``padded``, False on padding, True where the site's stream,
    drawn over ``dims`` in C order ``_BLOCK`` rows at a time, is at least
    ``p``. ``keep / (1.0 - p)`` is the dropout multiplier. The attention
    mask (N, Tp, Tp) is held by (head, query, key) but drawn by (head, key,
    query)."""
    if p <= 0.0:
        return None
    rng = _philox(cfg, layer, site)
    keep = np.zeros(padded, dtype=bool)
    drawn = (keep.transpose(0, 2, 1) if site == _DROP_ATTN else keep)[tuple(map(slice, dims))]
    for i in np.ndindex(dims[:-2]):
        for r in range(0, dims[-2], _BLOCK):
            rows = drawn[i][r : r + _BLOCK]
            np.greater_equal(rng.random(rows.shape), p, out=rows)
    return keep


# ---------------------------------------------------------------------------
# Forward / loss / backward


def _check_finite(x: np.ndarray, where: str) -> None:
    """Raise unless all of ``x`` is finite, read once, ``_BLOCK`` rows at a time."""
    for r in range(0, x.shape[0], _BLOCK):
        if not np.isfinite(x[r : r + _BLOCK]).all():
            raise NonFiniteError(f"non-finite values at {where}")


def _rows(x, w):
    """``x @ w`` for ``x`` of shape (Tp, K), Tp a multiple of ``_BLOCK``: one
    GEMM per aligned ``_BLOCK``-row block, all of the same shape, so each
    output row depends on its own input row only, never on Tp."""
    return np.matmul(x.reshape(-1, _BLOCK, x.shape[1]), w).reshape(x.shape[0], -1)


def _block_bias(slopes, Tp):
    """ALiBi bias and causal mask for one query block, (N, _BLOCK, Tp).

    Query block ``qb`` uses the last ``(qb+1)*_BLOCK`` columns, which are its
    keys ``[0, (qb+1)*_BLOCK)``: key minus query there is
    ``column - (Tp - _BLOCK) - row`` whatever ``qb`` is. Keys after the query
    get -inf, so their probabilities are exact zeros."""
    rel = np.arange(Tp)[None, :] - (Tp - _BLOCK) - np.arange(_BLOCK)[:, None]
    return np.where(rel <= 0, slopes[:, None, None] * rel, -np.inf)


# Per head count: the read-only ``_block_bias`` of the longest padded length
# asked for so far.
_BIASES: dict[int, np.ndarray] = {}


def _cached_block_bias(heads: int, Tp: int) -> np.ndarray:
    """``_block_bias(alibi_slopes(heads), Tp)``, sliced from the one array
    kept per head count: a bias's last ``Tp`` columns are the bias for
    ``Tp``, since its values depend only on the distance to the last one."""
    full = _BIASES.get(heads)
    if full is None or full.shape[2] < Tp:
        full = _block_bias(alibi_slopes(heads), Tp)
        full.flags.writeable = False
        _BIASES[heads] = full
    return full[:, :, full.shape[2] - Tp :]


def _block_softmax(q, k, bias, inv_sqrt_dh, scale, r0=0):
    """Row softmax (N, _BLOCK, k1) of query block ``q`` over its keys ``k``
    (N, k1, Dh), with the last k1 columns of the padded length's ``bias``:
    the one computation of ``_forward`` that ``_attention_back`` repeats.
    Only rows from ``r0`` on are a softmax, the others raw scores that the
    caller does not read; the scores are one GEMM of all ``_BLOCK`` rows and
    the rest works row by row, so a row's bits do not depend on ``r0``."""
    s = q @ k.transpose(0, 2, 1)
    t = s[:, r0:]
    t *= inv_sqrt_dh
    t += bias[:, r0:, bias.shape[2] - k.shape[1] :]
    if scale != 1.0:  # dividing by 1.0 changes no bit
        t /= scale
    t -= np.maximum.reduce(t, axis=2, keepdims=True)
    np.exp(t, out=t)
    t /= np.add.reduce(t, axis=2, keepdims=True)
    return s


def _attn_maps(params, p, shape: ModelShape):
    """Layer ``p``'s Q, K and V projections stacked into one (3*N*Dh, D)
    matrix, and its output map as (N*Dh, D)."""
    N, D, Dh = shape.heads, shape.hidden, shape.head_dim
    Wqkv = np.concatenate([params[p + "attn.W" + k] for k in "qkv"]).reshape(3 * N * Dh, D)
    return Wqkv, params[p + "attn.U"].transpose(0, 2, 1).reshape(N * Dh, D)


def _forward(params, tokens, shape: ModelShape, cfg: ForwardConfig, keep_cache: bool, past=None,
             start=0):
    """Run the network; returns (logits (V, T - start) of the positions from
    ``start`` on, cache for backward), the cache None unless ``keep_cache``.

    The cache holds activations of all Tp padded rows, the (Tp, V) head
    output among them; rows from T on are padding that no real position
    attends to. ``backward`` reads it, and asks for every position.

    ``past``, when given, is a list of the cached blocks of the positions
    before ``tokens``, in order: each block a list of one (K, V) pair per
    layer, each (N, _BLOCK, Dh). Only the blocks after them are computed,
    and the call appends to ``past`` the blocks that it completes.

    Past its Q, K and V, the last layer runs only from the block that holds
    ``start`` on (the softmax from ``start`` itself), and so do the final
    LayerNorm, the head and their finiteness checks; each column returned
    has the bits of a call with ``start`` 0."""
    L, N = shape.layers, shape.heads
    D, Dh, V = shape.hidden, shape.head_dim, shape.vocab
    tokens = np.asarray(tokens, dtype=np.intp)
    T = tokens.shape[0]
    if T < 1:
        raise ValueError("need at least one token")
    if tokens.min() < 0 or tokens.max() >= V:
        raise ValueError("token id out of range")
    if past is not None and max(cfg.p_at, cfg.p_h, cfg.p_f) > 0:
        raise ValueError(
            "a cached prefix needs an inference config: dropout masks span the whole sequence"
        )
    s0 = len(past) * _BLOCK if past else 0
    lo = start - start % _BLOCK  # the first row of the block that holds ``start``
    done = [[] for _ in range(T // _BLOCK)] if past is not None else []  # the blocks completed here

    Tp = s0 + -(-T // _BLOCK) * _BLOCK  # padded length of the whole sequence
    rows = Tp - s0  # the rows computed here
    inv_sqrt_dh = 1.0 / math.sqrt(Dh)
    bias = _cached_block_bias(N, Tp)

    emb = np.zeros((rows, D))
    emb[:T] = params["Wem"][:, tokens].T
    h, ln_em_cache = _ln_fwd(emb, params["ln_em.g"], params["ln_em.b"], cfg.eps)
    _check_finite(h, "embedding LayerNorm")

    layer_caches = []
    for l in range(L):
        p = f"layer{l}."
        xn, ln_in_cache = _ln_fwd(h, params[p + "ln_in.g"], params[p + "ln_in.b"], cfg.eps)

        Wqkv, Ucat = _attn_maps(params, p, shape)
        qkv = _rows(xn, Wqkv.T).reshape(rows, 3, N, Dh)
        del xn, Wqkv
        # attn.bk adds q.bk to every score of query q, which the softmax
        # cancels exactly: it is left out, and its gradient is exactly zero.
        qkv[:, 0] += params[p + "attn.bq"]
        qkv[:, 2] += params[p + "attn.bv"]
        Q, K, Vv = qkv.transpose(1, 2, 0, 3)  # each (N, rows, Dh)
        for b, block in enumerate(done):
            r = slice(b * _BLOCK, (b + 1) * _BLOCK)
            block.append((K[:, r].copy(), Vv[:, r].copy()))
        if s0:
            K = np.concatenate([block[l][0] for block in past] + [K], axis=1)
            Vv = np.concatenate([block[l][1] for block in past] + [Vv], axis=1)

        # The first row of this layer's output that is read, and the first
        # row of its block: from there on the layer runs past Q, K and V.
        first, fb = (start, lo) if l == L - 1 else (0, 0)
        keep = _dropout_keep(cfg, l, _DROP_ATTN, cfg.p_at, (N, T, T), (N, Tp, Tp))
        scale = float(l + 1) if cfg.qk_layer_scaling else 1.0
        ybar = np.empty((rows - fb, N, Dh))
        for q in range(fb, rows, _BLOCK):
            k0, k1 = s0 + q, s0 + q + _BLOCK  # the block's absolute rows, and its keys [0, k1)
            pd = _block_softmax(Q[:, q : q + _BLOCK], K[:, :k1], bias, inv_sqrt_dh, scale,
                                max(first - q, 0))
            if keep is not None:
                pd *= keep[:, k0:k1, :k1] / (1.0 - cfg.p_at)
            ybar[q - fb : q - fb + _BLOCK] = (pd @ Vv[:, :k1]).transpose(1, 0, 2)
        ybar = ybar.reshape(rows - fb, N * Dh)

        y = _rows(ybar, Ucat) + params[p + "attn.c"]
        hkeep = _dropout_keep(cfg, l, _DROP_HIDDEN, cfg.p_h, (T, D), (rows, D))
        yd = y if hkeep is None else y * (hkeep[fb:] / (1.0 - cfg.p_h))
        hbar = h[fb:] + yd
        _check_finite(hbar[first - fb :], f"layer {l} attention output")

        xf, ln_at_cache = _ln_fwd(
            hbar, params[p + "ln_at.g"], params[p + "ln_at.b"], cfg.eps
        )
        a = _rows(xf, params[p + "ffn.W"].T)
        a += params[p + "ffn.b"]
        # g over a, which nothing reads again; gelu'(a) only for backward
        g, gg = _gelu_rows(a, np.empty_like(a) if keep_cache else None)
        o = _rows(g, params[p + "ffn.U"].T) + params[p + "ffn.c"]
        fkeep = _dropout_keep(cfg, l, _DROP_FFN, cfg.p_f, (T, D), (rows, D))
        od = o if fkeep is None else o * (fkeep[fb:] / (1.0 - cfg.p_f))
        h_next = hbar + od
        _check_finite(h_next[first - fb :], f"layer {l} FFN output")

        if keep_cache:
            # xn, xf and the attention probabilities are left out: backward
            # rebuilds them from the LayerNorm caches and Q and K with the
            # same bits.
            layer_caches.append(dict(
                ln_in=ln_in_cache, qkv=(Q, K, Vv), keep=keep, ybar=ybar,
                hkeep=hkeep, ln_at=ln_at_cache, g=g, gg=gg, fkeep=fkeep, scale=scale,
            ))
        h = h_next

    # h's rows from ``lo`` on, whether or not a last layer has dropped the others
    z, ln_f_cache = _ln_fwd(h[lo - rows :], params["ln_f.g"], params["ln_f.b"], cfg.eps)
    head = _rows(z, params["Wem"])  # tied head, no bias
    logits = head[start - lo : T - lo]
    _check_finite(logits, "lm head")
    if done:
        past.extend(done)
    if not keep_cache:
        return logits.T, None
    return logits.T, dict(
        tokens=tokens, ln_em=ln_em_cache, layers=layer_caches, ln_f=ln_f_cache,
        z=z, head=head, bias=bias, inv_sqrt_dh=inv_sqrt_dh,
    )


# A diverging run's overflows are reported by ``_check_finite`` and
# ``clip_gradients``, which name the site, not as numpy warnings ahead of them.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def forward(params, tokens, shape: ModelShape, cfg: ForwardConfig | None = None, past=None,
            start=0):
    """Logits (V, T - start) for the positions ``start .. T-1`` of a token
    sequence, or of the T positions after a cached prefix ``past``, which
    the call extends (see ``_forward``)."""
    cfg = cfg or ForwardConfig()
    return _forward(params, tokens, shape, cfg, False, past, start)[0]


def target_nll(rows: np.ndarray, targets) -> np.ndarray:
    """Each row's negative log-likelihood (nats) of its target, the C-ordered
    logit rows (n, V) overwritten by their log-softmax one ``_BLOCK`` at a
    time: the one log-softmax/NLL primitive."""
    targets = np.asarray(targets, dtype=np.intp)
    if targets.shape != rows.shape[:1]:
        raise ValueError(f"{targets.size} targets for {rows.shape[0]} positions")
    bad = targets[(targets < 0) | (targets >= rows.shape[1])]
    if bad.size:
        raise ValueError(f"target id {bad[0]} out of range [0, {rows.shape[1]})")
    e = np.empty((min(len(rows), _BLOCK), rows.shape[1]))  # each block's exp
    for r in range(0, len(rows), _BLOCK):
        x = rows[r : r + _BLOCK]
        x -= np.maximum.reduce(x, axis=1, keepdims=True)
        x -= np.log(np.add.reduce(np.exp(x, out=e[: len(x)]), axis=1, keepdims=True))
    return -rows[np.arange(targets.shape[0]), targets]


def cross_entropy_loss(logits: np.ndarray, targets) -> float:
    """Mean next-token NLL (nats) of logits (V, T), scored in a copy."""
    return float(np.mean(target_nll(np.array(np.asarray(logits).T, order="C"), targets)))


def _loss_grad(head: np.ndarray, T: int, targets, weights) -> float:
    """Mean NLL of the head output's first ``T`` rows under optional position
    weights, ``head`` (Tp, V) overwritten by its gradient: exact zeros from T on."""
    nll = target_nll(head[:T], targets)
    w = np.ones(T) if weights is None else np.asarray(weights, dtype=float)
    loss, dloss = float((nll * w).sum() / w.sum()), w / w.sum()
    dlt = np.exp(head[:T], out=head[:T])
    dlt[np.arange(T), targets] -= 1.0
    dlt *= dloss[:, None]
    head[T:] = 0.0
    return loss


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # as ``forward``
def backward(params, tokens, targets, shape: ModelShape, cfg: ForwardConfig, emit, weights=None):
    """Loss of cross_entropy_loss(forward(.)); its exact gradients go to
    ``emit(name, grad)``, called exactly once per parameter group as soon as
    that group's gradient is final (``Wem`` last, after the embedding's
    scatter-add).

    Memory: besides the parameters, the gradients not yet handed over (at
    most one layer's) and one sequence's activations, of which the cache
    keeps only what backward reads (gelu(a) and gelu'(a), not a; Q, K and V,
    not the attention probabilities, which are recomputed per query block;
    every dropout mask as bool), each freed after its last read. No
    float (N, T, T) array outlives one query block: at T=2048 (L2 N4 Dh16,
    V 1024, the ALiBi bias already built) one call peaks at 79.1 MiB, 111.1
    MiB with attention dropout and 111.6 MiB with dropout at all three sites.
    At V=2**17, T=511 the head output, turned into the loss gradient in
    place, is the one (Tp, V) array: 512 of the 580 MiB one call peaks at. A
    step accumulating through ``emit`` thus holds four model copies
    (parameters, accumulator, AdamW's m and v) plus those activations.

    Padded rows get exactly zero upstream gradient, so they add nothing to
    the weight gradients."""
    _, cache = _forward(params, tokens, shape, cfg, True)
    dlt = cache.pop("head")  # (Tp, V), the loss gradient from here on
    loss = _loss_grad(dlt, len(cache["tokens"]), targets, weights)
    N, D, Dh, Tp = shape.heads, shape.hidden, shape.head_dim, dlt.shape[0]

    def ln_back(dy, ln_cache, prefix):
        dx, dgain, dbias = _ln_bwd(dy, ln_cache)
        emit(prefix + "g", dgain)
        emit(prefix + "b", dbias)
        return dx

    dh = ln_back(dlt @ params["Wem"].T, cache["ln_f"], "ln_f.")

    for l in range(shape.layers - 1, -1, -1):
        p = f"layer{l}."
        c = cache["layers"].pop()  # frees each layer's activations once used
        # h_next = hbar + drop(o)
        do = dh if c["fkeep"] is None else dh * (c["fkeep"] / (1.0 - cfg.p_f))
        emit(p + "ffn.U", do.T @ c.pop("g"))
        emit(p + "ffn.c", do.sum(axis=0))
        da = do @ params[p + "ffn.U"]
        da *= c.pop("gg")
        del do
        emit(p + "ffn.W", da.T @ _ln_out(c["ln_at"], params[p + "ln_at.b"]))
        emit(p + "ffn.b", da.sum(axis=0))
        dhbar = dh + ln_back(da @ params[p + "ffn.W"], c["ln_at"], p + "ln_at.")
        del da, dh

        Wqkv, Ucat = _attn_maps(params, p, shape)
        dy = dhbar if c["hkeep"] is None else dhbar * (c["hkeep"] / (1.0 - cfg.p_h))
        emit(p + "attn.c", dy.sum(axis=0))
        dU = (dy.T @ c["ybar"]).reshape(D, N, Dh).transpose(1, 0, 2)
        emit(p + "attn.U", np.ascontiguousarray(dU))
        dybar = (dy @ Ucat.T).reshape(Tp, N, Dh).transpose(1, 0, 2)
        del dy, dU, Ucat
        dqkv = _attention_back(dybar, c, cache["bias"], cache["inv_sqrt_dh"], cfg.p_at)
        del dybar
        dW = (dqkv.T @ _ln_out(c["ln_in"], params[p + "ln_in.b"])).reshape(3, N, Dh, D)
        db = dqkv.sum(axis=0).reshape(3, N, Dh)
        db[1] = 0.0  # attn.bk, left out of the forward
        for i, k in enumerate("qkv"):
            emit(p + "attn.W" + k, dW[i])
            emit(p + "attn.b" + k, db[i])
        del dW
        dh = dhbar + ln_back(dqkv @ Wqkv, c["ln_in"], p + "ln_in.")

    demb = ln_back(dh, cache["ln_em"], "ln_em.")
    # Tied LM head: gradient flows into the embedding matrix twice. The head's
    # term is formed last, from the same operands, so no layer runs beside it.
    dWem = cache["z"].T @ dlt
    np.add.at(dWem.T, cache["tokens"], demb[: len(cache["tokens"])])
    emit("Wem", dWem)
    return loss


def _attention_back(dybar, c, bias, inv_sqrt_dh, p_at):
    """One layer's stacked Q, K and V gradient (Tp, 3*N*Dh) from that of its
    attention output ``dybar`` (N, Tp, Dh), per query block as the forward
    ran, each block's probabilities recomputed from Q and K as the forward
    computed them."""
    N, Tp, Dh = dybar.shape
    Q, K, Vv = c["qkv"]
    keep, scale = c["keep"], c["scale"]
    coef = inv_sqrt_dh / scale
    dqkv = np.zeros((Tp, 3, N, Dh))
    dQ, dK, dV = dqkv.transpose(1, 2, 0, 3)  # each (N, Tp, Dh)
    for q0 in range(0, Tp, _BLOCK):
        k1 = q0 + _BLOCK
        P = _block_softmax(Q[:, q0:k1], K[:, :k1], bias, inv_sqrt_dh, scale)
        am = None if keep is None else keep[:, q0:k1, :k1] / (1.0 - p_at)
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


def span_nll(lm, tokens, scored) -> float:
    """NLL (nats) of ``tokens`` at the positions ``scored`` (each at least
    1), each conditioned on all earlier tokens, from ``lm.logits``: the one
    way a span is scored, memoized or not."""
    start = min(scored, default=1) - 1
    if start < 0:
        raise ValueError("position 0 has no context to be scored from")
    if max(scored, default=0) >= len(tokens):
        raise ValueError(f"scored position {max(scored)} out of range [1, {len(tokens)})")
    # row j of the head output predicts token start + j + 1
    head = np.asarray(lm.logits(tokens[:-1], start)).T
    scored = np.asarray(scored, dtype=np.intp)
    targets = np.asarray(tokens)[scored]
    # One _BLOCK of scored rows at a time, so no copy of the head output
    # holds more; each row's NLL is the same bits, and one sum adds them.
    nll = np.empty(len(scored))
    for i in range(0, len(scored), _BLOCK):
        cols = scored[i : i + _BLOCK] - 1 - start
        nll[i : i + _BLOCK] = target_nll(head[cols], targets[i : i + _BLOCK])
    return float(nll.sum())


@dataclass
class LanguageModel:
    """Bundle of shape, parameters, and inference settings.

    ``logits`` keeps the K/V rows of completed blocks, up to
    ``_CACHE_BYTES``, keyed by the tokens up to each block's end, and
    computes only the blocks after the longest cached prefix that ends at
    or before the first column asked for; the columns are the bits
    ``forward`` gives. ``span_nll`` keeps the NLL of each scored span in a
    ``BoundedMemo``. Both assume that ``params`` are not changed in place."""

    shape: ModelShape
    params: dict[str, np.ndarray]
    eps: float = 1e-5
    qk_layer_scaling: bool = False
    _blocks: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False, compare=False)
    _scores: BoundedMemo = field(default_factory=lambda: BoundedMemo(_SCORE_BYTES),
                                 init=False, repr=False, compare=False)

    def cache_capacity(self) -> int:
        """Blocks that fit in ``_CACHE_BYTES``: each holds, per layer,
        (N, _BLOCK, Dh) K and V rows, all float64. A model without layers
        has none to keep."""
        s = self.shape
        block_bytes = _BLOCK * 2 * s.layers * s.heads * s.head_dim * 8
        return _CACHE_BYTES // block_bytes if block_bytes else 0

    def logits(self, tokens, start: int = 0) -> np.ndarray:
        """Columns ``start .. T-1`` of ``forward(tokens)``, shape (V, T - start),
        from a forward that computes no head row before ``start``'s block."""
        if not 0 <= start < len(tokens):
            raise ValueError(f"start {start} is outside [0, {len(tokens)})")
        cfg = ForwardConfig(eps=self.eps, qk_layer_scaling=self.qk_layer_scaling)
        blocks = []  # the cached blocks of the prefix, then those forward completes
        while (len(blocks) + 1) * _BLOCK <= start:
            key = tuple(tokens[: (len(blocks) + 1) * _BLOCK])
            if key not in self._blocks:
                break
            self._blocks.move_to_end(key)
            blocks.append(self._blocks[key])
        s0 = len(blocks) * _BLOCK
        cols = forward(self.params, tokens[s0:], self.shape, cfg, blocks, start - s0)
        # Only the first blocks that fit are stored, so a long input never
        # evicts its own prefix: the least recently used entries go first.
        capacity = self.cache_capacity()
        for b in range(s0 // _BLOCK, min(len(blocks), capacity)):
            key = tuple(tokens[: (b + 1) * _BLOCK])
            self._blocks[key] = blocks[b]
            self._blocks.move_to_end(key)  # a recomputed last block is in use too
            if len(self._blocks) > capacity:
                self._blocks.popitem(last=False)
        return cols

    def span_nll(self, tokens, scored) -> float:
        """``span_nll(self, tokens, scored)``, the same float, computed once
        per distinct token sequence and scored positions."""
        key = (np.asarray(tokens, dtype=np.intp).tobytes(),
               np.asarray(scored, dtype=np.intp).tobytes())
        nll = self._scores.get(key)
        return self._scores.put(key, span_nll(self, tokens, scored)) if nll is None else nll
