"""The decoder's LayerNorm, GELU, loss and ALiBi-bias primitives against
the plain forms in `reference_model.py`, bit for bit."""

import numpy as np
import pytest

import reference_model as REF
from finforge import model as M


def same(a, b) -> bool:
    """Equal bits, the sign of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def rows(seed, n=64, d=24, padded=0):
    """Random (n, d) rows whose last ``padded`` rows are zero, as padding
    rows are in a block."""
    x = np.random.default_rng(seed).normal(0.0, 3.0, size=(n, d))
    x[n - padded :] = 0.0
    return x


@pytest.mark.parametrize("padded", [0, 17], ids=["random", "zero-rows"])
def test_layer_norm_forward_and_backward_match_reference(padded):
    x = rows(1, padded=padded)
    rng = np.random.default_rng(2)
    gain, bias = rng.normal(size=x.shape[1]), rng.normal(size=x.shape[1])
    y, cache = M._ln_fwd(x, gain, bias, 1e-5)
    y_ref, cache_ref = REF._ln_fwd(x, gain, bias, 1e-5)
    assert same(y, y_ref)
    assert all(same(a, b) for a, b in zip(cache, cache_ref))
    dy = rows(3, padded=padded)
    for got, want in zip(M._ln_bwd(dy, cache), REF._ln_bwd(dy, cache_ref)):
        assert same(got, want)


@pytest.mark.parametrize("padded", [0, 17], ids=["random", "zero-rows"])
def test_gelu_and_its_gradient_match_reference(padded):
    x = rows(4, padded=padded)
    kept = x.copy()
    assert same(M.gelu(x), REF.gelu(x))
    assert same(M.gelu_grad(x), REF.gelu_grad(x))
    assert same(x, kept)
    assert same(M.gelu(x[0, 0]), REF.gelu(x[0, 0]))  # a scalar
    assert same(M.gelu_grad(x[0, 0]), REF.gelu_grad(x[0, 0]))


# Signed zeros, infinities, a nan, values whose square overflows, and
# subnormals down to the smallest, 5e-324.
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, -5e-324, 1e-310, -2e-308]


@pytest.mark.parametrize(
    "n", [1, 20, 3 * M._BLOCK + 5], ids=["one-row", "partial-block", "several-blocks"]
)
def test_blocked_in_place_gelu_matches_reference(n):
    # The forward's form: GELU over the pre-activation, with gelu'(a) into
    # the cache when training and without it for inference.
    x = rows(5, n=n)
    x[0, : len(SPECIAL)] = SPECIAL
    x[-1, -len(SPECIAL) :] = SPECIAL  # in the last, partial block
    with np.errstate(all="ignore"):  # -inf * 0 and the overflows, in both forms
        want, want_grad = REF.gelu(x), REF.gelu_grad(x)
        a, gg = x.copy(), np.full_like(x, 7.0)
        got, got_grad = M._gelu_rows(a, gg)
        inference, none = M._gelu_rows(x.copy())
    assert got is a and got_grad is gg and none is None
    assert same(a, want) and same(gg, want_grad)
    assert same(inference, want)


@pytest.mark.parametrize("T", [1, 31, 32, 33, 130])
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_loss_and_its_gradient_in_place_match_reference(T, weighted):
    # The padded (Tp, V) head output, turned into the loss gradient in
    # place, against the reference's (T, V) gradient zero-padded: every
    # byte, the padded rows' exact zeros included.
    rng = np.random.default_rng(T)
    V, Tp = 50, -(-T // M._BLOCK) * M._BLOCK
    head = rng.normal(0.0, 4.0, size=(Tp, V))
    targets = rng.integers(0, V, size=T)
    weights = rng.random(T) if weighted else None
    want_loss, want = REF._loss_grad_logits(head[:T].T, targets, weights)
    assert M._loss_grad(head, T, targets, weights) == want_loss
    assert same(head, REF._padded(want, (Tp, V)))


@pytest.mark.parametrize("n", [1, 31, 32, 33, 130])
def test_target_nll_on_rows_matches_reference(n):
    # C-ordered rows, overwritten one block at a time by their log-softmax,
    # against the reference's (V, T) form of the same rows
    rng = np.random.default_rng(n)
    logits = rng.normal(0.0, 4.0, size=(n, 50))
    targets = rng.integers(0, 50, size=n)
    want_logp, want_nll = REF.target_nll(logits.T, targets)
    assert same(M.target_nll(logits, targets), want_nll)
    assert same(logits, want_logp)


@pytest.mark.parametrize("layout", ["forward", "contiguous", "columns"])
def test_cross_entropy_loss_leaves_its_logits_as_they_are(layout):
    rng = np.random.default_rng(6)
    V, T = 50, 37
    # logits (V, T) as forward returns them (the transpose of a (T, V)
    # array), as a (V, T) array, and as a column selection
    logits = {
        "forward": lambda: rng.normal(0.0, 4.0, size=(T, V)).T,
        "contiguous": lambda: rng.normal(0.0, 4.0, size=(V, T)),
        "columns": lambda: rng.normal(0.0, 4.0, size=(V, 2 * T))[:, rng.permutation(2 * T)[:T]],
    }[layout]()
    targets = rng.integers(0, V, size=T)
    kept = logits.copy()
    want = REF.target_nll(np.ascontiguousarray(logits.T).T, targets)[1]
    assert M.cross_entropy_loss(logits, targets) == float(np.mean(want))
    assert same(logits, kept)


@pytest.mark.parametrize("heads", [2, 8])
def test_cached_block_bias_equals_a_fresh_one(heads, monkeypatch):
    monkeypatch.setattr(M, "_BIASES", {})
    slopes = M.alibi_slopes(heads)
    lengths = range(M._BLOCK, 2048 + 1, M._BLOCK)
    # growing lengths rebuild the kept array; shorter ones are slices of it
    for Tp in [*lengths, *reversed(lengths)]:
        bias = M._cached_block_bias(heads, Tp)
        assert same(bias, M._block_bias(slopes, Tp)), Tp
        assert not bias.flags.writeable
    assert M._BIASES[heads].shape == (heads, M._BLOCK, 2048)
