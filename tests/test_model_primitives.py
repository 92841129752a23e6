"""The decoder's LayerNorm, GELU and ALiBi-bias primitives against the
plain forms in `reference_model.py`, bit for bit."""

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
def test_gelu_and_its_gradient_from_the_cached_tanh_match_reference(padded):
    x = rows(4, padded=padded)
    t = M.gelu_tanh(x)
    assert same(M.gelu(x, t), REF.gelu(x))
    assert same(M.gelu(x), REF.gelu(x))
    assert same(M.gelu_grad(x, t), REF.gelu_grad(x))
    assert same(M.gelu_grad(x), REF.gelu_grad(x))


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
