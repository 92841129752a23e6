"""The row-block GEMM kernels of `finforge.model` against the per-query
reference (`reference_model.py`), and their causal prefix invariance."""

import os
import subprocess
import sys

import numpy as np
import pytest

import finforge
import reference_model as R
from finforge import model as M
from finforge.scaling import ModelShape

SHAPE = ModelShape(2, 2, 8, 4, 32, 16)
B = M._BLOCK
LENGTHS = (1, B - 1, B, B + 1, 2 * B + 3)

CONFIGS = {
    "plain": M.ForwardConfig(),
    "dropout": M.ForwardConfig(p_at=0.2, p_h=0.2, p_f=0.2, training=True, rng_seed=5, step=2),
    "qk_layer_scaling": M.ForwardConfig(qk_layer_scaling=True),
}


def sequence(T, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, SHAPE.vocab, T), rng.integers(0, SHAPE.vocab, T)


@pytest.mark.parametrize("T", LENGTHS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_logits_match_reference(T, name):
    params = M.init_params(SHAPE, 21)
    tokens, _ = sequence(T, T)
    got = M.forward(params, tokens, SHAPE, CONFIGS[name])
    want, _ = R._forward(params, tokens, SHAPE, CONFIGS[name])
    assert got.shape == want.shape == (SHAPE.vocab, T)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("T", LENGTHS)
@pytest.mark.parametrize("name", sorted(CONFIGS) + ["position_weights"])
def test_gradients_match_reference(T, name):
    params = M.init_params(SHAPE, 22)
    tokens, targets = sequence(T, 100 + T)
    cfg = CONFIGS.get(name, CONFIGS["plain"])
    weights = None
    if name == "position_weights":
        weights = np.arange(T) % 3 != 1
        weights[0] = True
    loss, grads = M.backward(params, tokens, targets, SHAPE, cfg, weights=weights)
    want_loss, want = R.backward(params, tokens, targets, SHAPE, cfg, weights=weights)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert list(grads) == list(params)
    for k in params:
        assert grads[k].shape == params[k].shape, k
        # atol covers attn.bk, whose exact gradient is zero
        assert np.allclose(grads[k], want[k], rtol=1e-10, atol=1e-14), k
    for l in range(SHAPE.layers):
        assert not np.any(grads[f"layer{l}.attn.bk"])


PREFIX_SCRIPT = """
import sys
import numpy as np
from finforge import model as M
from finforge.scaling import ModelShape

B = M._BLOCK
mismatches = []
for shape in (ModelShape(2, 2, 8, 4, 32, 16), ModelShape(2, 4, 64, 16, 256, 512)):
    params = M.init_params(shape, 3)
    tokens = np.random.default_rng(4).integers(0, shape.vocab, 3 * B + 1)
    full = M.forward(params, tokens, shape)
    for t in range(1, 3 * B + 2):
        if not np.array_equal(M.forward(params, tokens[:t], shape), full[:, :t]):
            mismatches.append((shape.hidden, t))
print(mismatches)
sys.exit(1 if mismatches else 0)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_prefix_invariance_bit_exact_over_three_blocks(threads):
    # BLAS reads its thread count when numpy loads, hence a fresh process.
    src = os.path.dirname(os.path.dirname(finforge.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PREFIX_SCRIPT], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
