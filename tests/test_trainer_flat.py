"""The flat-buffer optimizer step against the per-group forms in
`reference_trainer.py`: parameters, moments, checkpoints and diagnostics
must be the same bits. Also the gradient hand-over that keeps a step at
four model copies: `backward` hands each group over once, and never writes
it again; and the checkpoint reader that reads each kind's buffer in place
against the one that copies each tensor out of the whole payload."""

import builtins
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference_trainer as REF
from finforge import model as M
from finforge import trainer as R
from finforge.scaling import ModelShape

STEPS = 6


def bench_shape(layers, heads, head_dim, vocab):
    hidden = heads * head_dim
    return ModelShape(layers, heads, hidden, head_dim, 4 * hidden, vocab)


def same(a, b) -> bool:
    """Equal bits, the sign of zero included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def copied(tensors):
    return {k: np.array(v) for k, v in tensors.items()}


def assert_same_state(params, state, ref_params, ref_state):
    for k in ref_params:
        assert same(params[k], ref_params[k]), k
        assert same(state.m[k], ref_state.m[k]), k
        assert same(state.v[k], ref_state.v[k]), k


def run_both(params, grads_at, state_init=None):
    """``STEPS`` clipped AdamW steps through the flat optimizer and the
    reference, from equal copies of ``params``, the flat side's laid out as
    `train` takes them; ``grads_at(step)`` gives a new gradient dict each
    step. Returns both sides' params and states."""
    cfg = R.TrainConfig(max_lr=1e-2, final_lr=1e-3, warmup_steps=2, horizon_steps=20)
    flat_p, ref_p = REF.tiled(params), copied(params)
    flat_s = R.TrainState.fresh(flat_p)
    ref_s = R.TrainState(m={k: np.zeros_like(v) for k, v in ref_p.items()},
                         v={k: np.zeros_like(v) for k, v in ref_p.items()})
    if state_init:
        for s in (flat_s, ref_s):
            state_init(s)
    for step in range(1, STEPS + 1):
        grads = grads_at(step)
        ref_clipped, ref_norm = REF.clip_gradients(copied(grads), cfg.clip_norm)
        clipped, norm = R.clip_gradients(grads, cfg.clip_norm)
        assert norm == ref_norm
        REF.flat_adamw_step(flat_p, clipped, flat_s, R.lr_at(step, cfg), cfg)
        REF.adamw_step(ref_p, ref_clipped, ref_s, R.lr_at(step, cfg), cfg)
    assert flat_s.step == ref_s.step == STEPS
    return flat_p, flat_s, ref_p, ref_s


def random_grads(params, seed):
    def grads_at(step):
        rng = np.random.default_rng([seed, step])
        return {k: rng.normal(0.0, 0.05, size=v.shape) for k, v in params.items()}
    return grads_at


@pytest.mark.parametrize("shape", [bench_shape(2, 2, 8, 512), bench_shape(4, 8, 32, 1024)],
                         ids=["tiny", "wide"])
@pytest.mark.parametrize("order", ["param_shapes", "sorted"])
def test_flat_step_matches_reference_at_the_bench_shapes(shape, order):
    params = M.init_params(shape, 3)
    if order == "sorted":  # the layout's order; run_both lays out either in that order
        params = {k: params[k] for k in sorted(params)}
    assert_same_state(*run_both(params, random_grads(params, 1)))


def test_decayed_range_across_a_slice_boundary():
    params = {"ln.g": np.full(10_000, 1.5), "W1": np.linspace(-1, 1, 21_000).reshape(7_000, 3),
              "ffn.b": np.full(5_000, 0.25)}
    assert 10_000 < R._SLICE < 31_000 < 2 * R._SLICE  # W1 spans slices 0 and 1
    assert_same_state(*run_both(params, random_grads(params, 2)))


def laid_out_in(tensors, names):
    """A copy of ``tensors``, views of one buffer one after another in the
    order of ``names``: not the layout unless ``names`` is sorted."""
    buf, views, off = np.empty(sum(tensors[k].size for k in names)), {}, 0
    for k in names:
        views[k] = buf[off : off + tensors[k].size].reshape(tensors[k].shape)
        views[k][...] = tensors[k]
        off += tensors[k].size
    return {k: views[k] for k in tensors}


def reversed_tiling(tensors):
    """Views of one buffer, but in reverse sorted name order: not the layout."""
    return laid_out_in(tensors, sorted(tensors, reverse=True))


def test_dicts_that_do_not_tile_a_buffer_are_rejected_by_name():
    params = M.init_params(bench_shape(1, 2, 8, 64), 5)
    names = list(params)
    grads_at = random_grads(params, 3)
    # Gradients in another tiling are laid out by flat_adamw_step, so the
    # step is still the reference's.
    assert_same_state(*run_both(params, lambda step: reversed_tiling(grads_at(step))))
    # The step takes no layout but the parameters', and names what breaks it.
    with pytest.raises(ValueError, match=f"^parameter group '{names[0]}' is not at its offset"):
        R._flat("parameter", reversed_tiling(params), params)
    with pytest.raises(ValueError, match=f"^parameter group '{names[1]}' is not at its offset"):
        R._flat("parameter", laid_out_in(params, names), params)  # in init order
    with pytest.raises(ValueError, match=f"^m group '{names[0]}' is not at its offset"):
        R._flat("m", copied(params), params)
    rebound = dict(params, **{names[2]: np.array(params[names[2]])})
    with pytest.raises(ValueError, match=f"^parameter group '{names[2]}' is not at its offset"):
        R._flat("parameter", rebound, params)
    with pytest.raises(ValueError, match=f"^v group '{names[0]}' is not at its offset"):
        R._flat("v", {}, params)
    with pytest.raises(ValueError, match=f"^v group '{names[1]}' is not at its offset"):
        R._flat("v", {k: params[k] for k in names[::2]}, params)
    # the buffer runs on past its last group in the layout
    head = {k: params[k] for k in names if k != max(names)}
    with pytest.raises(ValueError, match=f"^m holds more than the parameters' {len(head)} groups"):
        R._flat("m", head, head)
    with pytest.raises(ValueError, match=f"^m holds more than the parameters' {len(head)} groups"):
        R._flat("m", params, head)
    assert R._flat("parameter", params, params) is params[names[0]].base


def test_signed_zeros_keep_their_sign():
    # In the undecayed group, theta, m and g of -0.0 (element 0) make an
    # update of -0.0, and theta - lr*(-0.0) is +0.0; adding +0.0 to that
    # update, as a 0/1 decay mask can, would leave theta at -0.0.
    params = {"ln.g": np.array([-0.0, 0.0, -0.0, 1.0]), "W": np.array([-0.0, 0.0, 2.0])}

    def grads_at(step):
        return {"ln.g": np.array([-0.0, 0.0, 0.0, -0.0]), "W": np.array([-0.0, -0.0, 0.0])}

    def negative_zero_moments(state):
        for k in state.m:
            state.m[k][...] = -0.0
            state.v[k][...] = -0.0 if k == "W" else 0.0

    flat_p, flat_s, ref_p, ref_s = run_both(params, grads_at, negative_zero_moments)
    assert_same_state(flat_p, flat_s, ref_p, ref_s)
    assert np.signbit(ref_p["ln.g"]).tolist() == [False, False, True, False]


def test_clip_scales_in_place_and_returns_the_same_dict():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    ref, ref_norm = REF.clip_gradients(copied(grads), 1.0)
    clipped, norm = R.clip_gradients(grads, 1.0)
    assert clipped is grads and norm == ref_norm
    assert all(same(grads[k], ref[k]) for k in ref)


def test_mean_gradients_match_the_per_group_accumulation():
    shape = bench_shape(1, 2, 8, 64)
    params = M.init_params(shape, 7)
    rng = np.random.default_rng(8)
    for sep, fcfg in ((True, M.ForwardConfig()), (False, M.ForwardConfig()),
                      (False, M.ForwardConfig(p_at=0.1, p_h=0.1, p_f=0.1, step=2))):
        cfg = R.TrainConfig(seq_len=16, loss_on_separator=sep)
        batch = [[int(t) for t in rng.integers(0, 4, size=17)] for _ in range(3)]
        acc, grads = R._tiled({k: v.shape for k, v in params.items()})
        loss = R._mean_gradients(params, shape, batch, fcfg, cfg, 0, grads, acc)
        ref_loss, ref_grads = REF.batch_gradients(params, shape, batch, fcfg, cfg, 0)
        assert loss == ref_loss
        assert all(same(grads[k], ref_grads[k]) for k in params)


def test_each_sequence_of_a_step_draws_its_own_dropout_masks(monkeypatch):
    # Dropout draws an independent mask per training case, so two identical
    # chunks of one batch score differently.
    shape = bench_shape(1, 2, 8, 64)
    params = M.init_params(shape, 7)
    chunk = [int(t) for t in np.random.default_rng(8).integers(0, 64, size=17)]
    fcfg = M.ForwardConfig(p_at=0.1, p_h=0.1, p_f=0.1, step=1)
    losses, backward = [], M.backward

    def recording(*args, **kwargs):
        losses.append(backward(*args, **kwargs))
        return losses[-1]

    monkeypatch.setattr(M, "backward", recording)
    acc, grads = R._tiled({k: v.shape for k, v in params.items()})
    R._mean_gradients(params, shape, [chunk, chunk], fcfg, R.TrainConfig(seq_len=16), 0, grads, acc)
    assert len(losses) == 2 and losses[0] != losses[1]


@pytest.mark.parametrize("shape", [bench_shape(2, 2, 8, 512), bench_shape(4, 8, 32, 1024)],
                         ids=["tiny", "wide"])
@pytest.mark.parametrize("variant", ["plain", "dropout", "position-weights"])
def test_backward_hands_over_each_group_once_with_the_dict_bits(shape, variant):
    params = M.init_params(shape, 11)
    rng = np.random.default_rng(12)
    tokens = [int(t) for t in rng.integers(0, shape.vocab, size=46)]  # two blocks
    cfg = M.ForwardConfig()
    if variant == "dropout":
        cfg = M.ForwardConfig(p_at=0.1, p_h=0.1, p_f=0.1, rng_seed=13, step=2)
    weights = rng.random(45) if variant == "position-weights" else None
    got, kept = [], {}

    def emit(name, g):
        got.append((name, np.array(g)))  # the bits when handed over
        kept[name] = g

    loss = M.backward(params, tokens[:-1], tokens[1:], shape, cfg, emit=emit, weights=weights)
    logits = M.forward(params, tokens[:-1], shape, cfg)
    assert loss == M._loss_grad(logits.T.copy(), len(tokens) - 1, tokens[1:], weights)
    names = [name for name, _ in got]
    assert len(names) == len(set(names)) and set(names) == set(params)
    assert names[-1] == "Wem"  # final only after the embedding's scatter-add
    # the dict of what was handed over holds those bits when backward returns
    for name, g in got:
        assert same(g, kept[name]), name


def test_a_wide_step_allocates_less_than_one_parameter_copy():
    # With the gradient accumulator allocated, a batch-2 step at the wide
    # bench shape holds one sequence's activations and the gradients not yet
    # handed over; one per-sequence gradient dict alone is a parameter copy.
    shape = bench_shape(4, 8, 32, 1024)
    params = M.init_params(shape, 3)
    acc, grads = R._tiled({k: v.shape for k, v in params.items()})
    rng = np.random.default_rng(4)
    batch = [[int(t) for t in rng.integers(0, shape.vocab, size=34)] for _ in range(2)]
    fcfg = M.ForwardConfig(rng_seed=5, step=1)
    tracemalloc.start()
    try:
        R._mean_gradients(params, shape, batch, fcfg, R.TrainConfig(seq_len=33), 0, grads, acc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < acc.nbytes, (peak, acc.nbytes)


def test_a_wide_step_at_the_bench_length_holds_only_what_backward_reads():
    # At the train-wide bench shape and length (T=128), the activations a
    # step holds above the parameters and the accumulator: each layer's
    # gelu(a) and gelu'(a), Q/K/V, LayerNorm caches and the attention
    # output, with every temporary freed after its last read.
    shape = bench_shape(4, 8, 32, 1024)
    params = M.init_params(shape, 3)
    acc, grads = R._tiled({k: v.shape for k, v in params.items()})
    rng = np.random.default_rng(4)
    batch = [[int(t) for t in rng.integers(0, shape.vocab, size=129)] for _ in range(2)]
    fcfg = M.ForwardConfig(rng_seed=5, step=1)
    tracemalloc.start()
    try:
        R._mean_gradients(params, shape, batch, fcfg, R.TrainConfig(seq_len=128), 0, grads, acc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 << 20, peak / 2**20


@pytest.mark.parametrize("p_at, bound_mib", [(0.0, 44), (0.1, 52)])
def test_one_backward_at_a_long_length_holds_no_attention_probabilities(p_at, bound_mib):
    # At T=1024 (L2 N4 Dh16, V 1024) the backward recomputes each block's
    # probabilities instead of keeping every layer's (N, T, T) of them, and
    # holds the attention-dropout mask as bool: 40.6 and 47.6 MiB, where
    # cached probabilities and a float mask took 73.6 and 136.6 MiB.
    shape = bench_shape(2, 4, 16, 1024)
    params = M.init_params(shape, 3)
    tokens = np.random.default_rng(4).integers(0, shape.vocab, size=1025)
    cfg = M.ForwardConfig(p_at=p_at, rng_seed=5, step=1)
    tracemalloc.start()
    try:
        M.backward(params, tokens[:-1], tokens[1:], shape, cfg, lambda name, g: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib << 20, peak / 2**20


def test_one_backward_with_dropout_at_every_site_holds_bool_masks():
    # At T=1024 (L2 N4 Dh16, V 1024) with dropout 0.1 at all three sites,
    # every layer keeps its hidden and FFN masks as bool (T, D), not float:
    # 47.8 MiB, where float hidden and FFN masks took 49.6 MiB. The ALiBi
    # bias is built first, so the bound does not depend on test order.
    shape = bench_shape(2, 4, 16, 1024)
    params = M.init_params(shape, 3)
    tokens = np.random.default_rng(4).integers(0, shape.vocab, size=1025)
    cfg = M.ForwardConfig(p_at=0.1, p_h=0.1, p_f=0.1, rng_seed=5, step=1)
    M._cached_block_bias(shape.heads, 1024)
    tracemalloc.start()
    try:
        M.backward(params, tokens[:-1], tokens[1:], shape, cfg, lambda name, g: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 49 << 20, peak / 2**20


# L2 N4 Dh16 at the paper's vocabulary, 64.8 MiB of parameters; a 512-token
# chunk trains and scores T=511 positions, one (512, V) float64 head output.
PAPER_VOCAB = bench_shape(2, 4, 16, 2**17)
HEAD_BYTES = 512 * PAPER_VOCAB.vocab * 8


def test_one_backward_at_the_paper_vocab_holds_one_head_output():
    # The head output is scored and turned into the loss gradient in place,
    # so above the parameters and the gradients' targets one backward holds
    # it, dWem (D, V) and the rest of the activations: 580 MiB, where a
    # log-softmax copy, its exp temporary and a padded gradient copy took
    # 1,542 MiB.
    params = M.init_params(PAPER_VOCAB, 3)
    grads = {k: np.empty_like(v) for k, v in params.items()}
    tokens = np.random.default_rng(4).integers(0, PAPER_VOCAB.vocab, size=512)
    M._cached_block_bias(PAPER_VOCAB.heads, 512)
    tracemalloc.start()
    try:
        M.backward(params, tokens[:-1], tokens[1:], PAPER_VOCAB, M.ForwardConfig(),
                   lambda name, g: np.copyto(grads[name], g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= HEAD_BYTES + grads["Wem"].nbytes + (64 << 20), peak / 2**20


def test_one_validation_chunk_at_the_paper_vocab_holds_one_head_output():
    # The chunk's head output is scored in place, one block of exp at a
    # time: 544 MiB, where a log-softmax copy and its exp temporary took
    # 1,534 MiB.
    params = M.init_params(PAPER_VOCAB, 3)
    chunk = np.random.default_rng(4).integers(0, PAPER_VOCAB.vocab, size=512)
    M._cached_block_bias(PAPER_VOCAB.heads, 512)
    tracemalloc.start()
    try:
        R.validation_loss(params, PAPER_VOCAB, [chunk], R.TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= HEAD_BYTES + (64 << 20), peak / 2**20


def reference_mean_gradients(params, shape, batch, fcfg, cfg, eot_id, grads, acc):
    """``_mean_gradients`` through ``batch_gradients``' per-sequence dicts."""
    loss, ref = REF.batch_gradients(params, shape, batch, fcfg, cfg, eot_id)
    for k, g in grads.items():
        g[...] = ref[k]
    return loss


def reference_adamw_step(shape):
    """``REF.adamw_step`` on per-group views of the four buffers that
    ``train`` passes, laid out in sorted name order, the layout of the
    parameters that ``init_params`` and ``load_checkpoint`` return."""

    def groups(buf):
        out, off = {}, 0
        for k, dims in sorted(M.param_shapes(shape).items()):
            out[k] = buf[off : off + int(np.prod(dims))].reshape(dims)
            off += out[k].size
        return out

    def step(flat, state, lr, cfg):
        P, G, Mo, Vo, _ = flat
        views = replace(state, m=groups(Mo), v=groups(Vo))
        REF.adamw_step(groups(P), groups(G), views, lr, cfg)
        state.step = views.step

    return step


def reference_clip_gradients(grads, clip_norm):
    """``REF.clip_gradients``, its new dict written back into ``grads``."""
    clipped, norm = REF.clip_gradients(grads, clip_norm)
    for k, g in clipped.items():
        grads[k][...] = g
    return grads, norm


def tree_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_train_writes_the_same_bytes_with_the_reference_optimizer(tmp_path, monkeypatch):
    shape = bench_shape(2, 2, 8, 64)
    cfg = R.TrainConfig(
        max_lr=1e-2, final_lr=1e-3, warmup_steps=2, horizon_steps=20, seq_len=16,
        batch_warmup_size=2, batch_main_size=3, batch_warmup_steps=3,
        train_loss_interval=1, val_interval=3, checkpoint_interval=2, seed=4,
    )
    rng = np.random.default_rng(9)
    docs = [[int(t) for t in rng.integers(1, 64, size=rng.integers(5, 30))] for _ in range(40)]
    outs = []
    # Each pass swaps one more part of the step for its reference form.
    for side in ("flat", "reference-optimizer", "reference-accumulation"):
        if side == "reference-optimizer":
            monkeypatch.setattr(R, "adamw_step", reference_adamw_step(shape))
            monkeypatch.setattr(R, "clip_gradients", reference_clip_gradients)
        if side == "reference-accumulation":
            monkeypatch.setattr(R, "_mean_gradients", reference_mean_gradients)
        out = tmp_path / side
        params = M.init_params(shape, 3)
        _, ckpt = R.train(params, shape, docs, cfg, STEPS // 2, str(out / "a"), val_docs=docs[:4])
        _, cfg2, params2, state = R.load_checkpoint(ckpt)
        R.train(params2, shape, docs, cfg2, STEPS, str(out / "b"), val_docs=docs[:4], state=state)
        outs.append({part: tree_bytes(out / part) for part in ("a", "b")})
    assert outs[0]["b"].keys() == {
        "checkpoint-00000004.bin", "checkpoint-00000006.bin", "diagnostics.csv"
    }
    assert outs[0] == outs[1] == outs[2]


def test_train_lays_out_the_flat_buffers_once_per_call(tmp_path, monkeypatch):
    real_flat, real_step, laid_out = R._flat, R.adamw_step, []

    def counting_flat(kind, tensors, params):
        laid_out.append(kind)
        return real_flat(kind, tensors, params)

    def marked_step(*args):
        laid_out.append("step")
        return real_step(*args)

    monkeypatch.setattr(R, "_flat", counting_flat)
    monkeypatch.setattr(R, "adamw_step", marked_step)
    shape = bench_shape(1, 2, 8, 64)
    cfg = R.TrainConfig(max_lr=1e-2, final_lr=1e-3, warmup_steps=2, horizon_steps=20,
                        seq_len=16, batch_warmup_size=2, batch_main_size=2)
    rng = np.random.default_rng(9)
    docs = [[int(t) for t in rng.integers(1, 64, size=20)] for _ in range(20)]
    state, _ = R.train(M.init_params(shape, 3), shape, docs, cfg, STEPS, str(tmp_path))
    assert state.step == STEPS
    # once before the first step; then only the final checkpoint finds its buffers
    assert laid_out == ["parameter", "m", "v"] + ["step"] * STEPS + ["param", "m", "v"]


@pytest.mark.parametrize("case", ["untiled", "param_shapes"])
def test_train_rejects_inputs_that_do_not_tile_one_buffer(tmp_path, case):
    # ``train`` takes the layout of init_params, TrainState.fresh and
    # load_checkpoint as it is: anything else is named, and nothing rebound.
    shape = bench_shape(1, 2, 8, 64)
    params = M.init_params(shape, 3)
    names = list(params)
    bad, group = {
        "untiled": (copied(params), names[0]),
        "param_shapes": (laid_out_in(params, names), names[1]),  # tiled in init order
    }[case]
    cfg = R.TrainConfig(max_lr=1e-2, final_lr=1e-3, warmup_steps=2, horizon_steps=20,
                        seq_len=16, batch_warmup_size=2, batch_main_size=2)
    docs = [[int(t) for t in np.random.default_rng(9).integers(1, 64, size=20)]] * 20
    entries = dict(bad)
    with pytest.raises(ValueError, match=f"^parameter group '{group}' is not at its offset"):
        R.train(bad, shape, docs, cfg, STEPS, str(tmp_path))
    assert all(bad[k] is entries[k] for k in bad)
    # moments that do not tile like the parameters are named too
    state = R.TrainState.fresh(params)
    state.m = copied(state.m)
    with pytest.raises(ValueError, match=f"^m group '{names[0]}' is not at its offset"):
        R.train(params, shape, docs, cfg, STEPS, str(tmp_path), state=state)


def saved_checkpoint(path, shape, seed):
    """A checkpoint of ``shape`` with random moments and a training state."""
    params = M.init_params(shape, seed)
    state = R.TrainState.fresh(params)
    rng = np.random.default_rng(seed)
    for moments in (state.m, state.v):
        for t in moments.values():
            t[...] = rng.normal(size=t.shape)
    state.step, state.order, state.stream_pos, state.smooth_num = 9, [2, 0, 1], 1, 0.25
    R.save_checkpoint(str(path), shape, R.TrainConfig(seed=seed), params, state)
    return params


@pytest.mark.parametrize("moments", [True, False])
def test_checkpoint_reads_in_place_the_reference_bits(tmp_path, moments):
    path = tmp_path / "c.bin"
    saved_checkpoint(path, bench_shape(2, 2, 8, 64), 5)
    shape, cfg, params, state = R.load_checkpoint(str(path), moments=moments)
    ref_shape, ref_cfg, ref_params, ref_state = REF.load_checkpoint(str(path))
    assert (shape, cfg) == (ref_shape, ref_cfg)
    # the order of init_params, not the sorted order of the payload
    assert list(params) == list(M.param_shapes(shape)) != list(ref_params)
    for k in ref_params:
        assert same(params[k], ref_params[k]), k
    assert replace(state, m={}, v={}) == replace(ref_state, m={}, v={})
    if moments:
        assert list(state.m) == list(state.v) == list(params)
        assert_same_state(params, state, ref_params, ref_state)
        R.save_checkpoint(str(tmp_path / "again.bin"), shape, cfg, params, state)
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
    else:
        assert (state.m, state.v) == ({}, {})
    # each kind is one native float64 buffer, its tensors views of it
    for tensors in (params, state.m, state.v) if moments else (params,):
        base = next(iter(tensors.values())).base
        assert base.dtype == np.float64 and base.size == sum(t.size for t in tensors.values())
        assert all(t.base is base for t in tensors.values())


def test_checkpoint_payload_is_the_param_m_and_v_buffers_in_turn(tmp_path):
    # the file holds each kind's buffer as it lies in memory
    shape = bench_shape(2, 2, 8, 64)
    params = M.init_params(shape, 5)
    state = R.TrainState.fresh(params)
    rng = np.random.default_rng(5)
    for moments in (state.m, state.v):
        for t in moments.values():
            t[...] = rng.normal(size=t.shape)
    path = tmp_path / "c.bin"
    R.save_checkpoint(str(path), shape, R.TrainConfig(), params, state)
    raw = path.read_bytes()
    payload = raw[16 + int.from_bytes(raw[8:16], "little") :]
    bufs = [next(iter(kind.values())).base for kind in (params, state.m, state.v)]
    assert payload == b"".join(buf.astype("<f8").tobytes() for buf in bufs)


class _CountedReads:
    """A binary file that records the byte count of each ``readinto``."""

    def __init__(self, f, sizes):
        self._f, self.sizes = f, sizes

    def readinto(self, b):
        self.sizes.append(memoryview(b).nbytes)
        return self._f.readinto(b)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.mark.parametrize("moments, reads", [(False, 1), (True, 3)])
def test_checkpoint_load_reads_each_kind_with_one_call(tmp_path, monkeypatch, moments, reads):
    path = tmp_path / "c.bin"
    params = saved_checkpoint(path, bench_shape(2, 2, 8, 64), 5)
    sizes = []
    monkeypatch.setattr(
        R, "open", lambda p, mode: _CountedReads(builtins.open(p, mode), sizes), raising=False
    )
    R.load_checkpoint(str(path), moments=moments)
    assert sizes == [sum(t.nbytes for t in params.values())] * reads


def test_checkpoint_on_a_big_endian_host_swaps_the_bytes(tmp_path, monkeypatch):
    path = tmp_path / "c.bin"
    saved_checkpoint(path, bench_shape(1, 2, 4, 32), 6)
    ref = REF.load_checkpoint(str(path))[2]
    monkeypatch.setattr(R.sys, "byteorder", "big")
    params = R.load_checkpoint(str(path), moments=False)[2]
    for k in ref:
        assert same(params[k], ref[k].byteswap()), k


@pytest.mark.parametrize("moments, copies", [(False, 1.1), (True, 3.1)])
def test_checkpoint_load_peaks_at_the_copies_it_returns(tmp_path, moments, copies):
    # One parameter copy for eval, three (parameters, m and v) for a resume:
    # the payload is never held whole, nor a second time.
    path = tmp_path / "c.bin"
    params = saved_checkpoint(path, bench_shape(2, 4, 32, 1024), 7)
    param_bytes = sum(t.nbytes for t in params.values())
    assert param_bytes >= 4 << 20
    del params
    tracemalloc.start()
    try:
        loaded = R.load_checkpoint(str(path), moments=moments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < copies * param_bytes, peak / param_bytes
    assert loaded[2].keys() == M.param_shapes(bench_shape(2, 4, 32, 1024)).keys()
