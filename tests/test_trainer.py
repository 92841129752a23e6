import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from finforge import model as M
from finforge import trainer as TR
from finforge.scaling import ModelShape
from reference_trainer import flat_adamw_step, tiled

SHAPE = ModelShape(1, 2, 8, 4, 32, 16)


def tiny_cfg(**kw):
    base = dict(
        max_lr=1e-2, final_lr=1e-3, warmup_steps=4, horizon_steps=100,
        seq_len=16, batch_warmup_size=2, batch_main_size=4, batch_warmup_steps=3,
        train_loss_interval=1, val_interval=5, checkpoint_interval=5, seed=11,
    )
    base.update(kw)
    return TR.TrainConfig(**base)


def synth_docs(n_docs=40, seed=0, lo=5, hi=30):
    rng = np.random.default_rng(seed)
    return [
        [int(t) for t in rng.integers(1, SHAPE.vocab, size=rng.integers(lo, hi))]
        for _ in range(n_docs)
    ]


def test_config_intervals_hold_their_closed_ends_and_refuse_the_rest():
    # At a closed end, inf where clipping is off, any int for seed, and an
    # int standing for a float: all accepted.
    TR.TrainConfig(smooth_alpha=1.0, clip_norm=math.inf, beta1=0, warmup_steps=0, seed=-3)
    for key, value, error in [
        ("smooth_alpha", 1.0000001, "must be in [0, 1], got 1.0000001"),
        ("beta1", 1.0, "must be in [0, 1), got 1.0"),
        ("max_lr", math.inf, "must be in (0, inf), got inf"),
        ("seq_len", 16.0, "must be of type int, got 16.0"),
        ("warmup_steps", True, "must be of type int, got True"),
        ("qk_layer_scaling", 1, "must be of type bool, got 1"),
    ]:
        with pytest.raises(ValueError) as exc:
            TR.TrainConfig(**{key: value})
        assert str(exc.value) == f"{key} {error}"


# ---------------------------------------------------------------------------
# Packing and shuffling


def test_pack_documents_counting_oracle():
    docs = [[1, 2, 3], [4, 5], [6]]
    chunks = TR.pack_documents(docs, seq_len=4, eot_id=0)
    # stream: 1 2 3 0 4 5 0 6 0  -> 9 tokens -> 2 chunks, 1 token dropped
    assert chunks == [[1, 2, 3, 0], [4, 5, 0, 6]]
    total = sum(len(d) + 1 for d in docs)
    assert len(chunks) == total // 4
    assert all(len(c) == 4 for c in chunks)


def test_pack_documents_separator_after_every_doc():
    chunks = TR.pack_documents([[7], [8]], seq_len=2, eot_id=0)
    assert chunks == [[7, 0], [8, 0]]


def test_pack_documents_drops_final_partial():
    assert TR.pack_documents([[1, 2]], seq_len=4, eot_id=0) == []
    # a 1-token sequence holds no target: the run's config rejects it
    with pytest.raises(ValueError, match=r"seq_len must be in \[2, inf\), got 1"):
        tiny_cfg(seq_len=1)


def test_fisher_yates_reference_oracle():
    # independent replication of the documented shuffle
    def oracle(n, seed):
        rng = np.random.default_rng(seed)
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(rng.integers(0, i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    for n, seed in [(1, 0), (5, 1), (17, 42), (100, 7)]:
        got = TR._fisher_yates(n, seed)
        assert got == oracle(n, seed)
        assert sorted(got) == list(range(n))


def shard_level_shuffle(docs, seed, shard_count):
    """A permutation of contiguous shards that keeps each shard's order."""
    bounds = np.array_split(np.arange(len(docs)), shard_count)
    return [docs[i] for s in TR._fisher_yates(len(bounds), seed) for i in bounds[s]]


def test_shuffle_stream_modes():
    docs = list(range(12))
    full = TR.shuffle_stream(docs, seed=3)
    assert sorted(full) == docs and full != docs
    assert full == TR.shuffle_stream(docs, seed=3)
    sharded = shard_level_shuffle(docs, seed=3, shard_count=3)
    # shards of 4 stay contiguous and internally ordered
    assert sorted(sharded) == docs
    shards = [sharded[i : i + 4] for i in range(0, 12, 4)]
    assert all(s == sorted(s) for s in shards)
    assert {tuple(s) for s in shards} == {(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)}
    with pytest.raises(TypeError):  # the only shuffle is the full one
        TR.shuffle_stream(docs, seed=0, mode="bogus")


def test_derive_seed_is_stable_and_label_sensitive():
    assert TR.derive_seed(1, "a") == TR.derive_seed(1, "a")
    assert TR.derive_seed(1, "a") != TR.derive_seed(1, "b")
    assert TR.derive_seed(1, "a") != TR.derive_seed(2, "a")


# ---------------------------------------------------------------------------
# Schedules


def test_lr_schedule_exact_values():
    cfg = TR.TrainConfig()
    assert TR.lr_at(0, cfg) == 0.0
    assert TR.lr_at(900, cfg) == pytest.approx(3e-5, rel=1e-12)
    assert TR.lr_at(1800, cfg) == pytest.approx(6e-5, rel=1e-12)
    mid = (1800 + 139_200) // 2
    assert TR.lr_at(mid, cfg) == pytest.approx(
        6e-6 + 0.5 * (6e-5 - 6e-6) * (1 + math.cos(math.pi * (mid - 1800) / (139_200 - 1800))),
        rel=1e-12,
    )
    assert TR.lr_at(139_200, cfg) == pytest.approx(6e-6, rel=1e-12)
    assert TR.lr_at(500_000, cfg) == pytest.approx(6e-6, rel=1e-12)
    # warmup_steps = 0: no warmup, max_lr at step 0 and the cosine after it
    flat = TR.TrainConfig(warmup_steps=0, horizon_steps=100)
    assert TR.lr_at(0, flat) == flat.max_lr
    assert TR.lr_at(1, flat) == flat.final_lr + 0.5 * (flat.max_lr - flat.final_lr) * (
        1.0 + math.cos(math.pi * (1 / 100))
    )


def test_lr_schedule_continuous_at_joins():
    cfg = tiny_cfg()
    w, hz = cfg.warmup_steps, cfg.horizon_steps
    # cosine at frac=0 equals max_lr; at frac=1 equals final_lr
    cos_at = lambda s: cfg.final_lr + 0.5 * (cfg.max_lr - cfg.final_lr) * (
        1 + math.cos(math.pi * (s - w) / (hz - w))
    )
    assert abs(TR.lr_at(w, cfg) - cos_at(w)) < 1e-12
    assert abs(cos_at(hz) - TR.lr_at(hz, cfg)) < 1e-12
    assert all(TR.lr_at(s + 1, cfg) <= TR.lr_at(s, cfg) + 1e-15 for s in range(w, hz + 5))


def test_batch_size_schedule():
    cfg = TR.TrainConfig()
    assert TR.batch_size_at(1, cfg) == 1024
    assert TR.batch_size_at(7200, cfg) == 1024
    assert TR.batch_size_at(7201, cfg) == 2048
    with pytest.raises(ValueError):
        TR.batch_size_at(0, cfg)


def horizon_from_tokens(total_tokens, cfg):
    """Cosine horizon: planned tokens over the post-warmup tokens per step."""
    return math.ceil(total_tokens / (cfg.batch_main_size * cfg.seq_len))


def test_horizon_from_tokens():
    cfg = TR.TrainConfig()
    assert horizon_from_tokens(569e9, cfg) == math.ceil(569e9 / (2048 * 2048))


# ---------------------------------------------------------------------------
# Clipping


def test_clip_norm_oracle():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped, norm = TR.clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0, rel=1e-15)
    assert clipped["a"][0] == pytest.approx(0.6, rel=1e-12)
    assert clipped["b"][0] == pytest.approx(0.8, rel=1e-12)
    assert TR.grad_global_norm(clipped) == pytest.approx(1.0, rel=1e-12)


def test_clip_noop_below_threshold_and_idempotent():
    grads = {"a": np.array([0.1, 0.2])}
    clipped, norm = TR.clip_gradients(grads, 0.3)
    assert clipped["a"] is grads["a"]  # unchanged object: no-op
    big = {"a": np.array([10.0, 10.0])}
    once, _ = TR.clip_gradients(big, 0.3)
    twice, n2 = TR.clip_gradients(once, 0.3)
    assert n2 == pytest.approx(0.3, rel=1e-12)
    np.testing.assert_allclose(twice["a"], once["a"], rtol=1e-15)


def test_clip_raises_on_nonfinite():
    with pytest.raises(M.NonFiniteError):
        TR.clip_gradients({"a": np.array([np.nan])}, 0.3)


def test_clip_names_the_first_nonfinite_group_in_order():
    grads = {"b": np.array([np.inf]), "a": np.array([1.0, np.nan]), "c": np.array([1.0])}
    with pytest.raises(M.NonFiniteError, match="non-finite gradient in b$"):
        TR.clip_gradients(grads, 0.3)
    grads = {"c": np.array([1.0]), "a": np.array([1.0, np.nan]), "b": np.array([np.inf])}
    with pytest.raises(M.NonFiniteError, match="non-finite gradient in a$"):
        TR.clip_gradients(grads, 0.3)


@pytest.mark.parametrize("grads", [
    {"a": np.array([1e200]), "b": np.array([1.0])},  # one group's square overflows
    {"a": np.array([1e154]), "b": np.array([1e154])},  # only the total overflows
], ids=["in-one-group", "in-the-total"])
def test_clip_names_a_squared_norm_overflow(grads):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(M.NonFiniteError, match="every group is finite"):
            TR.clip_gradients(grads, 0.3)


# ---------------------------------------------------------------------------
# AdamW


def test_decay_set_membership():
    assert TR.decayed("Wem")
    assert TR.decayed("layer0.attn.Wq")
    assert TR.decayed("layer0.attn.U")
    assert TR.decayed("layer0.ffn.W")
    for name in ("ln_em.g", "ln_em.b", "layer0.ln_in.g", "layer0.attn.bq",
                 "layer0.attn.c", "layer0.ffn.b", "ln_f.g", "ln_f.b"):
        assert not TR.decayed(name)


def test_adamw_single_scalar_hand_computed():
    cfg = TR.TrainConfig(seed=0)
    params = tiled({"Wx": np.array([1.0])})
    grads = {"Wx": np.array([0.5])}
    state = TR.TrainState.fresh(params)
    lr = 1e-3
    flat_adamw_step(params, grads, state, lr, cfg)
    m = 0.1 * 0.5
    v = 0.05 * 0.25
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.95)
    expected = 1.0 - lr * (mhat / (math.sqrt(vhat) + 1e-8) + 0.1 * 1.0)
    assert params["Wx"][0] == pytest.approx(expected, rel=1e-14)
    assert state.step == 1


def test_adamw_zero_gradient_only_decays_weights():
    cfg = TR.TrainConfig()
    params = tiled({"Wx": np.array([2.0]), "ln.g": np.array([2.0])})
    grads = {"Wx": np.array([0.0]), "ln.g": np.array([0.0])}
    state = TR.TrainState.fresh(params)
    flat_adamw_step(params, grads, state, 1e-2, cfg)
    # decayed parameter shrinks by exactly lr * wd * theta; excluded is frozen
    assert params["Wx"][0] == pytest.approx(2.0 * (1 - 1e-2 * 0.1), rel=1e-15)
    assert params["ln.g"][0] == 2.0


def test_adamw_decoupled_decay_independent_of_gradient_scale():
    # decay term must not pass through the adaptive normalization
    cfg = TR.TrainConfig()
    out = []
    for gscale in (1.0, 100.0):
        params = tiled({"Wx": np.array([1.0])})
        state = TR.TrainState.fresh(params)
        flat_adamw_step(params, {"Wx": np.array([gscale])}, state, 1e-3, cfg)
        out.append(params["Wx"][0])
    # with bias correction the adaptive part is ~sign(g): identical for both
    assert out[0] == pytest.approx(out[1], rel=1e-6)


def test_adamw_bit_identical_across_runs():
    cfg = tiny_cfg()
    results = []
    for _ in range(2):
        params = M.init_params(SHAPE, 3)
        state = TR.TrainState.fresh(params)
        rng = np.random.default_rng(1)
        for step in range(1, 6):
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            grads, _ = TR.clip_gradients(grads, cfg.clip_norm)
            flat_adamw_step(params, grads, state, TR.lr_at(step, cfg), cfg)
        results.append({k: v.copy() for k, v in params.items()})
    for k in results[0]:
        assert np.array_equal(results[0][k], results[1][k])


# ---------------------------------------------------------------------------
# Smoothed loss


def smoothed_loss(series, alpha=0.001):
    """The last value of ``TrainState.smooth_update`` over ``series``."""
    if not series:
        raise ValueError("series is empty")
    state = TR.TrainState()
    for x in series:
        smooth = state.smooth_update(x, alpha)
    return smooth


def test_smoothed_loss_quadratic_oracle():
    rng = np.random.default_rng(5)
    series = list(rng.normal(5.0, 1.0, size=200))
    alpha = 0.001
    t = len(series)
    num = math.fsum(x * (1 - alpha) ** (t - 1 - i) for i, x in enumerate(series))
    den = math.fsum((1 - alpha) ** (t - 1 - i) for i in range(t))
    assert smoothed_loss(series, alpha) == pytest.approx(num / den, abs=1e-12)


def test_smoothed_loss_incremental_equals_batch():
    series = [3.0, 1.0, 4.0, 1.0, 5.0]
    state = TR.TrainState()
    last = None
    for i, x in enumerate(series):
        last = state.smooth_update(x, 0.1)
        assert last == pytest.approx(smoothed_loss(series[: i + 1], 0.1), abs=1e-12)
    assert last is not None


def test_smoothed_loss_constant_series_and_empty():
    assert smoothed_loss([7.0] * 50, 0.001) == pytest.approx(7.0, rel=1e-12)
    with pytest.raises(ValueError):
        smoothed_loss([], 0.001)


def test_component_weight_norms():
    norms = TR.component_weight_norms({"a": np.full((2, 2), 3.0)})
    assert norms["a"] == pytest.approx(3.0, rel=1e-15)  # L2 / sqrt(count)


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    params = M.init_params(SHAPE, 1)
    state = TR.TrainState.fresh(params)
    state.step = 17
    state.order = [3, 1, 2, 0]
    state.stream_pos = 2
    state.smooth_num = 1.5
    state.smooth_den = 0.7
    cfg = tiny_cfg()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    TR.save_checkpoint(str(p1), SHAPE, cfg, params, state)
    shape2, cfg2, params2, state2 = TR.load_checkpoint(str(p1))
    TR.save_checkpoint(str(p2), shape2, cfg2, params2, state2)
    assert p1.read_bytes() == p2.read_bytes()
    assert shape2 == SHAPE and cfg2 == cfg
    assert state2.step == 17 and state2.order == [3, 1, 2, 0] and state2.stream_pos == 2
    for k in params:
        assert np.array_equal(params[k], params2[k])
        assert np.array_equal(state.m[k], state2.m[k])


def test_checkpoint_magic_and_version(tmp_path):
    p = tmp_path / "c.bin"
    params = M.init_params(SHAPE, 0)
    TR.save_checkpoint(str(p), SHAPE, tiny_cfg(), params, TR.TrainState.fresh(params))
    raw = p.read_bytes()
    assert raw[:4] == b"BGPT"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError):
        TR.load_checkpoint(str(bad))


def _saved(path, params=None):
    """The bytes of a checkpoint of ``SHAPE`` with fresh moments, saved to ``path``."""
    params = M.init_params(SHAPE, 0) if params is None else params
    TR.save_checkpoint(str(path), SHAPE, tiny_cfg(), params, TR.TrainState.fresh(params))
    return path.read_bytes()


@pytest.mark.parametrize("version", [0, 3, 2**32 - 1])
def test_checkpoint_versions_other_than_1_and_2_are_refused(tmp_path, version):
    path = tmp_path / "c.bin"
    raw = _saved(path)
    path.write_bytes(raw[:4] + version.to_bytes(4, "little") + raw[8:])
    with pytest.raises(ValueError) as exc:
        TR.load_checkpoint(str(path))
    assert str(exc.value) == f"{path}: unsupported checkpoint version {version}"


@pytest.mark.parametrize("size", [4, 8, 15])
def test_checkpoint_cut_inside_its_version_and_header_length_is_refused(tmp_path, size):
    path = tmp_path / "c.bin"
    path.write_bytes(_saved(path)[:size])
    with pytest.raises(ValueError) as exc:
        TR.load_checkpoint(str(path))
    assert str(exc.value) == f"{path}: truncated checkpoint header"


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p[:-8],
        lambda p: p + bytes(64),
        lambda p: p[: len(p) // 3],  # the param buffer alone
        lambda p: p[:-1],
        lambda p: p + bytes(1),
        lambda p: p[: 2 * len(p) // 3],  # param and m, no v
        lambda p: p + p[: len(p) // 3],  # a fourth buffer
        lambda p: b"",
    ],
    ids=["payload-short", "trailing-bytes", "params-only", "one-byte-short", "one-byte-over",
         "param-and-m", "four-buffers", "empty"],
)
def test_checkpoint_payload_must_be_param_m_and_v(tmp_path, edit):
    # The payload is param, m and v at the header's shape; a payload of any
    # other length is named with both byte counts, whatever the load reads.
    path = tmp_path / "c.bin"
    params = M.init_params(SHAPE, 0)
    raw = _saved(path, params)
    start = 16 + int.from_bytes(raw[8:16], "little")
    payload = edit(raw[start:])
    path.write_bytes(raw[:start] + payload)
    want = 3 * 8 * sum(t.size for t in params.values())
    for moments in (True, False):
        with pytest.raises(ValueError) as exc:
            TR.load_checkpoint(str(path), moments=moments)
        assert str(exc.value) == (f"{path}: the payload is {len(payload)} bytes, not the {want} "
                                  "bytes of param, m and v at the header's shape")


def _as_version_1(raw, params, kinds=("param", "m", "v")):
    """The version 1 file of the version 2 checkpoint ``raw`` of ``params``:
    its header plus the manifest the version 1 writer gave ``kinds``, over
    the payload of those kinds."""
    hlen = int.from_bytes(raw[8:16], "little")
    header, offset = json.loads(raw[16 : 16 + hlen]), 0
    header["manifest"] = []
    for kind in kinds:
        for name, t in sorted(params.items()):
            header["manifest"].append(
                {"name": f"{kind}:{name}", "dtype": "<f8", "shape": list(t.shape), "offset": offset}
            )
            offset += t.nbytes
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (b"BGPT" + (1).to_bytes(4, "little") + len(blob).to_bytes(8, "little") + blob
            + raw[16 + hlen :][:offset])


def test_a_version_1_checkpoint_loads_to_the_same_tensors_and_state(tmp_path):
    # A version 1 file is the version 2 header plus a manifest, over the same
    # payload; its manifest is not read, and it saves back to the v2 bytes.
    params = M.init_params(SHAPE, 2)
    state = TR.TrainState.fresh(params)
    rng = np.random.default_rng(2)
    for t in (*state.m.values(), *state.v.values()):
        t[...] = rng.normal(size=t.shape)
    state.step, state.order, state.stream_pos, state.smooth_num = 5, [1, 0], 1, 0.5
    v2, v1 = tmp_path / "v2.bin", tmp_path / "v1.bin"
    TR.save_checkpoint(str(v2), SHAPE, tiny_cfg(), params, state)
    raw = v2.read_bytes()
    v1.write_bytes(_as_version_1(raw, params))
    hlen = int.from_bytes(raw[8:16], "little")
    assert raw[4:8] == (2).to_bytes(4, "little") and v1.read_bytes().endswith(raw[16 + hlen :])
    old, new = TR.load_checkpoint(str(v1)), TR.load_checkpoint(str(v2))
    assert old[:2] == new[:2] and old[3].order == [1, 0]
    for got, want in zip((old[2], old[3].m, old[3].v), (new[2], new[3].m, new[3].v)):
        assert list(got) == list(want)
        assert all(np.array_equal(got[k], want[k]) for k in want)
    assert replace(old[3], m={}, v={}) == replace(new[3], m={}, v={})
    TR.save_checkpoint(str(tmp_path / "again.bin"), *old)
    assert (tmp_path / "again.bin").read_bytes() == raw


def test_a_version_1_params_only_file_is_refused_naming_both_byte_counts(tmp_path):
    # The version 1 writer saved a state without moments as the param
    # entries alone; such a file no longer loads, with or without moments.
    params = M.init_params(SHAPE, 0)
    path = tmp_path / "v1.bin"
    path.write_bytes(_as_version_1(_saved(tmp_path / "v2.bin", params), params, ["param"]))
    n = 8 * sum(t.size for t in params.values())
    for moments in (True, False):
        with pytest.raises(ValueError) as exc:
            TR.load_checkpoint(str(path), moments=moments)
        assert str(exc.value) == (f"{path}: the payload is {n} bytes, not the {3 * n} "
                                  "bytes of param, m and v at the header's shape")


@pytest.mark.parametrize(
    "moments, kind, group",
    [
        (lambda s: ({}, {}), "m", 0),  # TrainState(): no moments at all
        (lambda s: (s.m, {}), "v", 0),
        (lambda s: (s.m, {k: s.v[k] for k in list(s.v)[:-1]}), "v", -1),  # v short of a group
    ],
    ids=["no-moments", "no-v", "v-without-its-last-group"],
)
def test_save_checkpoint_needs_both_moments_of_every_group(tmp_path, moments, kind, group):
    # A checkpoint always holds param, m and v; a state without them is
    # refused before anything is written.
    params = M.init_params(SHAPE, 0)
    fresh = TR.TrainState.fresh(params)
    m, v = moments(fresh)
    path = tmp_path / "c.bin"
    with pytest.raises(ValueError) as exc:
        TR.save_checkpoint(str(path), SHAPE, tiny_cfg(), params, replace(fresh, m=m, v=v))
    name = list(params)[group]
    assert str(exc.value).startswith(f"{kind} group {name!r} is not at its offset"), exc.value
    assert not path.exists() and list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# The loop


def run_training(tmp_path, steps, cfg=None, docs=None, seed=3, subdir="run"):
    cfg = cfg or tiny_cfg()
    docs = docs if docs is not None else synth_docs()
    params = M.init_params(SHAPE, seed)
    out = tmp_path / subdir
    state, ckpt = TR.train(params, SHAPE, docs, cfg, steps, str(out))
    return params, state, ckpt, out


def test_train_runs_and_checkpoints(tmp_path):
    params, state, ckpt, out = run_training(tmp_path, steps=6)
    assert state.step == 6
    assert (out / "checkpoint-00000005.bin").exists()
    assert ckpt.endswith("checkpoint-00000006.bin")
    diag = (out / "diagnostics.csv").read_text().splitlines()
    kinds = {line.split(",")[1] for line in diag}
    assert {"grad_norm", "weight_norm", "train_loss", "checkpoint"} <= kinds


def test_train_initial_loss_near_log_vocab(tmp_path):
    cfg = tiny_cfg()
    params = M.init_params(SHAPE, 3)
    TR.train(params, SHAPE, synth_docs(), cfg, 1, str(tmp_path / "r"))
    rows = (tmp_path / "r" / "diagnostics.csv").read_text().splitlines()
    losses = [float(r.rsplit(",", 1)[1]) for r in rows if r.startswith("1,train_loss,raw,")]
    assert len(losses) == 1 and abs(losses[0] - math.log(SHAPE.vocab)) < 0.35


def test_train_diagnostics_rows_hold_one_step(tmp_path, monkeypatch):
    seen = []
    real_flush = TR.DiagnosticsLog.flush

    def flush(diag):
        real_flush(diag)
        last = (tmp_path / "r" / "diagnostics.csv").read_text().splitlines()[-1]
        seen.append(last.split(",")[0])

    monkeypatch.setattr(TR.DiagnosticsLog, "flush", flush)
    cfg = tiny_cfg()
    TR.train(M.init_params(SHAPE, 3), SHAPE, synth_docs(), cfg, 6, str(tmp_path / "r"))
    # each step is on disk when it ends
    assert seen == [str(step) for step in range(1, 7)]


def test_train_loss_decreases(tmp_path):
    cfg = tiny_cfg(max_lr=3e-3, final_lr=3e-4, warmup_steps=5, horizon_steps=200)
    docs = synth_docs(60, seed=9)
    params = M.init_params(SHAPE, 3)
    out = tmp_path / "long"
    state, _ = TR.train(params, SHAPE, docs, cfg, 80, str(out))
    smoothed = [
        (int(l.split(",")[0]), float(l.split(",")[3]))
        for l in (out / "diagnostics.csv").read_text().splitlines()
        if l.split(",")[1] == "train_loss" and l.split(",")[2] == "smoothed"
    ]
    first, last = smoothed[0][1], smoothed[-1][1]
    assert last < first


def test_train_determinism_same_seed_same_bytes(tmp_path):
    ckpts = []
    for i in range(2):
        _, _, ckpt, _ = run_training(tmp_path, steps=5, subdir=f"d{i}")
        with open(ckpt, "rb") as f:
            ckpts.append(f.read())
    assert ckpts[0] == ckpts[1]


def test_resume_bit_identical_to_uninterrupted(tmp_path):
    cfg = tiny_cfg(checkpoint_interval=4)
    docs = synth_docs()
    # uninterrupted 8 steps
    params_a = M.init_params(SHAPE, 3)
    TR.train(params_a, SHAPE, docs, cfg, 8, str(tmp_path / "full"))
    # interrupted at 4, resumed to 8
    params_b = M.init_params(SHAPE, 3)
    _, ckpt = TR.train(params_b, SHAPE, docs, cfg, 4, str(tmp_path / "part"))
    shape, cfg2, params_c, state = TR.load_checkpoint(ckpt)
    TR.train(params_c, shape, docs, cfg2, 8, str(tmp_path / "part2"), state=state)
    for k in params_a:
        assert np.array_equal(params_a[k], params_c[k]), k


def test_resume_with_lr_override(tmp_path):
    _, _, ckpt, _ = run_training(tmp_path, steps=5)
    shape, cfg, params, state = TR.load_checkpoint(ckpt)
    overrides = {"max_lr": 5e-3, "final_lr": 5e-4}
    cfg = replace(cfg, **overrides)
    state, last = TR.train(params, shape, synth_docs(), cfg, 6, str(tmp_path / "b"),
                           state=state, overrides=overrides)
    assert state.step == 6
    saved = TR.load_checkpoint(last)[1]
    assert saved.max_lr == 5e-3 and saved.final_lr == 5e-4
    rows = (tmp_path / "b" / "diagnostics.csv").read_text().splitlines()
    assert rows[:2] == ["5,override,final_lr,0.0005", "5,override,max_lr,0.005"]
    assert {r.split(",")[0] for r in rows[2:]} == {"6"}


def test_resume_reshuffle_only_permutes_unseen(tmp_path):
    cfg = tiny_cfg()
    docs = synth_docs(80)
    params = M.init_params(SHAPE, 3)
    state, ckpt = TR.train(params, SHAPE, docs, cfg, 2, str(tmp_path / "r"))
    seen = state.order[: state.stream_pos]
    shape, cfg2, params2, state2 = TR.load_checkpoint(ckpt)
    state2, _ = TR.train(params2, shape, docs, cfg2, 3, str(tmp_path / "b"),
                         state=state2, reshuffle=True)
    rows = (tmp_path / "b" / "diagnostics.csv").read_text().splitlines()
    assert rows[0].startswith("2,override,reshuffle_remaining,")
    assert [r for r in rows if ",override," in r] == rows[:1]
    assert state2.epoch == state.epoch  # the reshuffled order is the one trained on
    assert state2.order[: len(seen)] == seen
    assert state2.order != state.order and sorted(state2.order) == sorted(state.order)
    assert state2.shuffle_salt == state.shuffle_salt + 1


def test_train_refuses_steps_at_or_below_its_start(tmp_path):
    # A fresh run of 0 steps, and a resume to the step it starts from,
    # would rewrite that step's checkpoint; each is refused before any write.
    params = M.init_params(SHAPE, 3)
    with pytest.raises(ValueError, match="^steps = 0 is not above step 0, where the run starts$"):
        TR.train(params, SHAPE, synth_docs(), tiny_cfg(), 0, str(tmp_path / "fresh"))
    assert not (tmp_path / "fresh").exists()
    _, _, ckpt, out = run_training(tmp_path, steps=4)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    shape, cfg, params, state = TR.load_checkpoint(ckpt)
    for steps in (4, 3):
        with pytest.raises(ValueError, match=f"^steps = {steps} is not above step 4, "):
            TR.train(params, shape, synth_docs(), cfg, steps, str(out), state=state)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_epoch_reshuffle_differs_between_epochs(tmp_path):
    cfg = tiny_cfg()
    o0 = TR._epoch_order(50, cfg, epoch=0, salt=0)
    o1 = TR._epoch_order(50, cfg, epoch=1, salt=0)
    assert o0 != o1 and sorted(o0) == sorted(o1)


def test_train_diverges_cleanly_on_nonfinite(tmp_path, monkeypatch):
    cfg = tiny_cfg(checkpoint_interval=2)
    docs = synth_docs()
    params = M.init_params(SHAPE, 3)
    real_step = TR.adamw_step

    def poison(flat, state, lr, cfg):
        real_step(flat, state, lr, cfg)
        if state.step == 3:
            params["Wem"][0, 0] = np.nan

    monkeypatch.setattr(TR, "adamw_step", poison)
    with pytest.raises(TR.TrainingDiverged) as exc:
        TR.train(params, SHAPE, docs, cfg, 6, str(tmp_path / "x"))
    assert exc.value.last_checkpoint is not None
    assert exc.value.last_checkpoint.endswith("checkpoint-00000002.bin")
    # the checkpoint it points to is loadable and finite
    _, _, p2, _ = TR.load_checkpoint(exc.value.last_checkpoint)
    assert all(np.all(np.isfinite(v)) for v in p2.values())


def test_nonfinite_gradient_halt_row_names_the_group(tmp_path, monkeypatch):
    # A NaN in one group's gradient, injected where backward hands it to the
    # step's accumulator: the halt row and the error name that group, and
    # the loss stays finite.
    real = M.backward
    bad = "layer0.attn.Wv"

    def backward(*args, emit, **kwargs):
        def inject(name, grad):
            if name == bad:
                grad = grad.copy()
                grad[0, 1] = np.nan
            emit(name, grad)

        return real(*args, emit=inject, **kwargs)

    monkeypatch.setattr(M, "backward", backward)
    cfg = tiny_cfg()
    params = M.init_params(SHAPE, 3)
    assert bad in params
    with pytest.raises(TR.TrainingDiverged, match=f"non-finite gradient in {bad}"):
        TR.train(params, SHAPE, synth_docs(), cfg, 3, str(tmp_path / "x"))
    last = (tmp_path / "x" / "diagnostics.csv").read_text().splitlines()[-1]
    assert last == f"1,halt,non_finite,non-finite gradient in {bad}"


def test_loss_on_separator_flag_changes_weights():
    chunk = [1, 0, 2, 3]
    assert TR._loss_weights(chunk, 0, tiny_cfg()) is None
    w = TR._loss_weights(chunk, 0, tiny_cfg(loss_on_separator=False))
    assert list(w) == [0.0, 1.0, 1.0]  # targets are [0, 2, 3]


def test_validation_loss_is_inference_mode(tmp_path):
    cfg = tiny_cfg(dropout_h=0.5)
    params = M.init_params(SHAPE, 3)
    chunks = TR.pack_documents(synth_docs(10), cfg.seq_len, 0)
    a = TR.validation_loss(params, SHAPE, chunks, cfg)
    b = TR.validation_loss(params, SHAPE, chunks, cfg)
    assert a == b  # no dropout noise at eval time
    # each chunk's mean NLL, the float of cross_entropy_loss on its logits
    fcfg = M.ForwardConfig(eps=cfg.ln_eps, qk_layer_scaling=cfg.qk_layer_scaling)
    assert a == float(np.mean([
        M.cross_entropy_loss(M.forward(params, c[:-1], SHAPE, fcfg), c[1:]) for c in chunks
    ]))
