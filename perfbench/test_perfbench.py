"""Tests of the benchmark's own parts: input generation, span accounting and
the speed adjustment of times.

Run with ``python -m pytest perfbench``. They use stand-in modules, not the
program, so that they pin the benchmark and nothing else.
"""

import itertools
import json
import os
import signal
import sys
import time
import types

import pytest

import gen
import run
import speed
import tracing


def test_generator_is_deterministic_per_seed():
    assert gen.corpus(7, "train", 3000) == gen.corpus(7, "train", 3000)
    assert gen.few_shot_tasks(7, 3, 8) == gen.few_shot_tasks(7, 3, 8)
    assert gen.prompt(7, 600) == gen.prompt(7, 600)
    assert gen.corpus(7, "train", 3000) != gen.corpus(8, "train", 3000)
    assert gen.corpus(7, "train", 3000) != gen.corpus(7, "heldout", 3000)


def test_generator_sizes_and_classes():
    docs = gen.corpus(3, "train", 4000)
    assert sorted(docs) == sorted(gen.DOMAINS)
    for texts in docs.values():
        assert sum(len(t.encode()) for t in texts) >= 2000
    shares = gen.class_shares([t for texts in docs.values() for t in texts])
    assert set(shares) == set(gen.CLASS_NAMES)
    assert all(v > 0 for v in shares.values())
    assert sum(shares.values()) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="digit"):
        gen.class_shares(["only words here."])
    assert len(gen.prompt(3, 600)) <= 600


def test_heldout_is_disjoint_and_overlap_is_refused():
    train = [d for texts in gen.corpus(5, "train", 8000).values() for d in texts]
    held = [d for texts in gen.corpus(5, "heldout", 8000).values() for d in texts]
    gen.check_disjoint(train, held)
    with pytest.raises(ValueError):
        gen.check_disjoint(train, held + train[:1])


def test_tasks_carry_a_shot_pool_and_gold_among_candidates():
    tasks = gen.few_shot_tasks(2, 4, 6)
    for t in tasks:
        assert t["gold"] in t["candidates"]
        assert len(t["shots_pool"]) == 6
        assert all(s["gold"] in gen.CANDIDATES for s in t["shots_pool"])


@pytest.fixture
def fakepkg():
    """A package whose eval module imports ``encode`` by name, as the
    program's does."""
    tok = types.ModuleType("fakepkg.tokenizer")
    ev = types.ModuleType("fakepkg.evalharness")

    def pretokenize(data):
        return [data]

    def encode(model, data):
        return [b for piece in tok.pretokenize(data) for b in piece]

    def read(path, depth=0):
        return 1 if depth == 2 else tok.read(path, depth + 1) + 1

    tok.pretokenize, tok.encode, tok.read = pretokenize, encode, read
    ev.encode = encode

    def score(text):
        return len(ev.encode(None, text))

    ev.score = score
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.tokenizer": tok, "fakepkg.evalharness": ev}
    sys.modules.update(mods)
    yield tok, ev
    for name in mods:
        del sys.modules[name]


def make_tracer():
    ticks = itertools.count()
    wrapped = {"tokenizer": ("pretokenize", "encode", "read", "absent"), "evalharness": ("score",)}
    return tracing.Tracer("fakepkg", wrapped, clock=lambda: float(next(ticks)))


def test_every_binding_is_wrapped_and_restored(fakepkg):
    tok, ev = fakepkg
    original = tok.encode
    tracer = make_tracer()
    with tracer:
        assert tok.encode is not original and ev.encode is tok.encode
        ev.score(b"abc")
        tok.encode(None, b"de")
    assert tok.encode is original and ev.encode is original
    s = tracer.summary()
    assert s["tokenizer.encode.calls"] == 2
    assert s["tokenizer.pretokenize.calls"] == 2
    assert s["evalharness.score.calls"] == 1
    assert s["tokenizer.absent.calls"] == 0  # a missing name is skipped, not an error
    assert s["tokenizer.encode.bytes"] == 5
    assert s["tokenizer.encode.tokens"] == 5


def test_self_time_subtracts_wrapped_children(fakepkg):
    tok, ev = fakepkg
    tracer = make_tracer()
    with tracer:
        ev.score(b"abc")
    # Each clock read is one tick: score [0, 5], encode [1, 4], pretokenize [2, 3].
    assert [sp[1:] for sp in tracer.spans] == [
        [-1, "evalharness.score", 0.0, 5.0], [0, "tokenizer.encode", 1.0, 4.0], [1, "tokenizer.pretokenize", 2.0, 3.0],
    ]
    s = tracer.summary()
    assert (s["evalharness.score.s"], s["evalharness.score.self_s"]) == (5.0, 2.0)
    assert (s["tokenizer.encode.s"], s["tokenizer.encode.self_s"]) == (3.0, 2.0)
    assert (s["tokenizer.pretokenize.s"], s["tokenizer.pretokenize.self_s"]) == (1.0, 1.0)


def test_recursive_calls_are_busy_once(fakepkg):
    tok, _ = fakepkg
    tracer = make_tracer()
    with tracer:
        assert tok.read("x") == 3
    s = tracer.summary()
    assert s["tokenizer.read.calls"] == 3
    assert s["tokenizer.read.s"] == 5.0  # the outermost span only: [0, 5]
    assert s["tokenizer.read.self_s"] == 5.0  # self times sum to the busy time


def test_spans_are_written_as_json_lines(fakepkg, tmp_path):
    tok, _ = fakepkg
    tracer = make_tracer()
    with tracer:
        tok.encode(None, b"a")
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(str(path), rep=4)
    lines = path.read_text().splitlines()
    assert len(lines) == 2 and '"rep": 4' in lines[0] and '"parent": -1' in lines[0]


def test_rows_per_scored_token_counts_only_eval_forwards():
    model = types.ModuleType("fakeml.model")
    ev = types.ModuleType("fakeml.evalharness")

    def forward(params, tokens):
        return list(tokens)

    def sequence_logprob(lm, context, continuation):
        return len(model.forward(None, list(context) + list(continuation)))

    model.forward, ev.sequence_logprob = forward, sequence_logprob
    mods = {"fakeml": types.ModuleType("fakeml"), "fakeml.model": model, "fakeml.evalharness": ev}
    sys.modules.update(mods)
    try:
        tracer = tracing.Tracer("fakeml", {"model": ("forward",), "evalharness": ("sequence_logprob",)})
        with tracer:
            ev.sequence_logprob(None, [1, 2, 3, 4, 5, 6], [7, 8])  # 8 rows for 2 scored tokens
            model.forward(None, [1] * 100)  # outside the eval harness
        s = tracer.summary()
    finally:
        for name in mods:
            del sys.modules[name]
    assert s["model.forward.rows"] == 108
    assert s["evalharness.rows_per_scored_token"] == 4.0


def test_declared_per_layer_units_are_the_reported_ones():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {m["name"]: run.per_layer_unit(m["name"]) for m in declared}


def test_adjusted_time_scales_by_the_sampled_speed():
    probe = speed.SpeedProbe()
    ref = speed.REF_LOOP_S
    # Over 1 s the loop took twice its reference time for the first half and
    # its reference time for the second: the machine ran at 3/4 speed.
    # Each sample took 1 ms in all, warm-up included.
    probe.samples = [(0.5, 2 * ref, 1e-3), (1.0, ref, 1e-3), (1.5, ref, 1e-3)]
    assert probe.adjusted(0.0, 1.0) == pytest.approx((1.0 - 2e-3) * 0.75)
    assert probe.adjusted(1.0, 1.5) == pytest.approx(0.5 - 1e-3)


def test_probe_samples_while_active_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 10 * speed.INTERVAL
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    start = time.perf_counter()
    assert probe.adjusted(start, start + 1e-3) > 0  # no sample inside: one is taken
