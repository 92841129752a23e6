"""Acceptance suite: exact-number, oracle, and property checks at desk scale.

Each criterion prints a single ``criterion NN <name>: PASS`` / ``FAIL`` line
on the real terminal (bypassing capture), in addition to the normal pytest
verdict.
"""

import itertools
import json
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest

from finforge import cli
from finforge import evalharness as E
from finforge import model as M
from finforge import scaling as S
from finforge import tokenizer as T
from finforge import trainer as R
from finforge import vocabselect as V
from reference_model import alibi_matrices, finite_diff_check


@contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:02d} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: PASS")


# ---------------------------------------------------------------------------


def test_criterion_01_parameter_accounting(capsys):
    with criterion(capsys, 1, "parameter accounting"):
        shape = S.ModelShape(70, 40, 7680, 192, 30720, 131072)
        table = S.count_parameters(shape)
        rows = {r.name: r for r in table.rows}
        assert rows["embedding"].total == 1_006_632_960
        assert rows["ffn_in_weight"].total == 16_515_072_000
        assert rows["ffn_out_weight"].total == 16_515_072_000
        for group in ("attn_query_weight", "attn_key_weight",
                      "attn_value_weight", "attn_output_weight"):
            assert rows[group].total == 4_128_768_000
        assert rows["embedding_ln_gain"].total == 7680
        assert rows["input_ln_gain"].total == 537_600
        assert rows["attn_query_bias"].total == 537_600
        assert rows["attn_output_bias"].total == 537_600
        assert rows["ffn_in_bias"].total == 2_150_400
        assert rows["final_ln_bias"].total == 7680
        assert table.grand_total == 50_558_868_480


def test_criterion_02_scaling_fits(capsys):
    with criterion(capsys, 2, "scaling fits"):
        flops = S.effective_flops(S.ComputeBudget(1.3e6, 1.02e14))
        assert flops == pytest.approx(0.75 * 1.3e6 * 3600 * 1.02e14, rel=1e-12)
        p1, t1 = S.chinchilla_predict(flops, S.APPROACH_1)
        assert abs(p1 - 52.993e9) / 52.993e9 < 0.02
        assert abs(t1 - 1111.112e9) / 1111.112e9 < 0.02
        p2, t2 = S.chinchilla_predict(flops, S.APPROACH_2)
        assert abs(p2 - 49.753e9) / 49.753e9 < 0.02
        assert abs(t2 - 1175.766e9) / 1175.766e9 < 0.02
        assert 7508.0 <= S.levine_width(70) <= 7512.0


def test_criterion_03_initialization(capsys):
    with criterion(capsys, 3, "initialization"):
        assert abs(M.init_std(7680) - 0.006588) < 1e-6
        # > 1e6 sampled weights in the embedding alone
        shape = S.ModelShape(1, 2, 192, 96, 768, 6000)
        params = M.init_params(shape, seed=0)
        assert params["Wem"].size >= 1_000_000
        z = M.init_std(shape.hidden)
        assert abs(float(params["Wem"].std()) - z) / z < 0.03
        zp = z / math.sqrt(2.0 * shape.layers)
        assert abs(float(params["layer0.ffn.U"].std()) - zp) / zp < 0.03
        for name, tensor in params.items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "g":
                assert np.all(tensor == 1.0)
            elif leaf in ("b", "bq", "bk", "bv", "c"):
                assert np.all(tensor == 0.0)


def test_criterion_04_alibi(capsys):
    with criterion(capsys, 4, "alibi"):
        assert np.array_equal(M.alibi_slopes(8), 2.0 ** -np.arange(1.0, 9.0))
        assert abs(M.alibi_slopes(40)[32] - 2.0 ** -0.1) < 1e-12
        spec = alibi_matrices(4, 12)
        # with rows as queries and columns as keys, the upper triangle and
        # the diagonal are exactly 0 (biases apply to strictly earlier keys)
        a_qk = spec.biases.transpose(0, 2, 1)
        for n in range(4):
            assert np.array_equal(np.triu(a_qk[n]), np.zeros((12, 12)))
            assert np.all(np.diag(a_qk[n]) == 0.0)
        # masked softmax over keys: columns sum to 1, future keys get 0
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(12, 12)) + spec.biases[0]
        masked = np.where(np.isneginf(spec.mask), -np.inf, scores)
        e = np.exp(masked - masked.max(axis=0, keepdims=True))
        probs = e / e.sum(axis=0, keepdims=True)
        assert np.all(np.abs(probs.sum(axis=0) - 1.0) < 1e-12)
        keys, queries = np.tril_indices(12, k=-1)  # key > query
        assert np.all(probs.T[np.triu_indices(12, k=1)] == 0.0) or np.all(
            probs[keys * 0 + queries, queries * 0 + keys] == 0.0
        )
        ku, qu = np.where(np.arange(12)[:, None] > np.arange(12)[None, :])
        assert np.all(probs[ku, qu] == 0.0)


TINY = S.ModelShape(2, 4, 16, 4, 64, 64)


def test_criterion_05_gradient_correctness(capsys):
    with criterion(capsys, 5, "gradient correctness"):
        rng = np.random.default_rng(0)
        tokens = list(rng.integers(0, 64, size=8))
        targets = list(rng.integers(0, 64, size=8))
        params = M.init_params(TINY, seed=1)
        rep = finite_diff_check(params, tokens, targets, TINY, M.ForwardConfig(),
                                sample_count=5)
        assert max(rep.values()) < 1e-5, rep
        cfg = M.ForwardConfig(p_at=0.1, p_h=0.1, p_f=0.1, training=True,
                              rng_seed=3, step=1)
        rep = finite_diff_check(params, tokens, targets, TINY, cfg, sample_count=5)
        assert max(rep.values()) < 1e-5, rep


def test_criterion_06_loss_sanity(capsys):
    with criterion(capsys, 6, "loss sanity"):
        big_v = S.ModelShape(1, 4, 16, 4, 64, 256)
        params0 = M.init_params(big_v, seed=0)
        rng = np.random.default_rng(1)
        tokens = list(rng.integers(0, 256, size=128))
        loss0 = M.cross_entropy_loss(M.forward(params0, tokens[:-1], big_v), tokens[1:])
        assert abs(loss0 - math.log(256)) / math.log(256) < 0.05

        # 200-step smoke run on a highly repetitive corpus
        shape = S.ModelShape(1, 2, 8, 4, 32, 16)
        params = M.init_params(shape, seed=0)
        pattern = [1, 2, 3, 4, 5, 6, 7, 8]
        docs = [pattern * 8 for _ in range(24)]
        cfg = R.TrainConfig(
            max_lr=3e-3, final_lr=3e-4, warmup_steps=10, horizon_steps=200,
            seq_len=16, batch_warmup_size=4, batch_main_size=4,
            batch_warmup_steps=1, train_loss_interval=1,
            checkpoint_interval=100, seed=5,
        )
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            state, _ = R.train(params, shape, docs, cfg, 200, tmp)
            with open(f"{tmp}/diagnostics.csv") as f:
                lines = f.read().splitlines()
        smoothed = [
            float(l.split(",")[3])
            for l in lines
            if l.split(",")[1] == "train_loss" and l.split(",")[2] == "smoothed"
        ]
        assert smoothed[-1] <= 0.5 * smoothed[0], (smoothed[0], smoothed[-1])


def test_criterion_07_tokenizer_properties(capsys, tmp_path):
    with criterion(capsys, 7, "tokenizer properties"):
        domains = [
            [b"the cat sat on the mat " * 15, b"a dog ate my homework " * 15],
            [b"numbers 123 456 789 here " * 15, b"special !!! ??? ,,, marks " * 15],
        ]
        model = T.train_parallel(domains, chunk_vocab=120, final_vocab=420)

        # 10,000-case byte round-trip
        rng = random.Random(0)
        for _ in range(10_000):
            n = rng.randrange(0, 129)
            data = bytes(rng.randrange(256) for _ in range(n))
            assert T.decode(model, T.encode(model, data)) == data

        # Viterbi equals brute force on all pretokens <= 12 bytes
        fuzz = b"the cat! 12 dogs ate 3 mats?? on %% days " * 5
        for pt in T.pretokenize(fuzz):
            if len(pt) > 12:
                continue
            seg = T._viterbi(pt, model.logp, model.max_token_len, T._prefixes(model.logp))
            best = None
            m = len(pt)
            for mask in range(1 << max(0, m - 1)):
                cuts = [0] + [i + 1 for i in range(m - 1) if mask >> i & 1] + [m]
                toks = [pt[cuts[k]: cuts[k + 1]] for k in range(len(cuts) - 1)]
                if all(t in model.logp for t in toks):
                    sc = sum(model.logp[t] for t in toks)
                    if best is None or sc > best:
                        best = sc
            assert seg is not None and abs(seg[1] - best) < 1e-9

        # merge algebra
        vs = [T.train_chunk_unigram(c, 80) for d in domains for c in d]
        flat = T.merge_vocabs(vs)
        for regroup in (
            T.merge_vocabs([T.merge_vocabs(vs[:2]), T.merge_vocabs(vs[2:])]),
            T.merge_vocabs(list(reversed(vs))),
        ):
            assert set(regroup.probs) == set(flat.probs)
            for t in flat.probs:
                assert abs(regroup.probs[t] - flat.probs[t]) < 1e-12

        # 2x2 parallel equals flat merge (after identical prune+finalize)
        singles = {t for t in flat.probs if len(t) == 1}
        keep = 420 - (256 - len(singles)) - 1
        pruned = T.prune_to_size(flat, keep, protected=singles) if len(flat) > keep else flat
        expected = T.finalize(pruned)
        got = T.train_parallel(domains, chunk_vocab=80, final_vocab=420)
        assert got.id_to_token == expected.id_to_token
        for t in got.logp:
            assert abs(got.logp[t] - expected.logp[t]) < 1e-12

        # serialization round-trip
        p1, p2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
        T.save_tokenizer(model, str(p1))
        T.save_tokenizer(T.load_tokenizer(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def test_criterion_08_vocab_heuristic(capsys):
    with criterion(capsys, 8, "vocab heuristic"):
        corpus = [
            b"earnings per share rose while revenue guidance fell " * 40,
            b"the board approved the quarterly dividend payout " * 40,
        ]
        base = T.merge_vocabs([T.train_chunk_unigram(doc, 2500) for doc in corpus])
        candidates = [260, 512, 1024, 2048]
        chosen = V.best_size(V.sweep(base, corpus, candidates))
        # independent brute-force argmin
        best = None
        for size in candidates:
            mod = T.finalize_to_size(base, size)
            bits = sum(len(T.encode(mod, d)) for d in corpus) * math.log2(size)
            if best is None or (bits, size) < best[:2]:
                best = (bits, size)
        assert chosen == best[1]
        assert V.round_up_pow2(chosen) == 2 ** math.ceil(math.log2(chosen))
        assert V.round_up_pow2(125_000) == 131_072


def test_criterion_09_schedules_and_optimizer(capsys):
    with criterion(capsys, 9, "schedules and optimizer"):
        cfg = R.TrainConfig()
        assert R.lr_at(900, cfg) == 3e-5
        assert R.lr_at(1800, cfg) == 6e-5
        assert R.lr_at(cfg.horizon_steps, cfg) == 6e-6
        assert R.batch_size_at(7200, cfg) == 1024
        assert R.batch_size_at(7201, cfg) == 2048
        # zero-gradient AdamW step
        params = {"Wx": np.array([3.0]), "attn.U": np.array([-2.0]),
                  "ln.g": np.array([1.5]), "ffn.b": np.array([0.25])}
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        state = R.TrainState.fresh(params)
        lr = 1e-3
        R.adamw_step(params, grads, state, lr, cfg)
        factor = 1.0 - lr * cfg.weight_decay
        assert params["Wx"][0] == 3.0 * factor
        assert params["attn.U"][0] == -2.0 * factor
        assert params["ln.g"][0] == 1.5
        assert params["ffn.b"][0] == 0.25
        # clipping
        rng = np.random.default_rng(0)
        grads = {"a": rng.normal(size=(50,)), "b": rng.normal(size=(30,))}
        clipped, norm = R.clip_gradients(grads, 0.3)
        assert norm > 0.3
        assert abs(R.grad_global_norm(clipped) - 0.3) < 1e-12


def test_criterion_10_evaluation_methodology(capsys, monkeypatch):
    with criterion(capsys, 10, "evaluation methodology"):
        # enumerated toy distribution, including the calibration disagreement
        table = {
            (b"ctx", b"A"): math.log(0.40),
            (b"ctx", b"B"): math.log(0.50),
            (b"Answer:", b"A"): math.log(0.10),
            (b"Answer:", b"B"): math.log(0.45),
        }
        monkeypatch.setattr(
            E, "candidate_logprob", lambda lm, tok, c, cand, **kw: table[(c, cand)]
        )
        probs = {bytes([b]): 1.0 for b in b"AB"}
        tok = T.finalize(T.UnigramVocab({t: 0.5 for t in probs}, 1.0))
        task = E.ClassificationTask(context=b"ctx", candidates=(b"A", b"B"))
        # brute-force formula evaluation
        reg = max(task.candidates, key=lambda c: table[(b"ctx", c)])
        cal = max(task.candidates,
                  key=lambda c: table[(b"ctx", c)] - table[(b"Answer:", c)])
        nrm = max(task.candidates,
                  key=lambda c: math.exp(table[(b"ctx", c)]) / len(T.encode(tok, c)))
        assert E.classify(None, tok, task, "regular") == reg == b"B"
        assert E.classify(None, tok, task, "calibration") == cal == b"A"
        assert E.classify(None, tok, task, "normalization") == nrm
        monkeypatch.undo()

        # sliding-window schedule: 3000 tokens, window 8, stride 4
        calls = []

        class Recorder:
            def logits(self, toks, start=0):
                calls.append(list(toks))
                return np.zeros((6, len(toks)))[:, start:]

            span_nll = M.span_nll

        tokens = [int(x) for x in np.arange(3000) % 6]
        nll = E._windowed_nll(Recorder(), tokens, first_scored=1, window=8, stride=4)
        assert abs(nll - 2999 * math.log(6)) < 1e-9
        # hand-enumerated schedule
        expected_windows = [(0, 8)]
        scored_to = 8
        while scored_to < 3000:
            end = min(scored_to + 4, 3000)
            expected_windows.append((end - 8, end))
            scored_to = end
        assert len(calls) == len(expected_windows)
        for call, (s, e) in zip(calls, expected_windows):
            assert call == tokens[s:e][:-1]
        # every scored token beyond the first window keeps >= 4 context tokens
        scored_to = 8
        for (s, e) in expected_windows[1:]:
            first_scored_pos = scored_to
            assert first_scored_pos - s >= 8 - 4
            scored_to = e


def _pipeline(tmp_path, tag):
    root = tmp_path / tag
    root.mkdir()
    corpus = root / "corpus.txt"
    corpus.write_bytes(
        b"stocks rose and bonds fell while the index was flat today. " * 40
    )
    tokfile = root / "tok.txt"
    assert cli.main([
        "train-tokenizer", "--corpus", str(corpus),
        "--chunk-vocab", "150", "--target-vocab", "320", "--out", str(tokfile),
    ]) == 0

    import contextlib
    import io

    plan_out = io.StringIO()
    with contextlib.redirect_stdout(plan_out):
        assert cli.main(["plan", "--params-only", "50e9", "--vocab", "131072"]) == 0
    (root / "plan.csv").write_text(plan_out.getvalue())

    cfg = root / "run.cfg"
    cfg.write_text(
        f"corpus = {corpus}\ntokenizer = {tokfile}\nout_dir = {root / 'run'}\n"
        "steps = 3\nlayers = 1\nheads = 2\nhead_dim = 4\nseq_len = 16\n"
        "batch_warmup_size = 2\nbatch_main_size = 2\nbatch_warmup_steps = 2\n"
        "warmup_steps = 2\nhorizon_steps = 50\nmax_lr = 1e-3\nfinal_lr = 1e-4\n"
        "checkpoint_interval = 2\nseed = 13\n"
    )
    train_out = io.StringIO()
    with contextlib.redirect_stdout(train_out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["train", "--config", str(cfg)]) == 0
    ckpt = dict(
        l.split(",", 1) for l in train_out.getvalue().strip().splitlines()
    )["final_checkpoint"]

    eval_out = io.StringIO()
    with contextlib.redirect_stdout(eval_out):
        assert cli.main([
            "eval", "bpb", "--model", ckpt, "--tokenizer", str(tokfile),
            "--docs", str(corpus), "--window", "16", "--stride", "8",
        ]) == 0
    (root / "result.csv").write_text(eval_out.getvalue())
    with open(ckpt, "rb") as f:
        ckpt_bytes = f.read()
    return tokfile.read_bytes(), ckpt_bytes, (
        (root / "plan.csv").read_bytes(), (root / "result.csv").read_bytes()
    )


def test_criterion_11_reproducibility(capsys, tmp_path):
    with criterion(capsys, 11, "reproducibility"):
        a = _pipeline(tmp_path, "run_a")
        b = _pipeline(tmp_path, "run_b")
        assert a[0] == b[0]  # tokenizer files byte-identical
        assert a[1] == b[1]  # final checkpoints byte-identical
        assert a[2] == b[2]  # plan and eval result files byte-identical
