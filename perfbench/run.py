"""Benchmark of the finforge pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tok-and-tiny --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

The two workloads in BENCHMARK.json are ``tok-and-tiny`` and
``wide-and-eval``; each runs two of the four parts (``tok-train``,
``train-tiny``, ``train-wide``, ``eval-fewshot``), which can also be run
alone by name. ``all`` runs the two, one process each.

It builds seeded inputs and fixtures (timed as ``setup_s``), then repeats
the workload's calls into ``finforge.cli.main`` for about ``--seconds``
seconds, checking every output. Times are reported at a fixed reference
speed of the machine, sampled during each timed call (``speed.py``), so that
other tenants' load on a shared host does not move them (``wall_ref_s``,
``setup_s``); the wall times are printed and recorded too. With ``--trace 1`` it alternates untraced and
traced repetitions and reports per-function times and counts instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record goes
to ``.perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 10  # at least; one more runs before each repetition
MIN_REPS = 3  # per mode: the first repetition is the reference for the rest
END_TO_END = (
    ("setup_s", "s"), ("wall_ref_s", "s"), ("peak_rss_mb", "MB"), ("tok_bytes_per_token", "B/token"),
)


def configure_threads() -> dict[str, str]:
    """Pin thread counts before numpy loads: BLAS to at most the core count
    (1 unless set), and the tokenizer trainer to one process."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        blas = min(max(1, int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))), nproc)
    except ValueError:
        blas = 1
    env = {"OPENBLAS_NUM_THREADS": str(blas), "OMP_NUM_THREADS": str(blas), "FINFORGE_THREADS": "1"}
    os.environ.update(env)
    return {"nproc": nproc, **env}


def environment(threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        **threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def quartiles(xs: list[float]) -> dict:
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0], "n": 1}
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


class Ledger:
    """Attempted and failed operations: CLI calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}".rstrip(": "))


def bench(wl, seed: int, seconds: float, trace: bool, threads: dict) -> tuple[dict, dict]:
    name = wl.name
    ledger = Ledger()
    env = environment(threads)
    env["loadavg_start"] = os.getloadavg()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    try:
        # One set-up makes the fixture the repetitions use. More set-ups, one
        # before each repetition, spread the set-up samples over the run
        # for a steadier median; every one must write the same bytes.
        with speed.SpeedProbe() as probe:
            setups = SetUps(wl, seed, work, probe)
            fx = setups.run(keep=True)
            reps = measure(wl, fx, seconds, trace, ledger, setups.run, probe)
            while len(setups.seconds) < SETUP_REPEATS:
                setups.run()
        ledger.add("every set-up writes the same bytes", len(setups.digests) == 1)
        setup_s = setups.seconds
        plain = [r for r in reps if not r["traced"] and r["ok"]]
        traced = [r for r in reps if r["traced"] and r["ok"]]
        rates = {}
        for r in plain:
            for k, (v, unit) in r["rates"].items():
                rates.setdefault(k, ([], unit))[0].append(v)
        bpt, checks = wl.quality(fx, {k: v for k, (v, _) in rates.items()})
        for c in checks:
            ledger.add(c.name, c.ok, c.detail)
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "why": wl.why, "inputs": {k: v for k, v in fx.info.items() if isinstance(v, (int, float, dict))},
            "setup_s": setup_s,
            "setup_wall_s": setups.wall_seconds,
            "rep_wall_ref_s": [r["wall_ref"] for r in plain],
            "rep_wall_s": [r["wall"] for r in plain],
            "rep_phase_ref_s": [r["phase_ref_s"] for r in reps if r["ok"]],
            "rep_phase_s": [r["phase_s"] for r in reps if r["ok"]],
            "traced_rep_wall_ref_s": [r["wall_ref"] for r in traced],
            "speed_samples": len(probe.samples),
            "phases": {k: {"unit": u, **quartiles(v)} for k, (v, u) in rates.items()},
        }
        metrics = {}
        if not trace:
            values = {
                "setup_s": statistics.median(setup_s),
                "wall_ref_s": statistics.median(record["rep_wall_ref_s"]) if plain else float("nan"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "tok_bytes_per_token": bpt,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        else:
            summaries = [r["summary"] for r in traced]
            varying = []
            for key in summaries[0] if summaries else ():
                vals = [s[key] for s in summaries]
                unit = per_layer_unit(key)
                if unit != "s" and any(v != vals[0] for v in vals):
                    varying.append(key)
                metrics[key] = {"value": statistics.median(vals), "unit": unit}
            ledger.add("traced counts repeat exactly", not varying, str(varying))
            if plain and traced:
                overhead = statistics.median(record["traced_rep_wall_ref_s"]) - statistics.median(record["rep_wall_ref_s"])
                metrics["trace.overhead_s"] = {"value": overhead, "unit": per_layer_unit("trace.overhead_s")}
            spans_path = os.path.join(OUT, "spans", f"{name}-seed{seed}-{stamp()}.jsonl")
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            for r in traced:
                r["tracer"].write_spans(spans_path, r["index"])
            record["spans"] = os.path.relpath(spans_path, ROOT)
        env["loadavg_end"] = os.getloadavg()
        record["env"] = env
        record["failures"] = ledger.failures
        result = {
            "correct": ledger.failed == 0 and bool(plain),
            "attempted": max(1, ledger.attempted),
            "failed": ledger.failed,
            "metrics": metrics,
        }
        record["result"] = result
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


class SetUps:
    """Runs and times the workload's set-up, each into a fresh directory.
    ``seconds`` are at the probe's reference speed, ``wall_seconds`` wall."""

    def __init__(self, wl, seed: int, work: str, probe: speed.SpeedProbe):
        self.wl, self.seed, self.work, self.probe = wl, seed, work, probe
        self.seconds: list[float] = []
        self.wall_seconds: list[float] = []
        self.digests: set[str] = set()

    def run(self, keep: bool = False):
        d = os.path.join(self.work, f"setup{len(self.seconds)}")
        os.makedirs(d)
        start = time.perf_counter()
        fx = self.wl.setup(self.seed, d)
        end = time.perf_counter()
        self.wall_seconds.append(end - start)
        self.seconds.append(self.probe.adjusted(start, end))
        self.digests.add(tree_digest(d, d))
        if not keep:
            shutil.rmtree(d)
        return fx


def measure(wl, fx, seconds, trace, ledger, setup, probe) -> list[dict]:
    """Repeat the workload until about ``seconds`` have passed, calling
    ``setup`` before each repetition. With tracing, untraced and traced
    repetitions alternate. Each phase's ``seconds`` become its time at the
    ``probe``'s reference speed; the wall times are kept too."""
    reps, reference = [], None
    start = time.perf_counter()
    while True:
        setup()
        index = len(reps)
        traced = trace and index % 2 == 1
        wl.clear(fx)
        tracer = tracing.Tracer() if traced else None
        rep = {"index": index, "traced": traced, "ok": False, "wall_ref": None, "wall": None}
        try:
            with tracer or contextlib.nullcontext():
                phases = wl.run(fx)
        except Exception:  # a crash inside the program fails this repetition, not the run
            ledger.add(f"repetition {index}", False, traceback.format_exc(limit=-3))
            reps.append(rep)
        else:
            rep["phase_s"] = {p.name: p.seconds for p in phases}
            for p in phases:
                p.seconds = probe.adjusted(p.start, p.start + p.seconds)
            rep["phase_ref_s"] = {p.name: p.seconds for p in phases}
            rep["wall"] = sum(rep["phase_s"].values())
            rep["wall_ref"] = sum(p.seconds for p in phases)
            calls_ok = True
            for p in phases:
                if p.code is not None:
                    ledger.add(f"{p.name} exit code", p.code == 0, f"{p.code}: {p.stderr[-500:]}")
                    calls_ok &= p.code == 0
            if calls_ok:
                for c in wl.checks(fx, phases):
                    ledger.add(c.name, c.ok, c.detail)
                fp = wl.fingerprint(fx, phases)
                if reference is None:
                    reference = fp
                else:
                    diff = sorted(k for k in set(fp) | set(reference) if fp.get(k) != reference.get(k))
                    ledger.add("repeat is byte-identical", not diff, f"differs: {diff}")
                rep["rates"] = wl.rates(fx, phases)
                if tracer:
                    rep["tracer"] = tracer
                    rep["summary"] = tracer.summary()
                    for metric, want in wl.expected_counts(fx).items():
                        got = rep["summary"][metric]
                        ledger.add(f"spans {metric} == {want}", got == want, f"got {got}")
                rep["ok"] = True
            reps.append(rep)
        walls = [r["wall"] for r in reps if r["wall"] is not None] or [0.0]
        done = [r for r in reps if r["traced"] == traced]
        enough = len(done) >= MIN_REPS and (not trace or len(reps) >= 2 * MIN_REPS)
        if enough and time.perf_counter() - start + statistics.median(walls) > seconds:
            return reps


def per_layer_unit(key: str) -> str:
    if key.endswith((".s", "_s")):
        return "s"
    if key.endswith(".bytes"):
        return "bytes"
    if key.endswith(".rows_per_scored_token"):
        return "rows/token"
    if key.endswith(".diag_rows_per_step"):
        return "rows/step"
    if key.endswith(".tokens"):
        return "tokens"
    if key.endswith(".rows"):
        return "rows"
    return "count"


def tree_digest(d: str, own_path: str) -> str:
    """Digest of the files under ``d``, with ``own_path`` masked in their
    contents (set-up writes absolute paths into config files)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(d)):
        dirnames.sort()
        for f in sorted(filenames):
            path = os.path.join(dirpath, f)
            h.update(os.path.relpath(path, d).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read().replace(own_path.encode(), b"<setup>"))
    return h.hexdigest()


def stamp() -> str:
    return time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"


def report(result: dict, record: dict) -> None:
    """Human-readable lines, before the final JSON line."""
    name = record["workload"]
    print(f"# {name} seed={record['seed']} trace={record['trace']} "
          f"reps={len(record['rep_wall_ref_s'])}+{len(record['traced_rep_wall_ref_s'])} traced")
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# inputs {json.dumps(record['inputs'], sort_keys=True)}")
    rows = [(k, v["unit"], v) for k, v in record["phases"].items()]
    rows.append(("wall_ref_s", "s", quartiles(record["rep_wall_ref_s"]) if record["rep_wall_ref_s"] else None))
    rows.append(("wall_s", "s", quartiles(record["rep_wall_s"]) if record["rep_wall_s"] else None))
    rows.append(("setup_s", "s", quartiles(record["setup_s"])))
    rows.append(("setup_wall_s", "s", quartiles(record["setup_wall_s"])))
    for k, unit, q in rows:
        if q:
            print(f"{name:<13} {k:<22} {q['median']:>12.6g} {unit:<8} "
                  f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  n {q['n']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"{name:<13} {'fail_frac':<22} {fail_frac:>12.6g} {'ratio':<8} "
          f"{result['failed']} of {result['attempted']} calls and checks")
    for f in record["failures"]:
        print(f"# FAILED {f}")
    if record["trace"]:
        for k, m in result["metrics"].items():
            print(f"{name:<13} {k:<46} {m['value']:>12.6g} {m['unit']}")


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, one after another, so that peak
    memory and imports are per workload."""
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload or part name, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "finforge", "cli.py")):
        print(f"perfbench: no finforge sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    threads = configure_threads()
    sys.path.insert(0, SRC)
    import finforge

    if os.path.dirname(os.path.dirname(os.path.abspath(finforge.__file__))) != SRC:
        print(f"perfbench: imported finforge from {finforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as W  # imports numpy: only after configure_threads()

    if args.workload == "all":
        return run_all(args, [w.name for w in W.BENCHMARK_WORKLOADS])
    if args.workload not in W.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)} or all")
    result, record = bench(W.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), threads)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp()}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    report(result, record)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
