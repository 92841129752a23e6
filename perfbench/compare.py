"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by run.py (one per run, under
``.perfbench/results/`` by default; move or copy each side's runs into its
own directory). Per workload, trace mode and metric it prints each side's
median, quartiles and run count, and the ratio of the medians. Runs of the
two sides are only comparable when they were interleaved on one machine.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from run import quartiles


def load(d: str) -> tuple[dict, set]:
    """(workload, trace) -> metric -> (unit, [value per run]), and the set
    of (nproc, BLAS threads, BLAS) the runs were made with."""
    out: dict = {}
    envs = set()
    for path in sorted(glob.glob(os.path.join(d, "*.json"))):
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
        env = rec["env"]
        envs.add((env["nproc"], env["OPENBLAS_NUM_THREADS"], json.dumps(env["blas"])))
        metrics = out.setdefault((rec["workload"], rec["trace"]), {})
        values = {k: (m["unit"], m["value"]) for k, m in rec["result"]["metrics"].items()}
        values.update((k, (p["unit"], p["median"])) for k, p in rec["phases"].items())
        for k, (unit, v) in values.items():
            metrics.setdefault(k, (unit, []))[1].append(v)
    return out, envs


def stats(xs: list[float]) -> str:
    q = quartiles(xs)
    return f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}] (n {q['n']})"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    (base, base_env), (new, new_env) = load(argv[0]), load(argv[1])
    if base_env != new_env:
        print(f"# environments differ: {sorted(base_env)} vs {sorted(new_env)}")
    for key in sorted(set(base) & set(new)):
        print(f"## {key[0]} trace={key[1]}")
        for name in sorted(set(base[key]) & set(new[key])):
            unit, b = base[key][name]
            _, n = new[key][name]
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = f"{mn / mb:.4f}" if mb else "n/a"
            print(f"{name:<44} {unit:<10} base {stats(b):<40} new {stats(n):<40} new/base {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
