#!/usr/bin/env python3
"""In-process times of the PBW engines on seeded pairs over F_5.

For each n (default 5, 6 and 7) the pair is `random_params(n, F_5, seed=1,
profile="mu-family")`, which is PBW, so every instance is swept, and the
perturbed pair is the same call with profile="perturbed-mu", which is not
PBW, so the verdict-only engines stop at its first failure.  Each run is a
fresh interpreter that times, once each:

- `GroupTable` on S_n's generators (1 2) and (1 2 ... n), built through
  `symmetric_group` without its cache;
- `build_H_mu` on the pair's mu tuple (read back with `extract_mu`);
- condition (1), as `check_condition(1, ...)` (the generator sweep);
- `is_pbw`;
- `RewriteSystem(...).is_confluent()`;
- `params_from_json` on the pair's parameter file, already parsed as JSON;
- `is_pbw` and `is_confluent` on the perturbed pair;

and reports its peak RSS.  The table holds the medians over --repeats runs:
the columns of the ROADMAP baseline table, plus the peak RSS.

With --against DIR (another checkout, e.g. one made with `git archive`), each
run is paired with a run of the same n on DIR's src/, in random order, and
the table adds DIR's medians and, per column, the number of pairs this
checkout won.

Usage:
    python scripts/engine_times.py [--n 5 6 7] [--repeats 5] [--against DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Times each engine once on the pair of size argv[1]; prints one JSON object.
RUN = """
import json, resource, sys, time
from dhecke import (
    FieldSpec, RewriteSystem, build_H_mu, check_condition, extract_mu, is_pbw, params_from_json,
    params_to_json, random_params,
)
from dhecke.groups import symmetric_group
n = int(sys.argv[1])
lam, kappa = random_params(n, FieldSpec(5), seed=1, profile="mu-family")
mu = extract_mu(lam, kappa)
data = json.loads(json.dumps(params_to_json(lam, kappa)))
out = {}
def timed(name, expected, fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    out[name] = time.perf_counter() - t0
    if result != expected:
        raise SystemExit(f"{name} gave {result!r}")
timed("GroupTable", lam.group.elements, lambda: symmetric_group.__wrapped__(n).elements)
timed("build_H_mu", (lam, kappa), build_H_mu, mu)
timed("cond (1)", (True, None), check_condition, 1, lam, kappa)
timed("is_pbw", True, is_pbw, lam, kappa)
timed("is_confluent", True, lambda: RewriteSystem(lam, kappa).is_confluent())
timed("params_from_json", (lam, kappa), params_from_json, data)
lam, kappa = random_params(n, FieldSpec(5), seed=1, profile="perturbed-mu")
timed("is_pbw (perturbed)", False, is_pbw, lam, kappa)
timed("is_confluent (perturbed)", False, lambda: RewriteSystem(lam, kappa).is_confluent())
out["peak RSS"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(out))
"""
STAGES = (
    "GroupTable", "build_H_mu", "cond (1)", "is_pbw", "is_confluent", "params_from_json",
    "is_pbw (perturbed)", "is_confluent (perturbed)", "peak RSS",
)


def run(src: Path, n: int) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", RUN, str(n)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"n = {n} failed on {src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def cell(stage: str, value: float) -> str:
    return f"{value:.1f} MB" if stage == "peak RSS" else f"{value:.4f} s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, nargs="+", default=[5, 6, 7], help="sizes to run (default 5 6 7)")
    parser.add_argument("--repeats", type=int, default=5, help="fresh processes per size (default 5)")
    parser.add_argument("--against", type=Path, help="another checkout to pair every run with")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    if any(not 3 <= n <= 7 for n in args.n):
        parser.error(f"--n must be 3..7 (S_n is enumerated in full), got {args.n}")
    srcs = [ROOT / "src"]
    if args.against is not None:
        srcs.append(args.against.resolve() / "src")
        if not (srcs[1] / "dhecke").is_dir():
            parser.error(f"--against {str(args.against)!r} has no src/dhecke")

    runs: dict[tuple[int, Path], list[dict[str, float]]] = {(n, src): [] for n in args.n for src in srcs}
    rng = random.Random(0)
    for _ in range(args.repeats):
        for n in args.n:
            for src in rng.sample(srcs, len(srcs)):
                runs[n, src].append(run(src, n))

    print(f"Median of {args.repeats} fresh processes, Python {sys.version.split()[0]}; each stage timed once per process.\n")
    head = ["n", "checkout", *STAGES]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for n in args.n:
        ours = runs[n, srcs[0]]
        for src in srcs:
            name = "this" if src == srcs[0] else str(args.against)
            cells = [str(n), name]
            for stage in STAGES:
                value = statistics.median(r[stage] for r in runs[n, src])
                text = cell(stage, value)
                if src != srcs[0]:
                    won = sum(a[stage] < b[stage] for a, b in zip(ours, runs[n, src]))
                    text += f" ({won}/{args.repeats} this lower)"
                cells.append(text)
            print("| " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
