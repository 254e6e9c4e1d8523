#!/usr/bin/env python3
"""Seeded cross-validation campaign between the two PBW verdicts.

Runs a grid of (n, characteristic) cells, characteristic 2 included, each
with a mix of the three random-parameter profiles, and reports the
agreement matrix per cell.
Any disagreement between the five-condition test and the confluence
oracle is an engine bug, not a property of the inputs.  Each sample also
reruns both engines with exhaustive=True, which sweeps conditions (1), (2)
and (3) and the group-group-var and group-var-var overlaps over all of G
rather than the generators; the default result (verdicts and witnesses)
must equal it, and so must the verdicts of `is_pbw` and
`RewriteSystem.is_confluent`, the verdict-only paths that `dhecke crossval`
and `convert` take.

Usage:
    python scripts/crossval_campaign.py [--samples 60] [--seed 0]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dhecke import FieldSpec, RewriteSystem, check_pbw, is_pbw, random_params  # noqa: E402

PROFILES = ("general", "mu-family", "perturbed-mu")


def run_cell(n: int, p: int, samples: int, seed: int) -> tuple[int, int, int]:
    fs = FieldSpec(p)
    agree = 0
    pbw_true = 0
    for s in range(samples):
        profile = PROFILES[s % 3]
        lam, kappa = random_params(n, fs, seed=seed + s, profile=profile)
        report = check_pbw(lam, kappa)
        full = check_pbw(lam, kappa, exhaustive=True)
        rs = RewriteSystem(lam, kappa)
        confluence = rs.check_confluence()
        full_confluence = rs.check_confluence(exhaustive=True)
        cond, conf = report.pbw, confluence[0]
        shortcut_ok = (report.verdicts, report.witnesses) == (full.verdicts, full.witnesses) and (
            confluence == full_confluence
        )
        verdict_only = (is_pbw(lam, kappa), rs.is_confluent())
        where = f"n={n} p={p} sample={s} profile={profile}"
        if cond == conf and shortcut_ok and verdict_only == (full.pbw, full_confluence[0]):
            agree += 1
        elif cond != conf:
            print(f"  MISMATCH at {where}: {cond} vs {conf}")
        elif not shortcut_ok:
            print(f"  GENERATOR SWEEP DIFFERS FROM EXHAUSTIVE at {where}")
        else:
            print(
                f"  VERDICT-ONLY PATH DIFFERS FROM EXHAUSTIVE at {where}: is_pbw/is_confluent "
                f"{verdict_only[0]}/{verdict_only[1]}, exhaustive {full.pbw}/{full_confluence[0]}"
            )
        pbw_true += cond
    return agree, pbw_true, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()

    total_agree = total = 0
    for n in range(3, args.max_n + 1):
        for p in (0, 2, 3, 5, 7):
            t0 = time.perf_counter()
            agree, pbw_true, samples = run_cell(n, p, args.samples, args.seed)
            dt = time.perf_counter() - t0
            total_agree += agree
            total += samples
            print(
                f"n={n} p={p}: {agree}/{samples} agree, {pbw_true} PBW-true  [{dt:.2f}s]"
            )
    print(f"overall: {total_agree}/{total} agree")
    return 0 if total_agree == total else 1


if __name__ == "__main__":
    raise SystemExit(main())
