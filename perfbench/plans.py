"""The three benchmark workloads: their inputs, command rounds and known answers.

A plan is a list of rounds; a round is a fixed sequence of `dhecke` commands,
each with the answer it must give.  Every round of a workload has the same
composition, so round wall times are comparable within and across runs.

Why these workloads (see NOTES.md for the measurements behind them):

- verdict-s5: both verdicts on seeded S_5 mu-family pairs (all PBW, so
  every instance is swept).  The |G|^2 n loops of condition (1) and of the
  group-group-var overlaps dominate; a group-layer optimisation shows here.
- crossval-small: `crossval --n 3` cells over Q, F_3, F_5 and F_7.  The
  group is tiny and two thirds of the samples are refuted early, so per-sample
  fixed costs (generation, object construction, scalar arithmetic) dominate;
  a group-layer change should predict no gain here.
- reduce-deep: a fixed ladder of deep `normal-form` reductions plus
  `convert` certificates on the fixtures.  Few, very long reductions; the
  only workload that runs matrix groups and characteristic 2.

Everything here except the constants imports `dhecke`, so only the set-up
worker process calls it.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from pathlib import Path

WORKLOADS = ("verdict-s5", "crossval-small", "reduce-deep")

# (fixture, word): reversed high-degree words over the confluent fixtures.
LADDER = (
    ("example_1_1_n3", "v3^3 v2^3 v1^3"),
    ("example_1_1_n4", "v4^2 v3^2 v2^2 v1^2"),
    ("example_3_4", "v4^3 v3^3 v2^3 v1^3"),
    ("example_4_3", "v2^5 v1^5"),
    ("example_4_3", "M[[1,1],[0,1]] v2^4 v1^4"),
)
TOY_LADDER = (
    ("example_1_1_n3", "v3 v2 v1"),
    ("example_4_3", "v2^2 v1^2"),
    ("example_4_3", "M[[1,1],[0,1]] v2 v1"),
)
# The nonmodular fixtures; example_4_3 (|G| = 2 in characteristic 2) is modular.
CERTIFICATES = ("example_1_1_n3", "example_1_1_n4", "example_3_4", "golden_rule", "s8_n2_family")
TOY_CERTIFICATES = ("s8_n2_family", "golden_rule")

CROSSVAL_CHARS = (0, 3, 5, 7)
PROFILES = ("general", "mu-family", "perturbed-mu")

# Distinct rounds generated per run; a run that needs more rounds cycles them.
ROUNDS = {"verdict-s5": 2, "crossval-small": 4, "reduce-deep": 2}


def expected_name(fixture: str, word: str) -> str:
    """File under perfbench/expected/ holding the normal form's stdout."""
    slug = re.sub(r"[^A-Za-z0-9]+", "_", word).strip("_")
    return f"{fixture}__{slug}.txt"


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _verdict_s5(seed: int, toy: bool, workdir: Path) -> list[list[dict]]:
    from dhecke import FieldSpec, params_to_json, random_params

    n = 3 if toy else 5
    fs = FieldSpec(5)
    rounds = []
    for r in range(ROUNDS["verdict-s5"]):
        lam, kappa = random_params(n, fs, seed=seed * 1000 + r, profile="mu-family")
        name = f"pair{r}.json"
        _write_json(workdir / name, params_to_json(lam, kappa))
        rounds.append(
            [
                {
                    "kind": f"check_{method}",
                    "argv": ["check", "--input", name, "--method", method, "--out", "report.json"],
                    "expect": {"exit": 0, "pbw": True, "out": "report.json"},
                }
                for method in ("conditions", "confluence")
            ]
        )
    return rounds


def _crossval_small(seed: int, toy: bool, workdir: Path) -> list[list[dict]]:
    samples = 6 if toy else 90
    per_profile = {p: len(range(i, samples, 3)) for i, p in enumerate(PROFILES)}
    rounds = []
    for r in range(ROUNDS["crossval-small"]):
        base = (seed * 16 + r) * 1000
        rounds.append(
            [
                {
                    "kind": "crossval",
                    "argv": [
                        "crossval", "--n", "3", "--char", str(p), "--samples", str(samples),
                        "--seed", str(base), "--out", "crossval.json",
                    ],
                    # Known answers: mu-family pairs are PBW and perturbed-mu
                    # pairs at n = 3 are not; "general" pairs may go either way.
                    "expect": {
                        "exit": 0,
                        "out": "crossval.json",
                        "samples": samples,
                        "profiles": per_profile,
                        "min_true": per_profile["mu-family"],
                        "min_false": per_profile["perturbed-mu"],
                    },
                }
                for p in CROSSVAL_CHARS
            ]
        )
    return rounds


def _reduce_deep(seed: int, toy: bool, workdir: Path, fixtures: Path) -> list[list[dict]]:
    ladder = TOY_LADDER if toy else LADDER
    certificates = TOY_CERTIFICATES if toy else CERTIFICATES
    for name in {f for f, _ in ladder} | set(certificates):
        shutil.copyfile(fixtures / f"{name}.json", workdir / f"{name}.json")
    commands = [
        {
            "kind": "normal_form",
            "argv": ["normal-form", "--input", f"{fixture}.json", "--word", word],
            "expect": {"exit": 0, "stdout": expected_name(fixture, word)},
        }
        for fixture, word in ladder
    ] + [
        {
            "kind": "convert",
            "argv": ["convert", "--input", f"{name}.json", "--degree", "3", "--out", "converted.json"],
            "expect": {"exit": 0, "verified": True, "out": "converted.json.cert.json"},
        }
        for name in certificates
    ]
    rounds = []
    for r in range(ROUNDS["reduce-deep"]):
        order = list(commands)
        random.Random(f"reduce-deep|seed={seed}|round={r}").shuffle(order)
        rounds.append(order)
    return rounds


def make_plan(workload: str, seed: int, toy: bool, workdir: Path, fixtures: Path) -> dict:
    """Write the workload's input files to workdir and return its rounds."""
    if workload == "verdict-s5":
        rounds = _verdict_s5(seed, toy, workdir)
    elif workload == "crossval-small":
        rounds = _crossval_small(seed, toy, workdir)
    elif workload == "reduce-deep":
        rounds = _reduce_deep(seed, toy, workdir, fixtures)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "toy": toy, "rounds": rounds}
