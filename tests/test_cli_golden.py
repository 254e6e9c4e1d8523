"""Pinned CLI bytes: stdout, stderr, exit code and every file a command writes.

Each case runs `dhecke.cli.main` in one scratch directory that holds the
fixtures and the inputs generated below, and compares what it printed,
returned and wrote with tests/golden/cli.json.  Every "timing_ms" value is
replaced by 0 first; inputs are passed by bare file name, so no path needs
normalising.  The generated inputs are compared too.

The cases cover `check --method both` on the fixtures and on pairs whose
first failing condition is each of (1)-(5), so that every overlap family
appears as a confluence witness; `extract` on the S_n fixtures; `convert
--out` with its certificate; `build`; and `normal-form --out` on short
ladder words.  The inputs over Q carry non-integer coefficients, so their
witnesses, `gamma` and normal forms do too.  In characteristic 2 they pin
the verdicts (`check` with `--method confluence` and `both`, `crossval`),
`build`, and the two operations that still refuse it: `build --char 2`
without `--force-char2`, and `extract`, whose mu extraction divides by 4.

After an intended change of output, rewrite the expectations with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from dhecke import FieldSpec, build_H_mu, mu_from_json, params_to_json, random_params
from dhecke.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden" / "cli.json"

FIXTURE_NAMES = (
    "example_1_1_n3", "example_1_1_n4", "example_3_4", "example_4_3", "golden_rule", "s8_n2_family",
)

# (profile, n, p, seed) for `random_params`; the comment gives the first failing
# condition and the confluence witness's overlap family.
SEEDED = (
    ("general", 3, 0, 0),  # (1), group-group-var
    ("general", 3, 7, 1),
    ("perturbed-mu", 3, 0, 2),  # (2), group-var-var
    ("perturbed-mu", 3, 5, 4),
    ("perturbed-mu", 4, 3, 0),
    ("mu-family", 3, 3, 0),  # PBW
    ("mu-family", 4, 7, 1),  # PBW
)


def _term(g, coeff):
    return {"g": g, "coeff": coeff}


_I2, _MINUS_I2 = ["1", "0", "0", "1"], ["4", "0", "0", "4"]
_I3, _MINUS_I3 = ["1", "0", "0", "0", "1", "0", "0", "0", "1"], ["4", "0", "0", "0", "4", "0", "0", "0", "4"]
_T, _T2 = ["1", "1", "0", "0", "1", "0", "0", "0", "1"], ["1", "2", "0", "0", "1", "0", "0", "0", "1"]

# Hand-made pairs whose first failure is condition (3), (4) or (5).
HAND = {
    # G = {1, -1} on F_5^2: (1) holds for any lambda(-1, .), but lambda(-1, v_1) = 1 breaks (3);
    # the confluence witness is a group-var-var overlap.
    "cond3_first": {
        "characteristic": 5, "n": 2, "group": {"type": "matrix", "generators": [_MINUS_I2]},
        "lambda": [{"g": _MINUS_I2, "i": 1, "value": [_term(_I2, "1")]}], "kappa": [],
    },
    # G = {1, -1} on F_5^3 with lambda = 0: kappa(v_1, v_2) = -1 is invariant but breaks (4);
    # the confluence witness is a var-var-var overlap.
    "cond4_first": {
        "characteristic": 5, "n": 3, "group": {"type": "matrix", "generators": [_MINUS_I3]},
        "lambda": [], "kappa": [{"i": 1, "j": 2, "value": [_term(_MINUS_I3, "1")]}],
    },
    # The transvection group Z/3 on F_3^3 (modular): (1)-(4) hold and (5) fails.
    "cond5_first": {
        "characteristic": 3, "n": 3, "group": {"type": "matrix", "generators": [_T]},
        "lambda": [
            {"g": _T, "i": 3, "value": [_term(_T, "1")]},
            {"g": _T2, "i": 3, "value": [_term(_T2, "2")]},
        ],
        "kappa": [
            {"i": 1, "j": 2, "value": [_term(_I3, "2"), _term(_T, "1"), _term(_T2, "1")]},
            {"i": 2, "j": 3, "value": [_term(_T2, "2")]},
        ],
    },
}

# A mu over Q with non-integer entries, and its expansion with one kappa term bumped by 1/7.
Q_MU = {"characteristic": 0, "n": 3, "a": {"2,3": "1/3", "1,2": "-2"}, "b": ["1", "-1/2"], "c": "2/5"}

# Mu files with integer entries, so that they also make sense in characteristic 2.
CHAR2_MU = {"characteristic": 2, "n": 3, "a": {"1,2": 1, "2,3": "3"}, "b": [1, "0"], "c": "1"}
INT_MU = {"characteristic": 0, "n": 3, "a": {"1,3": "-1"}, "b": ["2", "1"], "c": 5}


def _seeded_name(profile: str, n: int, p: int, seed: int) -> str:
    return f"{profile}_n{n}_p{p}_s{seed}.json"


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def generated_inputs() -> dict[str, str]:
    """The inputs made here rather than read from fixtures/, by file name."""
    out = {}
    for profile, n, p, seed in SEEDED:
        lam, kappa = random_params(n, FieldSpec(p), seed=seed, profile=profile)
        out[_seeded_name(profile, n, p, seed)] = _dump(params_to_json(lam, kappa))
    for name, data in HAND.items():
        out[f"{name}.json"] = _dump(data)
    out["q.mu.json"] = _dump(Q_MU)
    q = params_to_json(*build_H_mu(mu_from_json(Q_MU)))
    out["q_mu.json"] = _dump(q)
    bad = json.loads(json.dumps(q))
    bad["kappa"][0]["value"].append(_term([2, 1, 3], "1/7"))
    out["q_bad.json"] = _dump(bad)
    out["char2.mu.json"] = _dump(CHAR2_MU)
    out["char2_mu.json"] = _dump(params_to_json(*build_H_mu(mu_from_json(CHAR2_MU))))
    out["int.mu.json"] = _dump(INT_MU)
    return out


def cases() -> dict[str, list[str]]:
    """Case id -> argv; each --out names a file no other case writes."""
    out: dict[str, list[str]] = {}
    checked = [f for f in FIXTURE_NAMES if f != "example_4_3"]
    checked += [_seeded_name(*s)[: -len(".json")] for s in SEEDED]
    checked += list(HAND) + ["q_mu", "q_bad"]
    for name in checked:
        out[f"check/{name}"] = ["check", "--input", f"{name}.json", "--method", "both", "--out", f"check_{name}.out.json"]
    out["check/example_4_3"] = ["check", "--input", "example_4_3.json", "--method", "confluence", "--out", "check_example_4_3.out.json"]
    out["check-stdout/q_bad"] = ["check", "--input", "q_bad.json", "--method", "conditions"]
    for name in ("example_1_1_n3", "example_1_1_n4", "example_3_4", "golden_rule", "s8_n2_family", "q_mu", "mu-family_n4_p7_s1"):
        out[f"extract/{name}"] = ["extract", "--input", f"{name}.json", "--out", f"extract_{name}.out.json"]
    for name in ("example_1_1_n3", "example_1_1_n4", "example_3_4", "golden_rule", "s8_n2_family", "q_mu", "example_4_3"):
        out[f"convert/{name}"] = ["convert", "--input", f"{name}.json", "--out", f"convert_{name}.out.json"]
    out["convert-stdout/golden_rule"] = ["convert", "--input", "golden_rule.json", "--degree", "2"]
    out["build/q"] = ["build", "--mu", "q.mu.json", "--out", "build_q.out.json"]
    out["build/q-char7"] = ["build", "--mu", "q.mu.json", "--char", "7", "--out", "build_q7.out.json"]
    out["build/char2"] = ["build", "--mu", "char2.mu.json", "--out", "build_char2.out.json"]
    out["build/int-char2-refused"] = ["build", "--mu", "int.mu.json", "--char", "2", "--out", "build_int2_refused.out.json"]
    out["build/int-char2-forced"] = ["build", "--mu", "int.mu.json", "--char", "2", "--force-char2", "--out", "build_int2.out.json"]
    out["check/char2_mu/confluence"] = ["check", "--input", "char2_mu.json", "--method", "confluence", "--out", "check_char2_mu_confluence.out.json"]
    out["check/char2_mu/both"] = ["check", "--input", "char2_mu.json", "--method", "both", "--out", "check_char2_mu_both.out.json"]
    out["extract/char2_mu"] = ["extract", "--input", "char2_mu.json", "--out", "extract_char2_mu.out.json"]
    out["crossval/char2"] = ["crossval", "--n", "3", "--char", "2", "--samples", "1"]
    words = (
        ("example_1_1_n3", "v3 v2 v1"),
        ("example_4_3", "v2^2 v1^2"),
        ("example_4_3", "M[[1,1],[0,1]] v2 v1"),
        ("q_mu", "1/2 v3 v2 v1 - 2/3 g[2,1,3] v1"),
    )
    for k, (name, word) in enumerate(words):
        out[f"normal-form/{name}/{k}"] = ["normal-form", "--input", f"{name}.json", "--word", word, "--out", f"nf_{k}.out.json"]
    return out


_TIMING = re.compile(r'("timing_ms": )[-+0-9.eE]+')


def _normalise(text: str) -> str:
    return _TIMING.sub(r"\g<1>0", text)


def run_case(argv: list[str], workdir: Path) -> dict:
    """Exit code, stdout, stderr and the files named by --out, normalised."""
    stdout, stderr = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(old)
    files = {}
    if "--out" in argv:
        name = argv[argv.index("--out") + 1]
        for path in (name, name + ".cert.json"):
            if (workdir / path).exists():
                files[path] = _normalise((workdir / path).read_text(encoding="utf-8"))
    return {
        "argv": argv,
        "exit": code,
        "stdout": _normalise(stdout.getvalue()),
        "stderr": stderr.getvalue(),
        "files": files,
    }


def make_workdir(path: Path) -> dict[str, str]:
    for name in FIXTURE_NAMES:
        shutil.copyfile(FIXTURES / f"{name}.json", path / f"{name}.json")
    inputs = generated_inputs()
    for name, text in inputs.items():
        (path / name).write_text(text, encoding="utf-8")
    return inputs


def write_expectations() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        inputs = make_workdir(workdir)
        golden = {
            "inputs": inputs,
            "cases": {cid: run_case(argv, workdir) for cid, argv in cases().items()},
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_golden")
    make_workdir(path)
    return path


def test_generated_inputs_are_pinned(golden):
    assert generated_inputs() == golden["inputs"]


@pytest.mark.parametrize("case_id", list(cases()))
def test_cli_bytes_are_pinned(case_id, golden, workdir):
    assert run_case(cases()[case_id], workdir) == golden["cases"][case_id]


if __name__ == "__main__":
    sys.exit(write_expectations())
