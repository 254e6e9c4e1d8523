"""Tests of the benchmark itself: its description, its oracle and its self-check.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import plans  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_describes_what_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(plans.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_every_ladder_word_has_an_expected_normal_form():
    for fixture, word in plans.LADDER + plans.TOY_LADDER:
        assert (run.EXPECTED / plans.expected_name(fixture, word)).is_file()


def _done(returncode=0, stdout=b""):
    return subprocess.CompletedProcess([], returncode, stdout, b"engine said no\n")


def test_oracle_rejects_wrong_outputs(tmp_path):
    fixture, word = plans.TOY_LADDER[0]
    expected = plans.expected_name(fixture, word)
    nf = {"kind": "normal_form", "argv": [], "expect": {"exit": 0, "stdout": expected}}
    good = (run.EXPECTED / expected).read_bytes()
    assert run.check_output(nf, _done(stdout=good), tmp_path) is None
    assert "differs" in run.check_output(nf, _done(stdout=good + b"x"), tmp_path)
    assert "exit code 2" in run.check_output(nf, _done(returncode=2, stdout=good), tmp_path)

    check = {"kind": "check_confluence", "argv": [], "expect": {"exit": 0, "pbw": True, "out": "r.json"}}
    assert "unreadable" in run.check_output(check, _done(), tmp_path)
    (tmp_path / "r.json").write_text(json.dumps({"pbw": True, "confluence": {"pbw": False}}))
    assert "known answer" in run.check_output(check, _done(), tmp_path)
    (tmp_path / "r.json").write_text(json.dumps({"pbw": True, "confluence": {"pbw": True}}))
    assert run.check_output(check, _done(), tmp_path) is None

    cert = {"kind": "convert", "argv": [], "expect": {"exit": 0, "verified": True, "out": "c.json"}}
    (tmp_path / "c.json").write_text(json.dumps({"verified": True, "degree": 3, "checks": {"a": True, "b": False}}))
    assert "not verified" in run.check_output(cert, _done(), tmp_path)

    cell = plans.make_plan("crossval-small", 1, True, tmp_path, ROOT / "fixtures")["rounds"][0][0]
    report = {
        "all_agree": True, "mismatches": [], "samples": 6, "profiles": cell["expect"]["profiles"],
        "agreement_matrix": {"true/true": 1, "false/false": 5, "true/false": 0, "false/true": 0},
    }
    (tmp_path / "crossval.json").write_text(json.dumps(report))
    assert "known" in run.check_output(cell, _done(), tmp_path)  # two mu-family samples must be PBW
    report["agreement_matrix"].update({"true/true": 2, "false/false": 4})
    (tmp_path / "crossval.json").write_text(json.dumps(report))
    assert run.check_output(cell, _done(), tmp_path) is None


def test_self_check_runs_every_workload_at_toy_size():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--self-check"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "self-check: ok"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verdict-s5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
