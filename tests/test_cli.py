from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

from dhecke.cli import main

from conftest import FIXTURES


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_timing(text: str) -> str:
    return re.sub(r'"timing_ms": [0-9.e+-]+', '"timing_ms": 0', text)


def test_check_unit_block_both(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out = run(
        capsys,
        "check",
        "--input", str(FIXTURES / "example_1_1_n3.json"),
        "--method", "both",
        "--out", str(out_path),
    )
    assert code == 0
    assert "PBW: True/True, verdicts agree" in out
    report = json.loads(out_path.read_text())
    assert report["pbw"] is True and report["agree"] is True
    assert report["conditions"]["pbw"] is True
    assert report["confluence"]["pbw"] is True


def test_check_exit_codes_match_library(capsys, tmp_path):
    for name in ("example_1_1_n4.json", "example_3_4.json", "golden_rule.json", "s8_n2_family.json"):
        code, _ = run(capsys, "check", "--input", str(FIXTURES / name), "--method", "both")
        assert code == 0, name


def test_check_negative_verdict(capsys, tmp_path):
    # lambda = 0 with a non-invariant kappa: condition (2) fails
    bad = {
        "characteristic": 5,
        "n": 3,
        "group": {"type": "symmetric_permutation", "n": 3},
        "lambda": [],
        "kappa": [{"i": 1, "j": 2, "value": [{"g": [1, 2, 3], "coeff": "1"}]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out_path = tmp_path / "report.json"
    code, out = run(capsys, "check", "--input", str(path), "--method", "conditions", "--out", str(out_path))
    assert code == 1
    report = json.loads(out_path.read_text())
    assert report["conditions"]["conditions"]["2"] is False
    assert report["conditions"]["witness"]["condition"] == 2


def test_check_char2_conditions_verdict(capsys):
    code, out = run(
        capsys, "check", "--input", str(FIXTURES / "example_4_3.json"), "--method", "conditions"
    )
    assert code == 0
    assert "PBW (conditions): True" in out


def test_check_char2_confluence_passes(capsys):
    code, out = run(
        capsys, "check", "--input", str(FIXTURES / "example_4_3.json"), "--method", "confluence"
    )
    assert code == 0
    assert "True" in out


def test_check_char2_both_verdicts_agree(capsys):
    code, out = run(
        capsys, "check", "--input", str(FIXTURES / "example_4_3.json"), "--method", "both"
    )
    assert code == 0
    assert "PBW: True/True, verdicts agree" in out


def test_check_missing_file_exit2(capsys):
    code, _ = run(capsys, "check", "--input", "/nonexistent.json")
    assert code == 2


def test_extract_then_build_round_trip(capsys, tmp_path):
    mu_path = tmp_path / "mu.json"
    code, _ = run(
        capsys, "extract", "--input", str(FIXTURES / "example_1_1_n3.json"), "--out", str(mu_path)
    )
    assert code == 0
    rebuilt = tmp_path / "rebuilt.json"
    code, _ = run(capsys, "build", "--mu", str(mu_path), "--out", str(rebuilt))
    assert code == 0
    original = json.loads((FIXTURES / "example_1_1_n3.json").read_text())
    assert json.loads(rebuilt.read_text()) == original
    # byte-identical after one canonicalizing rewrite
    assert rebuilt.read_text() == json.dumps(original, indent=2, sort_keys=True) + "\n"


def test_build_zero_mu(capsys, tmp_path):
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(json.dumps({"characteristic": 5, "n": 3, "a": {}, "b": ["0", "0"], "c": "0"}))
    out = tmp_path / "params.json"
    code, _ = run(capsys, "build", "--mu", str(mu_path), "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert all(not e["value"] for e in data["lambda"])
    assert all(not e["value"] for e in data["kappa"])


def test_build_with_flag_overrides(capsys, tmp_path):
    # a bare mu file: dimension comes from the b-length, field from --char
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(json.dumps({"a": {"1,2": "1"}, "b": ["1", "0"], "c": "2"}))
    out = tmp_path / "params.json"
    code, _ = run(capsys, "build", "--mu", str(mu_path), "--char", "7", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["characteristic"] == 7 and data["n"] == 3


def test_extract_round_trip_random_mu(capsys, tmp_path):
    from dhecke import FieldSpec, params_to_json, random_params
    from dhecke.classify import extract_mu, mu_to_json

    lam, kap = random_params(3, FieldSpec(5), seed=42, profile="mu-family")
    src = tmp_path / "params.json"
    src.write_text(json.dumps(params_to_json(lam, kap), indent=2, sort_keys=True))
    mu_path = tmp_path / "mu.json"
    code, _ = run(capsys, "extract", "--input", str(src), "--out", str(mu_path))
    assert code == 0
    assert json.loads(mu_path.read_text()) == mu_to_json(extract_mu(lam, kap))


def test_extract_refuses_non_pbw(capsys, tmp_path):
    bad = {
        "characteristic": 5,
        "n": 3,
        "group": {"type": "symmetric_permutation", "n": 3},
        "lambda": [],
        "kappa": [{"i": 1, "j": 2, "value": [{"g": [1, 2, 3], "coeff": "1"}]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "extract", "--input", str(path), "--out", str(tmp_path / "mu.json"))
    assert code == 1
    assert "not PBW" in out


def test_normal_form_output(capsys):
    code, out = run(
        capsys,
        "normal-form",
        "--input", str(FIXTURES / "golden_rule.json"),
        "--word", "g[2,1,3] v1",
    )
    assert code == 0
    assert out.strip() == "v2·g[2,1,3] + g[2,1,3]"


def test_normal_form_bad_word_exit2(capsys):
    for fixture, word in (
        ("golden_rule.json", "xyz"),
        ("example_4_3.json", "M[[1,x],[0,1]] v1"),  # an entry that is not a scalar
        ("example_4_3.json", "M[[1,1],[1,1]] v1"),  # a singular matrix
    ):
        code = main(["normal-form", "--input", str(FIXTURES / fixture), "--word", word])
        err = assert_one_line_error(capsys, code)
        assert word.split()[0] in err


@pytest.mark.parametrize(
    "fixture, word",
    [
        ("example_4_3.json", "M[[1/2,0],[0,1]] v1"),  # an entry whose denominator vanishes mod 2
        ("example_1_1_n3.json", "1/5 v1"),  # a scalar whose denominator vanishes mod 5
    ],
)
def test_normal_form_modular_token_names_it(capsys, fixture, word):
    code = main(["normal-form", "--input", str(FIXTURES / fixture), "--word", word])
    err = assert_one_line_error(capsys, code)
    # The token heads the message; "denominator of 1/5" alone would not name it.
    assert err.startswith("modular obstruction: ") and f"{word.split()[0]}: denominator" in err


def test_normal_form_huge_power_exit2(capsys):
    """A power past the word-length bound is refused before it is expanded."""
    started = time.perf_counter()
    code = main(["normal-form", "--input", str(FIXTURES / "golden_rule.json"), "--word", "v1^1000000000"])
    assert time.perf_counter() - started < 5
    err = assert_one_line_error(capsys, code)
    assert "v1^1000000000" in err


def test_convert_certificate(capsys, tmp_path):
    out = tmp_path / "converted.json"
    code, msg = run(
        capsys,
        "convert",
        "--input", str(FIXTURES / "golden_rule.json"),
        "--degree", "3",
        "--out", str(out),
    )
    assert code == 0
    assert "verified" in msg
    cert = json.loads((tmp_path / "converted.json.cert.json").read_text())
    assert cert["verified"] is True
    assert cert["degree"] == 3
    assert set(cert["checks"]) == {"commutator_relations", "group_relations", "filtered_dimensions"}
    converted = json.loads(out.read_text())
    assert all(not e["value"] for e in converted["lambda"])


def test_convert_degree_does_no_work(capsys, tmp_path):
    """The certificate at degree 10^6 is the degree-3 one apart from "degree", and is as fast."""
    certs = {}
    for degree in ("3", "1000000"):
        out = tmp_path / f"converted_{degree}.json"
        started = time.perf_counter()
        argv = ["convert", "--input", str(FIXTURES / "golden_rule.json"), "--degree", degree, "--out", str(out)]
        code, _ = run(capsys, *argv)
        assert code == 0
        assert time.perf_counter() - started < 2
        certs[degree] = json.loads((tmp_path / f"converted_{degree}.json.cert.json").read_text())
    assert certs["1000000"].pop("degree") == 1000000
    assert certs["3"].pop("degree") == 3
    assert certs["1000000"] == certs["3"]


def test_convert_modular_exit2(capsys, tmp_path):
    from dhecke import FieldSpec, golden_rule, params_to_json

    lam, kap = golden_rule(3, FieldSpec(3))
    src = tmp_path / "p3.json"
    src.write_text(json.dumps(params_to_json(lam, kap)))
    code, _ = run(capsys, "convert", "--input", str(src), "--out", str(tmp_path / "c.json"))
    assert code == 2


def test_crossval(capsys, tmp_path):
    out = tmp_path / "cv.json"
    code, msg = run(
        capsys,
        "crossval",
        "--n", "3", "--char", "5", "--samples", "9", "--seed", "7",
        "--out", str(out),
    )
    assert code == 0
    assert "9/9 agreement" in msg
    report = json.loads(out.read_text())
    assert report["all_agree"] is True
    assert sum(report["agreement_matrix"].values()) == 9
    assert report["agreement_matrix"]["true/false"] == 0
    assert report["agreement_matrix"]["false/true"] == 0


def test_report_determinism(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _ = run(
            capsys,
            "check",
            "--input", str(FIXTURES / "example_1_1_n3.json"),
            "--method", "both",
            "--out", str(path),
        )
        assert code == 0
    assert strip_timing(a.read_text()) == strip_timing(b.read_text())
    c = tmp_path / "c.json"
    d = tmp_path / "d.json"
    for path in (c, d):
        run(capsys, "crossval", "--n", "3", "--char", "5", "--samples", "6", "--seed", "3",
            "--out", str(path))
    assert c.read_text() == d.read_text()


def test_cli_matches_library_verdicts(capsys, tmp_path):
    from dhecke import RewriteSystem, check_pbw, params_from_json

    for name in ("example_1_1_n3.json", "example_3_4.json"):
        data = json.loads((FIXTURES / name).read_text())
        lam, kap = params_from_json(data)
        lib_verdict = check_pbw(lam, kap).pbw and RewriteSystem(lam, kap).check_confluence()[0]
        code, _ = run(capsys, "check", "--input", str(FIXTURES / name), "--method", "both")
        assert (code == 0) == lib_verdict


def test_step_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("DHA_STEP_BUDGET", "1")
    code, _ = run(
        capsys,
        "normal-form",
        "--input", str(FIXTURES / "example_1_1_n3.json"),
        "--word", "v3 v2 v1",
    )
    assert code == 2
    for raw in ("abc", "-3", "0", "+3", "٣", "0_3"):
        monkeypatch.setenv("DHA_STEP_BUDGET", raw)
        code = main(["normal-form", "--input", str(FIXTURES / "example_1_1_n3.json"), "--word", "v3 v2 v1"])
        err = assert_one_line_error(capsys, code)
        assert "DHA_STEP_BUDGET" in err and repr(raw) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["crossval", "--n", "3", "--char", "5", "--samples", "2"],
        ["normal-form", "--input", "{missing}", "--word", "v2 v1"],
        ["check", "--input", "{missing}", "--method", "confluence"],
    ],
)
def test_step_budget_read_before_any_work(capsys, monkeypatch, tmp_path, argv):
    """A bad DHA_STEP_BUDGET is refused before a crossval sample is generated or a file is read."""
    import dhecke.cli

    def fail(*args, **kwargs):
        raise AssertionError("a crossval sample was generated")

    monkeypatch.setattr(dhecke.cli, "random_params", fail)
    monkeypatch.setenv("DHA_STEP_BUDGET", "abc")
    code = main([a.replace("{missing}", str(tmp_path / "missing.json")) for a in argv])
    err = assert_one_line_error(capsys, code)
    assert err.startswith("invalid input:") and "DHA_STEP_BUDGET" in err


@pytest.mark.parametrize("data", [b"", b'{"characteristic": 5, "n": 3, "group": {"type": ', b"\xff\xfe"])
@pytest.mark.parametrize("command", ["check", "build"])
def test_malformed_json_names_the_file(capsys, tmp_path, command, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    flag = "--mu" if command == "build" else "--input"
    err = assert_one_line_error(capsys, main([command, flag, str(path)]))
    assert err.startswith("input error:") and repr(str(path)) in err


def test_step_budget_message_names_the_input(capsys, monkeypatch):
    monkeypatch.setenv("DHA_STEP_BUDGET", "1")
    code = main(["normal-form", "--input", str(FIXTURES / "example_1_1_n3.json"), "--word", "v3 v2\nv1"])
    err = assert_one_line_error(capsys, code)
    assert err.startswith("step budget exceeded:") and "--word 'v3 v2\\nv1'" in err
    code = main(["check", "--input", str(FIXTURES / "example_1_1_n3.json"), "--method", "confluence"])
    err = assert_one_line_error(capsys, code)
    assert "while resolving the group-group-var overlap g[" in err


def assert_one_line_error(capsys, code: int) -> str:
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "fixture, word",
    [
        ("golden_rule.json", "g[2,1] v1"),  # a permutation of the wrong size
        ("golden_rule.json", "g[2,1] v3"),
        ("golden_rule.json", "M[[1,1],[0,1]] v1"),  # a matrix in a permutation group
        ("example_4_3.json", "M[[1,0],[1,1]] v1"),  # a matrix outside the group
    ],
)
def test_normal_form_group_token_outside_group_exit2(capsys, fixture, word):
    code = main(["normal-form", "--input", str(FIXTURES / fixture), "--word", word])
    err = assert_one_line_error(capsys, code)
    assert word.split()[0] in err


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"characteristic": 5}, "'n'"),
        ([5, 3], "JSON object"),
        ({"characteristic": "five", "n": 3}, "'characteristic'"),
        ({"characteristic": 5, "n": 3, "group": {"type": "symmetric_permutation"}}, "'n'"),
        (
            {"characteristic": 5, "n": 3, "group": {"type": "symmetric_permutation", "n": 3},
             "lambda": [{"g": [1, 2, 3], "value": []}]},
            "lambda entry 0 is missing the field 'i'",
        ),
        (
            {"characteristic": 5, "n": 3, "group": {"type": "symmetric_permutation", "n": 3},
             "kappa": [{"i": 1, "j": 2, "value": [{"g": [1, 2, 3], "coeff": None}]}]},
            "'coeff'",
        ),
        (
            {"characteristic": 5, "n": 3, "group": {"type": "symmetric_permutation", "n": 3},
             "kappa": [{"i": 1, "j": 2, "value": [{"g": [1, 2, 3], "coeff": "x"}]}]},
            "kappa entry 0 value term 0 field 'coeff'",
        ),
        (  # a denominator that vanishes in the field
            {"characteristic": 5, "n": 3, "group": {"type": "symmetric_permutation", "n": 3},
             "kappa": [{"i": 1, "j": 2, "value": [{"g": [1, 2, 3], "coeff": "1/5"}]}]},
            "kappa entry 0 value term 0 field 'coeff'",
        ),
        (
            {"characteristic": 5, "n": 2, "group": {"type": "matrix", "generators": [["4", "0", "0", "y"]]}},
            "group generator 0 entry 3",
        ),
        (  # an index out of range is refused even when the value is empty
            {"characteristic": 5, "n": 3, "group": {"type": "symmetric_permutation", "n": 3},
             "lambda": [{"g": [1, 2, 3], "i": 9, "value": []}]},
            "lambda entry 0 field 'i'",
        ),
        (
            {"characteristic": 5, "n": 3, "group": {"type": "symmetric_permutation", "n": 3},
             "kappa": [{"i": 1, "j": 4, "value": []}]},
            "kappa entry 0",
        ),
        ({"characteristic": "+-5", "n": 3}, "'characteristic'"),
        (  # no dimension below 1, not even with a 0 x 0 matrix group
            {"characteristic": 5, "n": 0, "group": {"type": "matrix", "generators": [[]]}},
            "parameter file field 'n'",
        ),
        ({"characteristic": 5, "n": -1, "group": {"type": "symmetric_permutation", "n": -1}},
         "parameter file field 'n'"),
        (  # a singular matrix from a file is refused, although products skip the check
            {"characteristic": 5, "n": 2, "group": {"type": "matrix", "generators": [["1", "2", "2", "4"]]}},
            "group generator 0: matrix is singular",
        ),
        # integers and scalars are read in ASCII digits, without underscores
        ({"characteristic": 5, "n": "0_3"}, "parameter file field 'n' must be an integer, got '0_3'"),
        ({"characteristic": "٧", "n": 3}, "parameter file field 'characteristic' must be an integer, got '٧'"),
        (
            {"characteristic": 5, "n": 3, "group": {"type": "symmetric_permutation", "n": 3},
             "kappa": [{"i": 1, "j": 2, "value": [{"g": [1, 2, 3], "coeff": "0_1"}]}]},
            "kappa entry 0 value term 0 field 'coeff' must be a scalar such as \"3\" or \"-1/2\", got '0_1'",
        ),
        (
            {"characteristic": 5, "n": 2, "group": {"type": "matrix", "generators": []}},
            "group field 'generators' must list at least one generator",
        ),
    ],
)
def test_check_malformed_params_exit2(capsys, tmp_path, payload, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = main(["check", "--input", str(path), "--method", "conditions"])
    err = assert_one_line_error(capsys, code)
    assert named in err


MALFORMED_MU = [  # (mu file, build flags, what the error names)
    ({"characteristic": 5, "n": 3, "b": 7}, [], "'b'"),
    ([1], [], "JSON object"),
    ({"characteristic": 5, "n": 3, "a": {"1;2": "1"}, "b": ["1", "1"], "c": "1"}, [], "field 'a' key '1;2'"),
    ({"characteristic": 5, "n": 3, "b": ["1", "x"], "c": "1"}, [], "field 'b' entry 1"),
    ({"characteristic": 5, "n": 3, "b": ["1", "1"], "c": "zz"}, [], "field 'c'"),
    ({"characteristic": 5, "n": 3, "a": {"1,9": "0"}, "b": ["1", "1"], "c": "1"}, [], "a-table key"),
    ({"characteristic": 5, "n": 4, "b": ["1"], "c": "1"}, [], "mu file field 'b' must hold n - 1 = 3 values (n = 4 from mu file field 'n')"),
    ({"characteristic": 5, "n": 3, "a": {"1,0_2": "1"}, "b": ["1", "1"], "c": "1"}, [], "field 'a' key '1,0_2' must be an integer, got '0_2'"),
    ({"characteristic": 5, "n": 3, "b": ["1", "1"], "c": "1"}, ["--char", "2"], "--char 2 requires --force-char2"),
    ({"characteristic": 5, "n": 3, "b": ["1", "1"], "c": "٣"}, [], "mu file field 'c' must be a scalar such as \"3\" or \"-1/2\", got '٣'"),
    ({"characteristic": 5, "n": 1, "b": [], "c": "1"}, [], "the mu tuple needs n > 2, got n = 1 from mu file field 'n'"),
    ({"characteristic": 5, "b": ["1"], "c": "1"}, [], "the mu tuple needs n > 2, got n = 2 from the length of mu file field 'b'"),
]


@pytest.mark.parametrize(
    "payload, flags, named",
    MALFORMED_MU,
    ids=[f"payload{k}-{named}" for k, (_, _, named) in enumerate(MALFORMED_MU)],
)
def test_build_malformed_mu_exit2(capsys, tmp_path, payload, flags, named):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(payload))
    code = main(["build", "--mu", str(path), *flags])
    err = assert_one_line_error(capsys, code)
    assert named in err


def test_check_group_too_large_refused_before_enumerating(capsys, tmp_path, monkeypatch):
    import dhecke.groups

    def fail(*args, **kwargs):
        raise AssertionError("GroupTable was called")

    monkeypatch.setattr(dhecke.groups, "GroupTable", fail)
    path = tmp_path / "s10.json"
    path.write_text(json.dumps({"characteristic": 5, "n": 10, "group": {"type": "symmetric_permutation", "n": 10}}))
    code = main(["check", "--input", str(path)])
    err = assert_one_line_error(capsys, code)
    assert "S_10" in err


@pytest.mark.parametrize("flag", ["--input", "--out"])
def test_check_directory_path_exit2(capsys, tmp_path, flag):
    paths = {"--input": str(FIXTURES / "golden_rule.json"), "--out": str(tmp_path / "report.json")}
    paths[flag] = str(tmp_path)
    code = main(["check", "--input", paths["--input"], "--method", "conditions", "--out", paths["--out"]])
    err = assert_one_line_error(capsys, code)
    assert str(tmp_path) in err


@pytest.mark.parametrize("command", ["check", "convert"])
def test_unwritable_out_is_an_output_error(capsys, tmp_path, command):
    out = str(tmp_path / "missing" / "r.json")
    code = main([command, "--input", str(FIXTURES / "golden_rule.json"), "--out", out])
    err = assert_one_line_error(capsys, code)
    assert err.startswith("output error:") and repr(out) in err


def _on_closed_stdout(argv, unbuffered=False):
    """Runs `python -m dhecke.cli ARGV` writing to a pipe whose read end is closed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(FIXTURES.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "dhecke.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, text=True
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_is_an_output_error(unbuffered):
    """A reader that is gone (as after `| head -c 1`) gets one output-error line, not an input error."""
    done = _on_closed_stdout(["crossval", "--n", "3", "--char", "5", "--samples", "3"], unbuffered)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["output error: standard output was closed"]


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_on_closed_stdout_is_an_output_error(argv, unbuffered):
    """--help writes before any command runs; a closed stdout still gives one output-error line.

    With buffered stdout the write fails only at the flush.
    """
    done = _on_closed_stdout(argv, unbuffered)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["output error: standard output was closed"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["convert", "--input", str(FIXTURES / "golden_rule.json"), "--degree", "-1"], "--degree"),
        (["crossval", "--n", "3", "--char", "5", "--samples", "0"], "--samples"),
        (["crossval", "--n", "3", "--char", "5", "--samples", "-2"], "--samples"),
        (["crossval", "--n", "2", "--char", "5", "--samples", "3"], "--n"),
        (["crossval", "--n", "1", "--char", "5", "--samples", "1"], "--n"),
        (["crossval", "--n", "8", "--char", "5", "--samples", "1"], "--n"),
        (["crossval", "--n", "9", "--char", "5", "--samples", "1"], "--n"),
    ],
)
def test_out_of_range_flag_exit2(capsys, monkeypatch, argv, flag):
    """Refused before any work: no crossval sample is generated."""
    import dhecke.cli

    def fail(*args, **kwargs):
        raise AssertionError("a crossval sample was generated")

    monkeypatch.setattr(dhecke.cli, "random_params", fail)
    err = assert_one_line_error(capsys, main(argv))
    assert flag in err


def test_crossval_char2_agrees(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["crossval", "--n", "3", "--char", "2", "--samples", "6", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "6/6 agreement (all agree)" in captured.out
    report = json.loads(out_path.read_text())
    assert report["characteristic"] == 2 and report["all_agree"] and not report["mismatches"]
    # crossval has no characteristic-2 flag: it is still an argparse error
    with pytest.raises(SystemExit) as exc:
        main(["crossval", "--n", "3", "--char", "2", "--force-char2"])
    assert exc.value.code == 2


INTEGER_FLAGS = [
    (["crossval", "--n", "3", "--char", "5", "--samples", "1", "--seed", "0"], "--n"),
    (["crossval", "--n", "3", "--char", "5", "--samples", "1", "--seed", "0"], "--char"),
    (["crossval", "--n", "3", "--char", "5", "--samples", "1", "--seed", "0"], "--samples"),
    (["crossval", "--n", "3", "--char", "5", "--samples", "1", "--seed", "0"], "--seed"),
    (["convert", "--input", "params.json", "--degree", "3"], "--degree"),
    (["build", "--mu", "mu.json", "--char", "5"], "--char"),
]


@pytest.mark.parametrize("value", ["٣", "0_5"], ids=["arabic-indic-digit", "underscore"])
@pytest.mark.parametrize("argv, flag", INTEGER_FLAGS, ids=[f"{a[0]}{f}" for a, f in INTEGER_FLAGS])
def test_integer_flags_take_ascii_digits_only(capsys, argv, flag, value):
    """Integer flags read the grammar of files and words: no other digits, no underscores."""
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert exc.value.code == 2
    assert errors == [f"dhecke {argv[0]}: error: argument {flag}: invalid integer value: {value!r}"]


ARGPARSE_REFUSALS = [
    (["check", "--input", "p.json", "--method", "fast"], "argument --method: invalid choice: 'fast'"),
    (["build", "--mu", "mu.json", "--char", "x"], "argument --char: invalid integer value: 'x'"),
    (["extract"], "the following arguments are required: --input"),
    (["normal-form", "--input", "p.json"], "the following arguments are required: --word"),
    (["convert", "--input", "p.json", "--certify"], "unrecognized arguments: --certify"),
    (["crossval", "--n", "٣", "--char", "5", "--samples", "1"], "argument --n: invalid integer value: '٣'"),
]


@pytest.mark.parametrize("argv, message", ARGPARSE_REFUSALS, ids=[a[0] for a, _ in ARGPARSE_REFUSALS])
def test_argparse_refusal_is_one_line(capsys, argv, message):
    """A bad flag value, a missing required flag or an unknown flag: one line naming the command, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = assert_one_line_error(capsys, exc.value.code)
    assert err.startswith(f"dhecke {argv[0]}: error: {message}")


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["--bogus", "check", "--input", "f.json"], "dhecke: error: unrecognized arguments: --bogus"),
        (["check", "--bogus", "--input", "f.json"], "dhecke check: error: unrecognized arguments: --bogus"),
        (["--bogus", "check", "--input", "f.json", "--more"], "dhecke: error: unrecognized arguments: --bogus --more"),
    ],
    ids=["before", "after", "both"],
)
def test_unknown_flag_is_refused_by_the_parser_it_precedes(capsys, argv, prefix):
    """An unknown flag before the command is the top-level parser's to refuse; after it, the command's."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = assert_one_line_error(capsys, exc.value.code)
    assert err.startswith(prefix)


def test_negative_seed_still_accepted(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["crossval", "--n", "3", "--char", "5", "--samples", "1", "--seed", "-3", "--out", str(out)])
    assert code == 0 and capsys.readouterr().err == ""
    assert json.loads(out.read_text())["seed"] == -3


PRIME_31_DIGITS = 10**30 + 57


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--input", "{params}"],
        ["crossval", "--n", "3", "--char", str(PRIME_31_DIGITS), "--samples", "1"],
        ["build", "--mu", "{mu}", "--char", str(PRIME_31_DIGITS)],
    ],
)
def test_huge_characteristic_refused_at_once(capsys, tmp_path, argv):
    """A characteristic past the exact primality bound exits 2, naming it, in well under a second."""
    files = {"{params}": tmp_path / "params.json", "{mu}": tmp_path / "mu.json"}
    group = {"type": "symmetric_permutation", "n": 3}
    files["{params}"].write_text(json.dumps({"characteristic": PRIME_31_DIGITS, "n": 3, "group": group}))
    files["{mu}"].write_text(json.dumps({"characteristic": 5, "n": 3, "b": ["1", "1"], "c": "1"}))
    t0 = time.perf_counter()
    code = main([str(files.get(a, a)) for a in argv])
    assert time.perf_counter() - t0 < 1.0
    err = assert_one_line_error(capsys, code)
    assert str(PRIME_31_DIGITS) in err


def test_infinite_matrix_group_over_q_refused_at_once(capsys, tmp_path):
    """[[1,1],[0,1]] has infinite order over Q: refused by name, not closed up to the cap."""
    path = tmp_path / "shear.json"
    group = {"type": "matrix", "generators": [["1", "1", "0", "1"]]}
    path.write_text(json.dumps({"characteristic": 0, "n": 2, "group": group}))
    t0 = time.perf_counter()
    code = main(["check", "--input", str(path)])
    assert time.perf_counter() - t0 < 1.0
    err = assert_one_line_error(capsys, code)
    assert "M[[1,1],[0,1]]" in err and "infinite" in err


def _fresh_python(code: str, *args: str) -> str:
    """Run `code` in a fresh interpreter without site and return its last line of output."""
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1]


# Runs dhecke.cli.main on its arguments (or only imports dhecke without any)
# and prints the dhecke modules that were loaded.
LOADED_MODULES = """
import sys
if sys.argv[1:]:
    import dhecke.cli
    assert dhecke.cli.main(sys.argv[1:]) == 0
else:
    import dhecke
print(" ".join(sorted(m.split(".")[1] for m in sys.modules if m.startswith("dhecke."))))
"""


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """`import dhecke.cli` stays off dataclasses and inspect, which every process would pay for.

    Each command loads only the engines it runs, and `import dhecke` loads none, nor
    `scalars` and the stdlib modules it brings (fractions, decimal), nor typing.
    """
    code = "import sys, dhecke.cli; print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    assert _fresh_python(code) == "[]"

    assert _fresh_python(LOADED_MODULES) == "convert"
    code = "import sys, dhecke; print([m for m in ('fractions', 'decimal', 'typing') if m in sys.modules])"
    assert _fresh_python(code) == "[]"
    params = str(FIXTURES / "example_1_1_n3.json")
    left_out = [
        (["normal-form", "--input", params, "--word", "v2 v1"], {"pbw", "classify"}),
        (["check", "--input", params, "--method", "confluence"], {"pbw", "classify"}),
        (["check", "--input", params, "--method", "conditions"], {"rewrite", "classify"}),
        (["convert", "--input", params], {"classify"}),
    ]
    for argv, absent in left_out:
        loaded = set(_fresh_python(LOADED_MODULES, *argv).split())
        assert "cli" in loaded and not loaded & absent, (argv, sorted(loaded))


PUBLIC_NAMES = [
    "AlgebraElement", "CharTwoUnsupported", "ConditionReport", "ConversionResult", "DistinctnessViolation",
    "FieldSpec", "GroupElement", "GroupTable", "KappaParam", "LambdaParam", "MatrixElement",
    "ModularObstruction", "MuParams", "NormalMonomial", "NotPBWInput", "Perm", "RewriteSystem", "Scalar",
    "StepBudgetExceeded", "Witness", "act_on_kappa", "act_on_lambda", "build_H_mu", "bump_c",
    "check_condition", "check_pbw", "convert", "diagnose_kappa_support", "diagnose_lambda", "extract_mu",
    "format_normal_form", "gamma", "golden_rule", "invariant_kappa_params", "is_pbw", "lemma_suite",
    "low_dim_family", "mu_from_json", "mu_to_json",
    "params_from_json", "params_to_json", "parse_word_sum", "random_params", "scale_params",
    "symmetric_group", "two_param_family", "verify_isomorphism",
]


def test_package_exports_resolve_to_their_modules():
    """The lazily bound names are the same 47 objects their modules define."""
    import importlib

    import dhecke

    assert dhecke.__all__ == PUBLIC_NAMES and len(PUBLIC_NAMES) == 47
    assert set(PUBLIC_NAMES) <= set(dir(dhecke))
    for name in PUBLIC_NAMES:
        module = importlib.import_module(f"dhecke.{dhecke._EXPORTS[name]}")
        assert getattr(dhecke, name) is getattr(module, name), name
    assert callable(dhecke.convert) and dhecke.convert.__module__ == "dhecke.convert"
    namespace: dict = {}
    exec("from dhecke import *", namespace)
    assert {name: namespace[name] for name in PUBLIC_NAMES} == {name: getattr(dhecke, name) for name in PUBLIC_NAMES}
    with pytest.raises(AttributeError, match="no_such_name"):
        dhecke.no_such_name


def test_convert_names_the_function_after_the_submodule_import():
    code = "import dhecke.convert; from dhecke import convert; print(type(convert).__name__, convert.__name__)"
    assert _fresh_python(code) == "function convert"
