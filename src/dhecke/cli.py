"""Command-line surface: check, build, extract, normal-form, convert, crossval.

Exit codes: 0 success, 1 mathematically negative verdict (not-PBW,
isomorphism-check failure, cross-validation mismatch), 2 usage or input
error.  JSON reports are deterministic for fixed flags and seed, except
for the timing_ms field.  The environment variable DHA_STEP_BUDGET
overrides the rewrite step budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# Only what every command uses is imported here; each command imports the
# engines (pbw, rewrite, classify) it runs.  The package loads convert anyway.
from .convert import NotPBWInput, convert, verify_isomorphism
from .groups import ClosureCapExceeded
from .parameters import LambdaParam, algebra_element_to_json, params_from_json, params_to_json, random_params
from .scalars import CharTwoUnsupported, FieldSpec, ModularObstruction, StepBudgetExceeded, read_int


# The largest n crossval accepts, so that |S_n| = n! stays at most 5040:
# every sample enumerates S_n, and one S_9 sample passes 6 GB.
MAX_CROSSVAL_N = 7


class InputError(Exception):
    """An input file that is not UTF-8 text; the message names the file."""


class OutputError(Exception):
    """An output file that cannot be written; the message names the file."""


def _step_budget() -> int:
    """The rewrite step budget; a command reads it once, before any work."""
    from .rewrite import DEFAULT_STEP_BUDGET

    raw = os.environ.get("DHA_STEP_BUDGET")
    if not raw:
        return DEFAULT_STEP_BUDGET
    try:
        budget = read_int(raw, signed=False)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"DHA_STEP_BUDGET must be an integer of at least 1, got {raw!r}")
    return budget


def _write_json(path: str | None, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OutputError(f"cannot write {path!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path!r} is not JSON: {exc.msg}", exc.doc, exc.pos) from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path!r} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _load_params(path: str):
    return params_from_json(_read_json(path))


def cmd_check(args) -> int:
    conditions = args.method in ("conditions", "both")
    confluence = args.method in ("confluence", "both")
    budget = _step_budget() if confluence else None
    lam, kappa = _load_params(args.input)
    report: dict = {"input": args.input, "method": args.method}
    verdicts: dict[str, bool] = {}
    if conditions:
        from .pbw import check_pbw

        cond = check_pbw(lam, kappa)
        verdicts["conditions"] = cond.pbw
        report["conditions"] = cond.to_json()
    if confluence:
        from .rewrite import RewriteSystem

        rs = RewriteSystem(lam, kappa, step_budget=budget)
        ok, wit = rs.check_confluence()
        verdicts["confluence"] = ok
        report["confluence"] = {"pbw": ok, "witness": wit.to_json() if wit is not None else None}
    pbw_values = list(verdicts.values())
    agree = len(set(pbw_values)) == 1
    report["agree"] = agree
    report["pbw"] = pbw_values[0] if agree else None
    _write_json(args.out, report)
    if args.method == "both":
        if not agree:
            print(f"PBW: {verdicts['conditions']}/{verdicts['confluence']}, VERDICTS DISAGREE")
            return 1
        print(
            f"PBW: {verdicts['conditions']}/{verdicts['confluence']}, verdicts agree"
        )
    else:
        print(f"PBW ({args.method}): {pbw_values[0]}")
    return 0 if all(pbw_values) else 1


def cmd_build(args) -> int:
    from .classify import build_H_mu, mu_from_json

    data = _read_json(args.mu)
    fs = None
    if args.char is not None:
        if args.char == 2 and not args.force_char2:
            raise CharTwoUnsupported(
                "--char 2 requires --force-char2; the classification is stated only away from "
                "characteristic 2, though both PBW verdicts run there"
            )
        fs = FieldSpec(args.char)
    mu = mu_from_json(data, field_spec=fs)
    lam, kappa = build_H_mu(mu)
    _write_json(args.out, params_to_json(lam, kappa))
    print(f"built parameter tables for n={mu.n}, characteristic {mu.field.characteristic}")
    return 0


def cmd_extract(args) -> int:
    from .classify import extract_mu, mu_to_json
    from .pbw import check_pbw

    lam, kappa = _load_params(args.input)
    report = check_pbw(lam, kappa)
    if not report.pbw:
        w = report.first_witness()
        print(f"input is not PBW (condition {w.condition} fails); refusing to extract")
        return 1
    mu = extract_mu(lam, kappa)
    _write_json(args.out, mu_to_json(mu))
    print(f"extracted mu tuple with {mu.free_parameter_count()} free parameters")
    return 0


def cmd_normal_form(args) -> int:
    from .rewrite import RewriteSystem, format_normal_form, normal_form_to_json, parse_word_sum

    budget = _step_budget()
    lam, kappa = _load_params(args.input)
    x = parse_word_sum(args.word, lam.field, lam.n, lam.group)
    rs = RewriteSystem(lam, kappa, step_budget=budget)
    try:
        nf = rs.normal_form(x)
    except StepBudgetExceeded as exc:
        raise StepBudgetExceeded(f"{exc} while reducing --word {args.word!r}") from None
    rendered = format_normal_form(nf)
    if args.out:
        _write_json(
            args.out,
            {"input": args.word, "normal_form": rendered, "terms": normal_form_to_json(nf)},
        )
    print(rendered)
    return 0


def cmd_convert(args) -> int:
    if args.degree < 0:
        raise ValueError(f"--degree must be at least 0, got {args.degree}")
    lam, kappa = _load_params(args.input)
    result = convert(lam, kappa)
    ok = verify_isomorphism(lam, kappa, result)
    converted = params_to_json(LambdaParam(lam.group, lam.field), result.kappa_converted)
    certificate = {
        "gamma": {str(i): algebra_element_to_json(v) for i, v in result.gamma.items()},
        "checks": result.checks,
        "degree": args.degree,
        "verified": ok,
    }
    if args.out:
        _write_json(args.out, converted)
        cert_path = args.out + ".cert.json"
        _write_json(cert_path, certificate)
        print(
            f"conversion {'verified' if ok else 'FAILED verification'} at degree {args.degree}; "
            f"wrote {args.out} and {cert_path}"
        )
    else:
        _write_json(None, {"parameters": converted, "certificate": certificate})
        print(f"conversion {'verified' if ok else 'FAILED verification'} at degree {args.degree}")
    return 0 if ok else 1


def cmd_crossval(args) -> int:
    from .pbw import is_pbw
    from .rewrite import RewriteSystem

    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if not 3 <= args.n <= MAX_CROSSVAL_N:
        raise ValueError(
            f"--n must be 3..{MAX_CROSSVAL_N} (the mu tuple needs n > 2, and n! may not pass "
            f"{math.factorial(MAX_CROSSVAL_N)}), got {args.n}"
        )
    budget = _step_budget()
    fs = FieldSpec(args.char)
    profiles = ("general", "mu-family", "perturbed-mu")
    matrix = {"true/true": 0, "false/false": 0, "true/false": 0, "false/true": 0}
    mismatches = []
    per_profile: dict[str, int] = {p: 0 for p in profiles}
    for s in range(args.samples):
        profile = profiles[s % 3]
        per_profile[profile] += 1
        lam, kappa = random_params(args.n, fs, seed=args.seed + s, profile=profile)
        cond = is_pbw(lam, kappa)
        conf = RewriteSystem(lam, kappa, step_budget=budget).is_confluent()
        key = f"{str(cond).lower()}/{str(conf).lower()}"
        matrix[key] += 1
        if cond != conf:
            mismatches.append({"sample": s, "profile": profile, "conditions": cond, "confluence": conf})
    all_agree = not mismatches
    report = {
        "n": args.n,
        "characteristic": args.char,
        "samples": args.samples,
        "seed": args.seed,
        "profiles": per_profile,
        "agreement_matrix": matrix,
        "mismatches": mismatches,
        "all_agree": all_agree,
    }
    _write_json(args.out, report)
    agreed = matrix["true/true"] + matrix["false/false"]
    print(f"{agreed}/{args.samples} agreement", "(all agree)" if all_agree else "(MISMATCHES!)")
    return 0 if all_agree else 1


class _Parser(argparse.ArgumentParser):
    # argparse's own print_help ignores an OSError of the write: --help to a closed stdout would exit 0.
    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())

    # A refusal is one line, as every other CLI failure: no usage block before it.
    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def integer(text: str) -> int:
    """An integer flag in the grammar of `read_int`; argparse's refusal says "invalid integer value"."""
    return read_int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dhecke",
        description="Construct, verify, and classify PBW deformations of S(V)#G.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide the PBW property for a parameter file")
    p.add_argument("--input", required=True, help="parameter file (JSON)")
    p.add_argument("--method", choices=("conditions", "confluence", "both"), default="both")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="expand a mu tuple into a full parameter file")
    p.add_argument("--mu", required=True, help="mu file (JSON)")
    p.add_argument("--out", help="output parameter file")
    p.add_argument("--char", type=integer, help="override the characteristic")
    p.add_argument("--force-char2", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("extract", help="recover the mu tuple from a PBW parameter file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="output mu file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("normal-form", help="reduce a word to PBW monomials")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--word",
        required=True,
        help='e.g. "2 v1 v2 - g[2,1,3] v1"; a word that starts with "-" is given as --word="-v1"',
    )
    p.add_argument("--out", help="optional JSON report")
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("convert", help="nonmodular conversion to a lambda = 0 pair")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=integer, default=3, help="degree recorded in the certificate")
    p.add_argument("--out", help="output converted parameter file")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("crossval", help="seeded agreement campaign between both verdicts")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--char", type=integer, required=True)
    p.add_argument("--samples", type=integer, default=100)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_crossval)

    for p in sub.choices.values():
        p.set_defaults(parser=p)  # so that main refuses a command's unknown arguments in its name
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args, unknown = parser.parse_known_args(argv)
            if unknown:
                # Only flags the top-level parser does not know can come before the command.
                before_command = (sys.argv[1:] if argv is None else argv).index(args.command)
                refuser = parser if before_command else args.parser
                refuser.error(f"unrecognized arguments: {' '.join(unknown)}")
        except SystemExit:
            sys.stdout.flush()  # --help wrote to stdout, which may be closed
            raise
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        print("output error: standard output was closed", file=sys.stderr)
        # Nothing more can reach the reader, so the final flush writes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (OSError, json.JSONDecodeError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except ClosureCapExceeded as exc:
        print(f"group too large: {exc}", file=sys.stderr)
        return 2
    except CharTwoUnsupported as exc:
        print(f"characteristic-2 gate: {exc}", file=sys.stderr)
        return 2
    except ModularObstruction as exc:
        print(f"modular obstruction: {exc}", file=sys.stderr)
        return 2
    except NotPBWInput as exc:
        print(f"negative verdict: {exc}", file=sys.stderr)
        return 1
    except StepBudgetExceeded as exc:
        print(f"step budget exceeded: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
