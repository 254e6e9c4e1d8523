"""Exact-arithmetic engine for Drinfeld Hecke algebras.

Constructs, verifies, and classifies PBW deformations of skew group
algebras S(V)#G, specializing to the symmetric group permuting
coordinates over fields of arbitrary characteristic, with two independent
PBW verdicts: a five-condition parameter test and a rewriting/confluence
oracle.
"""

from importlib import import_module

# The one eager import.  The function `convert` shares its name with the
# module dhecke.convert, and importing a submodule binds the module on the
# package, so a lazy `convert` would turn into the module once dhecke.convert
# is loaded.  Imported here, the function is bound after the module and stays
# bound.  The import is cheap: convert.py imports no other dhecke module when
# it loads (its functions import the engines and `scalars` when they run), so
# `import dhecke` compiles only this file and convert.py.
from .convert import ConversionResult, NotPBWInput, convert, gamma, verify_isomorphism

# Each public name and the module that defines it.  A name is imported on
# first use (PEP 562), so `import dhecke` loads no engine it does not run.
_EXPORTS = {
    name: module
    for module, names in (
        ("scalars", ("CharTwoUnsupported", "FieldSpec", "ModularObstruction", "Scalar", "StepBudgetExceeded")),
        ("groups", ("GroupElement", "GroupTable", "MatrixElement", "Perm", "symmetric_group")),
        ("group_algebra", ("AlgebraElement",)),
        (
            "parameters",
            (
                "KappaParam", "LambdaParam", "act_on_kappa", "act_on_lambda",
                "params_from_json", "params_to_json", "random_params",
            ),
        ),
        (
            "pbw",
            (
                "ConditionReport", "Witness", "check_condition", "check_pbw",
                "diagnose_kappa_support", "diagnose_lambda", "is_pbw", "lemma_suite",
            ),
        ),
        ("rewrite", ("NormalMonomial", "RewriteSystem", "format_normal_form", "parse_word_sum")),
        (
            "classify",
            (
                "DistinctnessViolation", "MuParams", "build_H_mu", "bump_c", "extract_mu", "golden_rule",
                "invariant_kappa_params", "low_dim_family", "mu_from_json", "mu_to_json", "scale_params",
                "two_param_family",
            ),
        ),
        ("convert", ("ConversionResult", "NotPBWInput", "convert", "gamma", "verify_isomorphism")),
    )
    for name in names
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
