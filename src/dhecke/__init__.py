"""Exact-arithmetic engine for Drinfeld Hecke algebras.

Constructs, verifies, and classifies PBW deformations of skew group
algebras S(V)#G, specializing to the symmetric group permuting
coordinates over fields of arbitrary characteristic, with two independent
PBW verdicts: a five-condition parameter test and a rewriting/confluence
oracle.
"""

from .scalars import CharTwoUnsupported, FieldSpec, ModularObstruction, Scalar
from .groups import (
    GroupElement,
    GroupTable,
    MatrixElement,
    Perm,
    enumerate_group,
    symmetric_group,
)
from .group_algebra import AlgebraElement
from .parameters import (
    KappaParam,
    LambdaParam,
    act_on_kappa,
    act_on_lambda,
    params_from_json,
    params_to_json,
    random_params,
)
from .pbw import ConditionReport, Witness, check_condition, check_pbw, diagnose_kappa_support, diagnose_lambda, is_pbw, lemma_suite
from .rewrite import (
    NormalMonomial,
    RewriteSystem,
    StepBudgetExceeded,
    format_normal_form,
    parse_word_sum,
)
from .classify import (
    DistinctnessViolation,
    MuParams,
    build_H_mu,
    bump_c,
    extract_mu,
    golden_rule,
    invariant_kappa_params,
    low_dim_family,
    mu_from_json,
    mu_to_json,
    scale_params,
    two_param_family,
)
from .convert import ConversionResult, NotPBWInput, convert, gamma, verify_isomorphism

__all__ = [
    "AlgebraElement",
    "CharTwoUnsupported",
    "ConditionReport",
    "ConversionResult",
    "DistinctnessViolation",
    "FieldSpec",
    "GroupElement",
    "GroupTable",
    "KappaParam",
    "LambdaParam",
    "MatrixElement",
    "ModularObstruction",
    "MuParams",
    "NormalMonomial",
    "NotPBWInput",
    "Perm",
    "RewriteSystem",
    "Scalar",
    "StepBudgetExceeded",
    "Witness",
    "act_on_kappa",
    "act_on_lambda",
    "build_H_mu",
    "bump_c",
    "check_condition",
    "check_pbw",
    "convert",
    "diagnose_kappa_support",
    "diagnose_lambda",
    "enumerate_group",
    "extract_mu",
    "format_normal_form",
    "gamma",
    "golden_rule",
    "invariant_kappa_params",
    "is_pbw",
    "lemma_suite",
    "low_dim_family",
    "mu_from_json",
    "mu_to_json",
    "params_from_json",
    "params_to_json",
    "parse_word_sum",
    "random_params",
    "scale_params",
    "symmetric_group",
    "two_param_family",
    "verify_isomorphism",
]
