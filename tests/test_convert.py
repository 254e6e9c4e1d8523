from __future__ import annotations

import random

import pytest

from dhecke import (
    AlgebraElement,
    KappaParam,
    LambdaParam,
    ModularObstruction,
    MuParams,
    NotPBWInput,
    act_on_kappa,
    build_H_mu,
    check_pbw,
    convert,
    gamma,
    golden_rule,
    random_params,
    verify_isomorphism,
)
from dhecke.rewrite import RewriteSystem


def test_gamma_of_zero(F7, S3):
    g = gamma(LambdaParam(S3, F7))
    assert all(not v for v in g.values())


def test_gamma_golden_rule_s3_p7(F7):
    lam, _ = golden_rule(3, F7)
    g = gamma(lam)
    ident = lam.group.identity
    for i in (1, 2, 3):
        if i == 2:
            assert not g[i]
        else:
            assert g[i] == AlgebraElement.term(F7, ident, F7(i - 2))


def test_gamma_golden_rule_char0(Q):
    lam, _ = golden_rule(3, Q)
    g = gamma(lam)
    ident = lam.group.identity
    assert g[1] == AlgebraElement.term(Q, ident, Q(-1))
    assert g[3] == AlgebraElement.term(Q, ident, Q(1))


def test_gamma_modular_obstruction(F3):
    lam, _ = golden_rule(3, F3)
    with pytest.raises(ModularObstruction):
        gamma(lam)


def test_convert_golden_rule_gives_plain_skew(F7):
    lam, kap = golden_rule(3, F7)
    result = convert(lam, kap)
    assert result.kappa_converted.is_zero()
    assert check_pbw(LambdaParam(lam.group, F7), result.kappa_converted).pbw


def test_convert_identity_on_lambda_zero(F7, S3):
    # an invariant kappa with lambda = 0 converts to itself (gamma = 0)
    mu = MuParams(F7, 3, {}, (F7.zero, F7.zero), F7.one)
    _, kap = build_H_mu(mu)
    lam0 = LambdaParam(S3, F7)
    assert check_pbw(lam0, kap).pbw
    result = convert(lam0, kap)
    assert all(not v for v in result.gamma.values())
    assert result.kappa_converted == kap


def test_convert_refuses_non_pbw(F7, S3):
    lam = LambdaParam(S3, F7)
    kap = KappaParam(F7, 3, {(1, 2): AlgebraElement.term(F7, S3.identity)})
    with pytest.raises(NotPBWInput):
        convert(lam, kap)


def test_convert_random_pairs_s3(F7, Q):
    for fs in (F7, Q):
        for seed in range(4):
            lam, kap = random_params(3, fs, seed=seed, profile="mu-family")
            result = convert(lam, kap)
            lam0 = LambdaParam(lam.group, fs)
            assert check_pbw(lam0, result.kappa_converted).pbw
            for h in lam.group:
                assert act_on_kappa(h, result.kappa_converted) == result.kappa_converted
            assert verify_isomorphism(lam, kap, result)
            assert result.checks == {
                "commutator_relations": True,
                "group_relations": True,
                "filtered_dimensions": True,
            }


def test_verify_isomorphism_golden_rule(F7):
    lam, kap = golden_rule(3, F7)
    result = convert(lam, kap)
    assert verify_isomorphism(lam, kap, result)


def test_wrong_gamma_fails_group_relations(F7):
    """Corrupting gamma(v_1) by +1 must break check (ii), not check (i)."""
    lam, kap = golden_rule(3, F7)
    result = convert(lam, kap)
    ident = lam.group.identity
    result.gamma[1] = result.gamma[1] + AlgebraElement.term(F7, ident)
    ok = verify_isomorphism(lam, kap, result)
    assert not ok
    assert result.checks["commutator_relations"] is True
    assert result.checks["group_relations"] is False


def test_convert_modular_refusal(F3):
    lam, kap = golden_rule(3, F3)
    with pytest.raises(ModularObstruction):
        convert(lam, kap)


def group_relations_over_all_of_g(lam, kap, result) -> bool:
    """Check (ii) of verify_isomorphism for every g in G, not only the generators."""
    rs = RewriteSystem(lam, kap)
    f = {i: [((i,), 1)] + [((h,), c) for h, c in result.gamma[i].items()] for i in range(1, lam.n + 1)}
    for g in lam.group:
        for i in range(1, lam.n + 1):
            rel = [((g,) + w, c) for w, c in f[i]]
            rel += [(w + (g,), -a * c) for k, a in g.column(i) for w, c in f[k]]
            if rs.normal_form(rel):
                return False
    return True


def test_group_relations_on_generators_match_all_of_g(F7, Q):
    """Seeded corruptions of gamma: the generator sweep of (ii) agrees with the sweep over G."""
    rng = random.Random("group-relations")
    seen = set()
    for fs in (F7, Q):
        for seed in range(3):
            lam, kap = random_params(3, fs, seed=seed, profile="mu-family")
            assert len(lam.group.generators) < len(lam.group)
            for trial in range(4):
                result = convert(lam, kap)
                if trial:
                    i = rng.randint(1, 3)
                    h = rng.choice(list(lam.group))
                    result.gamma[i] = result.gamma[i] + AlgebraElement.term(fs, h, fs(rng.choice((1, 2))))
                verify_isomorphism(lam, kap, result)
                full = group_relations_over_all_of_g(lam, kap, result)
                assert result.checks["group_relations"] is full, (fs, seed, trial)
                seen.add(full)
    assert seen == {True, False}
