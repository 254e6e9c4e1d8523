from __future__ import annotations

from itertools import product

import pytest

from dhecke import (
    AlgebraElement,
    DistinctnessViolation,
    FieldSpec,
    MuParams,
    Perm,
    RewriteSystem,
    act_on_kappa,
    build_H_mu,
    bump_c,
    check_pbw,
    extract_mu,
    golden_rule,
    invariant_kappa_params,
    low_dim_family,
    mu_from_json,
    mu_to_json,
    random_params,
    scale_params,
    two_param_family,
)
from dhecke.scalars import CharTwoUnsupported

from conftest import unit_block_mu


def test_zero_mu_gives_skew_group_algebra(F5):
    lam, kap = build_H_mu(MuParams.zero(F5, 3))
    assert lam.is_zero() and kap.is_zero()


def test_golden_rule_from_mu(F5):
    mu = MuParams(F5, 4, {}, (F5.one,) * 3, F5.zero)
    lam, kap = build_H_mu(mu)
    assert kap.is_zero()
    for g in lam.group:
        for i in range(1, 5):
            expected = (
                AlgebraElement.term(F5, g, F5(g(i) - i)) if g(i) != i else AlgebraElement(F5)
            )
            assert lam.at(g, i) == expected


def test_literal_b_sum_cancels_on_fixed_points(F5):
    """The full-period b-sum vanishes by itself when g(i) = i."""
    mu = MuParams(F5, 3, {}, (F5(2), F5(4)), F5.zero)
    lam, _ = build_H_mu(mu)
    for g in lam.group:
        for i in (1, 2, 3):
            if g(i) == i:
                assert lam.coefficient(g, g, i) == F5.zero


def test_mu_requires_n_gt_2(F5):
    with pytest.raises(ValueError):
        MuParams(F5, 2, {}, (F5.one,), F5.zero)


def test_build_matches_unit_blocks(unit_block_n3, F5):
    lam, kap = build_H_mu(unit_block_mu(F5, 3))
    lam2, kap2 = unit_block_n3
    assert lam == lam2 and kap == kap2


def test_extract_zero(F5):
    lam, kap = build_H_mu(MuParams.zero(F5, 3))
    mu = extract_mu(lam, kap)
    assert mu == MuParams.zero(F5, 3)


def test_extract_two_scalar_pair(two_scalar_n4, F7):
    lam, kap = two_scalar_n4
    mu = extract_mu(lam, kap)
    assert mu.a_at(1, 2) == F7(1)
    assert mu.a_at(1, 3) == F7(1)
    assert mu.a_at(2, 3) == F7(2)
    assert all(mu.a_at(i, 4) == F7.zero for i in (1, 2, 3))
    assert all(not b for b in mu.b)
    # c = a_123 = 1*2 + 2*(-1) + (-1)*1 = -1
    assert mu.c == F7(-1)
    assert mu.a_triple(1, 2, 3) == F7(-1)


def test_round_trip_extract_build(two_scalar_n4):
    lam, kap = two_scalar_n4
    lam2, kap2 = build_H_mu(extract_mu(lam, kap))
    assert lam2 == lam and kap2 == kap


def test_round_trip_build_extract_random(F5, F7, Q):
    for fs in (F5, F7, Q):
        for n in (3, 4):
            for seed in (0, 1, 2):
                lam, kap = random_params(n, fs, seed=seed, profile="mu-family")
                mu = extract_mu(lam, kap)
                lam2, kap2 = build_H_mu(mu)
                assert lam2 == lam and kap2 == kap


def test_extract_gates(F5):
    lam, kap = golden_rule(3, FieldSpec(2))
    with pytest.raises(CharTwoUnsupported):
        extract_mu(lam, kap)


def test_parameter_count():
    for n in range(3, 7):
        fs = FieldSpec(5)
        mu = MuParams.zero(fs, n)
        assert mu.free_parameter_count() == (n * n + n) // 2


def test_low_dim_n1(F5):
    lam, kap = low_dim_family(1, (), F5)
    assert lam.is_zero() and kap.is_zero()
    assert check_pbw(lam, kap).pbw
    with pytest.raises(ValueError):
        low_dim_family(1, (F5.one,), F5)


def test_low_dim_n2(F5):
    lam, kap = low_dim_family(2, (F5.one, F5.one), F5)
    s = Perm.from_cycles(2, (1, 2))
    ident = Perm.identity(2)
    assert lam.at(s, 1) == AlgebraElement(F5, {ident: F5.one, s: F5.one})
    assert lam.at(s, 2) == -lam.at(s, 1)
    assert kap.is_zero()
    assert check_pbw(lam, kap).pbw
    assert RewriteSystem(lam, kap).check_confluence()[0]


def test_low_dim_n2_char2_family():
    fs = FieldSpec(2)
    lam, kap = low_dim_family(2, (fs.zero, fs.zero, fs.one, fs.zero), fs)
    assert kap.at(1, 2) == AlgebraElement.term(fs, Perm.identity(2))
    assert RewriteSystem(lam, kap).check_confluence()[0]
    # the four-parameter arity needs the char-2 field
    with pytest.raises(ValueError):
        low_dim_family(2, tuple(FieldSpec(5)(x) for x in (0, 0, 1, 0)), FieldSpec(5))
    with pytest.raises(ValueError):
        low_dim_family(2, (fs.one,), fs)


def test_invariant_kappa_params(F5):
    # d=0, a_12=1, a_13=2: a_23 = (0 + 2)/(1 - 2) = -2 = 3 mod 5
    mu = invariant_kappa_params(F5(1), F5(0), [F5(1), F5(2)], [F5(0), F5(0)], 3, F5)
    assert mu.a_at(2, 3) == F5(3)
    lam, kap = build_H_mu(mu)
    assert check_pbw(lam, kap).pbw
    # kappa is exactly invariant
    for h in lam.group:
        assert act_on_kappa(h, kap) == kap
    # all a_ijk equal d
    assert mu.a_triple(1, 2, 3) == F5(0)


def test_invariant_kappa_a_ijk_equals_d_n4(F5):
    mu = invariant_kappa_params(F5(2), F5(3), [F5(1), F5(2), F5(4)], [F5(1), F5(0), F5(2)], 4, F5)
    for i, j, k in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (3, 1, 4)]:
        assert mu.a_triple(i, j, k) == F5(3)
    lam, kap = build_H_mu(mu)
    assert check_pbw(lam, kap).pbw
    c123 = Perm.from_cycles(4, (1, 2, 3))
    assert kap.coefficient(c123, 1, 2) == F5(2)


def test_invariant_kappa_distinctness(F5):
    with pytest.raises(DistinctnessViolation):
        invariant_kappa_params(F5(0), F5(0), [F5(1), F5(1)], [F5(0), F5(0)], 3, F5)


def test_two_param_family(F5):
    lam, kap = two_param_family(F5.zero, F5.zero, 3, F5)
    assert lam.is_zero() and kap.is_zero()
    lam, kap = two_param_family(F5.one, F5.one, 3, F5)
    assert check_pbw(lam, kap).pbw
    assert RewriteSystem(lam, kap).check_confluence()[0]
    # (1, 0) is the golden rule
    lam_g, kap_g = two_param_family(F5.one, F5.zero, 3, F5)
    assert (lam_g, kap_g.table) == (golden_rule(3, F5)[0], {})
    # matches the mu expansion with b_k = a, c = b
    mu = MuParams(F5, 3, {}, (F5.one, F5.one), F5.one)
    lam_mu, kap_mu = build_H_mu(mu)
    lam2, kap2 = two_param_family(F5.one, F5.one, 3, F5)
    assert lam_mu == lam2 and kap_mu == kap2


def test_bump_c(F5):
    mu = unit_block_mu(F5, 3)
    _, kap = build_H_mu(mu)
    _, kap_b = build_H_mu(bump_c(mu, F5(2)))
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        k = next(k for k in range(1, 4) if k not in (i, j))
        cyc = Perm.from_cycles(3, (i, j, k))
        assert kap_b.coefficient(cyc, i, j) == kap.coefficient(cyc, i, j) + F5(2)


def test_scale_params(unit_block_n3, F5):
    lam, kap = unit_block_n3
    lam0, kap0 = scale_params(F5.zero, lam, kap)
    assert lam0.is_zero() and kap0.is_zero()
    lam2, kap2 = scale_params(F5(2), lam, kap)
    assert check_pbw(lam2, kap2).pbw
    g = Perm.from_cycles(3, (1, 2))
    assert lam2.at(g, 1) == lam.at(g, 1).scale(F5(2))
    assert kap2.at(1, 2) == kap.at(1, 2).scale(F5(4))


def test_n3_kappa_is_constant_blocks(F5):
    """At n=3 every built kappa is c ((i j k) - (i k j)): the a_ijk coincide."""
    for seed in range(4):
        lam, kap = random_params(3, F5, seed=seed, profile="mu-family")
        mu = extract_mu(lam, kap)
        for (i, j) in [(1, 2), (1, 3), (2, 3)]:
            k = next(k for k in range(1, 4) if k not in (i, j))
            fwd = Perm.from_cycles(3, (i, j, k))
            bwd = Perm.from_cycles(3, (i, k, j))
            expected = AlgebraElement(F5, {fwd: mu.c, bwd: -mu.c})
            assert kap.at(i, j) == expected


def test_built_kappa_three_cycle_support_and_pattern(F5):
    for seed in range(4):
        for n in (3, 4):
            lam, kap = random_params(n, F5, seed=seed, profile="mu-family")
            for g in kap.support():
                cycles = [c for c in g.cycles() if len(c) > 1]
                assert len(cycles) == 1 and len(cycles[0]) == 3
            for i, j, k in product(range(1, n + 1), repeat=3):
                if len({i, j, k}) < 3:
                    continue
                cyc = Perm.from_cycles(n, (i, j, k))
                base = kap.coefficient(cyc, i, j)
                assert kap.coefficient(cyc, j, k) == base
                assert kap.coefficient(cyc, k, i) == base


def test_mu_json_round_trip(F5):
    mu = invariant_kappa_params(F5(1), F5(2), [F5(1), F5(3)], [F5(4), F5(0)], 3, F5)
    data = mu_to_json(mu)
    mu2 = mu_from_json(data)
    assert mu2 == mu


def test_generated_n3_table_is_ground_truth(F5):
    """The literal classification expansion at n=3 passes both verdicts.

    The expansion is generated, never transcribed from a printed table;
    both engines certifying it is the authority for the coefficients.
    """
    mu = MuParams(F5, 3, {(1, 2): F5(2), (2, 3): F5(3), (1, 3): -F5(1)}, (F5(4), F5(1)), F5(2))
    lam, kap = build_H_mu(mu)
    assert check_pbw(lam, kap).pbw
    assert RewriteSystem(lam, kap).check_confluence()[0]
    # transposition rows put twice the a-value on the identity coefficient
    t12 = Perm.from_cycles(3, (1, 2))
    assert lam.coefficient(Perm.identity(3), t12, 1) == F5(4)  # 2 * a_12
