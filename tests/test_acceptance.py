"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All verdicts are booleans over exact arithmetic, so every tolerance is
exact equality.  Run with ``pytest -v tests/test_acceptance.py`` (add -s
to see the per-criterion lines while passing).
"""

from __future__ import annotations

from itertools import product

from dhecke import (
    AlgebraElement,
    FieldSpec,
    KappaParam,
    LambdaParam,
    MuParams,
    Perm,
    RewriteSystem,
    act_on_kappa,
    build_H_mu,
    bump_c,
    check_pbw,
    convert,
    extract_mu,
    gamma,
    golden_rule,
    invariant_kappa_params,
    lemma_suite,
    low_dim_family,
    params_from_json,
    random_params,
    scale_params,
    two_param_family,
    verify_isomorphism,
)

from conftest import build_two_scalar_n4, build_char2_matrix_pair, load_fixture, unit_block_mu

PROFILES = ("general", "mu-family", "perturbed-mu")


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{criterion} failed{tail}"


def test_c1_cross_validation_two_engines():
    """Five-condition verdict equals the confluence verdict on 201 seeded pairs."""
    fs = FieldSpec(5)
    mismatches = 0
    true_count = 0
    n_samples = 201
    for s in range(n_samples):
        lam, kap = random_params(3, fs, seed=s, profile=PROFILES[s % 3])
        cond = check_pbw(lam, kap).pbw
        conf = RewriteSystem(lam, kap).check_confluence()[0]
        mismatches += cond != conf
        true_count += cond
    report(
        "criterion 1 (cross-validation, n=3, p=5)",
        mismatches == 0,
        f"{n_samples - mismatches}/{n_samples} agree, {true_count} PBW-true",
    )


def test_c2_unit_block_all_fields():
    ok = True
    for n in (3, 4):
        for p in (0, 3, 5, 7):
            fs = FieldSpec(p)
            lam, kap = build_H_mu(unit_block_mu(fs, n))
            if not check_pbw(lam, kap).pbw:
                ok = False
            if not RewriteSystem(lam, kap).check_confluence()[0]:
                ok = False
    report("criterion 2 (unit-block fixture, n in {3,4}, p in {0,3,5,7})", ok)


def test_c3_two_scalar_extraction():
    fs = FieldSpec(7)
    lam, kap = build_two_scalar_n4(fs)
    pbw = check_pbw(lam, kap).pbw and RewriteSystem(lam, kap).check_confluence()[0]
    mu = extract_mu(lam, kap)
    values_ok = (
        mu.a_at(1, 2) == fs(1)
        and mu.a_at(1, 3) == fs(1)
        and mu.a_at(2, 3) == fs(2)
        and all(mu.a_at(i, 4) == fs.zero for i in (1, 2, 3))
        and all(not b for b in mu.b)
        and mu.c == fs(-1)
    )
    report("criterion 3 (two-scalar fixture, m=1, m'=2, n=4, p=7)", pbw and values_ok)


def test_c4_classification_soundness_and_completeness():
    ok = True
    detail = []
    for n in (3, 4):
        for p in (0, 3, 5, 7):
            fs = FieldSpec(p)
            for seed in range(50):
                lam, kap = random_params(n, fs, seed=seed, profile="mu-family")
                if not check_pbw(lam, kap).pbw:
                    ok = False
                    detail.append(f"n={n} p={p} seed={seed} not PBW")
                    continue
                lam2, kap2 = build_H_mu(extract_mu(lam, kap))
                if lam2 != lam or kap2 != kap:
                    ok = False
                    detail.append(f"n={n} p={p} seed={seed} round-trip mismatch")
    report(
        "criterion 4 (classification soundness + round-trip, 50 x 8 cells)",
        ok,
        "; ".join(detail) if detail else "400/400",
    )


def test_c5_parameter_count():
    ok = all(
        MuParams.zero(FieldSpec(5), n).free_parameter_count()
        == n * (n - 1) // 2 + (n - 1) + 1
        == (n * n + n) // 2
        for n in range(3, 7)
    )
    report("criterion 5 (free-parameter count, n = 3..6)", ok)


def test_c6_low_dimensional_families():
    ok = True
    # n=1: only the trivial pair; every nonzero single-variable parameter fails
    for p in (3, 5, 7):
        fs = FieldSpec(p)
        lam, kap = low_dim_family(1, (), fs)
        g1 = lam.group
        if not (check_pbw(lam, kap).pbw and RewriteSystem(lam, kap).check_confluence()[0]):
            ok = False
        for t in range(1, p):
            bad = LambdaParam(g1, fs, {(g1.identity, 1): AlgebraElement.term(fs, g1.identity, fs(t))})
            if check_pbw(bad, KappaParam(fs, 1)).pbw:
                ok = False
            if RewriteSystem(bad, KappaParam(fs, 1)).check_confluence()[0]:
                ok = False
    # n=2: every (a,b) passes; every kappa != 0 fails
    for p in (3, 5, 7):
        fs = FieldSpec(p)
        for a, b in product(range(p), repeat=2):
            lam, kap = low_dim_family(2, (fs(a), fs(b)), fs)
            if not check_pbw(lam, kap).pbw:
                ok = False
        s = Perm.from_cycles(2, (1, 2))
        ident = Perm.identity(2)
        lam, _ = low_dim_family(2, (fs.one, fs.one), fs)
        for x, y in product(range(p), repeat=2):
            if x == 0 and y == 0:
                continue
            kap_bad = KappaParam(fs, 2, {(1, 2): AlgebraElement(fs, {ident: fs(x), s: fs(y)})})
            if check_pbw(lam, kap_bad).pbw:
                ok = False
    # n=2, characteristic-2 override: all 16 remark-family tuples pass the oracle
    fs2 = FieldSpec(2)
    for t in product(range(2), repeat=4):
        lam, kap = low_dim_family(2, tuple(fs2(x) for x in t), fs2)
        if not RewriteSystem(lam, kap).check_confluence()[0]:
            ok = False
    report("criterion 6 (n=1 triviality; n=2 families; char-2 remark family)", ok)


def test_c7_nonmodular_conversion():
    ok = True
    for p in (0, 7):
        fs = FieldSpec(p)
        for seed in range(20):
            lam, kap = random_params(3, fs, seed=seed, profile="mu-family")
            result = convert(lam, kap)
            lam0 = LambdaParam(lam.group, fs)
            if not check_pbw(lam0, result.kappa_converted).pbw:
                ok = False
            for h in lam.group:
                if act_on_kappa(h, result.kappa_converted) != result.kappa_converted:
                    ok = False
            if not verify_isomorphism(lam, kap, result):
                ok = False
    # the averaging map on the golden rule is exactly (i-2) * identity
    fs = FieldSpec(7)
    lam_g, _ = golden_rule(3, fs)
    g = gamma(lam_g)
    ident = lam_g.group.identity
    for i in (1, 2, 3):
        expected = AlgebraElement.term(fs, ident, fs(i - 2)) if i != 2 else AlgebraElement(fs)
        if g[i] != expected:
            ok = False
    report("criterion 7 (nonmodular conversion, S3, p in {0,7}, 20 seeds each)", ok)


def test_c8_char2_matrix_fixture():
    lam, kap = build_char2_matrix_pair()
    ok, _ = RewriteSystem(lam, kap).check_confluence()
    report("criterion 8 (char-2 matrix-group fixture via confluence)", ok)


def test_c9_invariant_parameter_families():
    ok = True
    for n in (3, 4):
        for p in (0, 5):
            fs = FieldSpec(p)
            # golden rule
            lam, kap = golden_rule(n, fs)
            if not check_pbw(lam, kap).pbw:
                ok = False
            # invariant-kappa family with distinct first-row values
            mu = invariant_kappa_params(
                fs(2), fs(1), [fs(i - 1) for i in range(2, n + 1)], [fs.one] * (n - 1), n, fs
            )
            lam_i, kap_i = build_H_mu(mu)
            if not check_pbw(lam_i, kap_i).pbw:
                ok = False
            if n == 3:
                for h in lam_i.group:
                    if act_on_kappa(h, kap_i) != kap_i:
                        ok = False
            # c-bump of a lambda-only PBW pair
            mu_g = MuParams(fs, n, {}, (fs.one,) * (n - 1), fs.zero)
            lam_b, kap_b = build_H_mu(bump_c(mu_g, fs.one))
            if not check_pbw(lam_b, kap_b).pbw:
                ok = False
            # two-parameter family
            lam_t, kap_t = two_param_family(fs(3), fs(2), n, fs)
            if not check_pbw(lam_t, kap_t).pbw:
                ok = False
    report("criterion 9 (invariant-parameter families, n in {3,4}, p in {0,5})", ok)


def _pbw_fixture_pairs():
    out = []
    for name in (
        "example_1_1_n3.json",
        "example_1_1_n4.json",
        "example_3_4.json",
        "golden_rule.json",
        "s8_n2_family.json",
    ):
        out.append((name, params_from_json(load_fixture(name))))
    return out


def test_c10_scaling_remark():
    ok = True
    for name, (lam, kap) in _pbw_fixture_pairs():
        for c in range(5):
            cs = lam.field(c)
            lam2, kap2 = scale_params(cs, lam, kap)
            if not check_pbw(lam2, kap2).pbw:
                ok = False
    # characteristic-2 fixture through the oracle
    lam, kap = build_char2_matrix_pair()
    for c in range(2):
        cs = lam.field(c)
        lam2, kap2 = scale_params(cs, lam, kap)
        if not RewriteSystem(lam2, kap2).check_confluence()[0]:
            ok = False
    report("criterion 10 (scaling (c lambda, c^2 kappa) on every PBW fixture)", ok)


def test_c10_mixed_scaling_negative_control():
    """(2 lambda, 2 kappa) on the unit-block fixture is the member b = 2, c = 2.

    At n = 3 no mixed scaling leaves the classification: there is one
    triple, so ``a_triple`` is the same on every ordering of it and a
    scaling by s sends the member (a, b, c) to (s a, s b, s c).  Here
    a = 0, b = (1, 1), c = 1, so both engines must find the scaled pair
    PBW, equal to ``build_H_mu`` of (a = 0, b = (2, 2), c = 2), and
    ``extract_mu`` must return that tuple.  The negative control, where
    a mixed scaling does break PBW, runs at n = 4 in the companion test.
    """
    fs = FieldSpec(5)
    lam, kap = build_H_mu(unit_block_mu(fs, 3))
    two = fs(2)
    lam2, kap2 = lam.scale(two), kap.scale(two)
    cond = check_pbw(lam2, kap2).pbw
    conf = RewriteSystem(lam2, kap2).check_confluence()[0]
    mu2 = MuParams(fs, 3, {}, (two, two), two)
    member = (lam2, kap2) == build_H_mu(mu2)
    extracted = extract_mu(lam2, kap2)
    report(
        "criterion 10 mixed scaling at n=3 ((2l, 2k) on unit-block p=5 is the PBW member b=2, c=2)",
        cond is True and conf is True and member and extracted == mu2,
        f"conditions={cond}, confluence={conf}, member={member}, extracted={extracted!r}",
    )


def test_c10_mixed_scaling_breaks_nonconstant_a():
    """Mixed scaling by s not in {0, 1} breaks PBW when a_triple is not constant.

    Scaling the member (a, b, c) by s gives the lambda of (s a, s b), and
    the scaled kappa is a family kappa for that lambda exactly when
    ``a_triple(i, j, k) = a_triple(1, 2, 3)`` on every triple.  That holds
    always at n = 3, and at n = 4 also for the mu whose only nonzero
    a-value is a_12 (there ``a_triple`` is zero on every triple), so a
    nonzero a-part alone does not break PBW.  The two-scalar n = 4 fixture
    has ``a_triple(1, 2, 3) = -m^2`` but ``a_triple(1, 2, 4) = 0``, so
    (2 lambda, 2 kappa) is not PBW.
    """
    fs = FieldSpec(7)
    lam, kap = build_two_scalar_n4(fs)
    two = fs(2)
    lam2, kap2 = lam.scale(two), kap.scale(two)
    cond = check_pbw(lam2, kap2)
    conf = RewriteSystem(lam2, kap2).check_confluence()[0]
    report(
        "criterion 10 companion ((2l, 2k) on two-scalar n=4 p=7 PBW-false)",
        cond.pbw is False and conf is False and cond.verdicts[2] is False,
        "condition (2) fails as intended",
    )


def test_c11_lemma_suite_zero_violations():
    ok = True
    violations = []
    pairs = [(name, pair) for name, pair in _pbw_fixture_pairs() if pair[0].n > 2]
    for n in (3, 4):
        for p in (0, 3, 5, 7):
            fs = FieldSpec(p)
            for seed in range(5):
                pairs.append((f"mu n={n} p={p} seed={seed}", random_params(n, fs, seed=seed, profile="mu-family")))
    for name, (lam, kap) in pairs:
        results = lemma_suite(lam, kap)
        for key, value in results.items():
            if not value:
                ok = False
                violations.append(f"{name}: {key}")
    report(
        "criterion 11 (lemma suite on every PBW-true sample)",
        ok,
        "; ".join(violations) if violations else f"{len(pairs)} samples, zero violations",
    )
