from __future__ import annotations

from collections import Counter
from itertools import chain, product

from dhecke import (
    AlgebraElement,
    FieldSpec,
    GroupTable,
    KappaParam,
    LambdaParam,
    MatrixElement,
    NormalMonomial,
    Perm,
    RewriteSystem,
    Witness,
    check_condition,
    check_pbw,
    diagnose_kappa_support,
    diagnose_lambda,
    gamma,
    golden_rule,
    is_pbw,
    lemma_suite,
    low_dim_family,
    random_params,
    scale_params,
)
from dhecke import pbw
from dhecke.linalg import column

from conftest import build_char2_matrix_pair, matrix_group_pairs, sweep_grid


def test_zero_pair_passes(F5, S3):
    lam = LambdaParam(S3, F5)
    kap = KappaParam(F5, 3)
    report = check_pbw(lam, kap)
    assert report.pbw and all(report.verdicts.values())


def test_unit_block_pair_passes(unit_block_n3):
    report = check_pbw(*unit_block_n3)
    assert report.pbw


def test_two_scalar_pair_passes(two_scalar_n4):
    report = check_pbw(*two_scalar_n4)
    assert report.pbw


def test_noninvariant_kappa_fails_condition_2(F5, S3):
    lam = LambdaParam(S3, F5)
    kap = KappaParam(F5, 3, {(1, 2): AlgebraElement.term(F5, S3.identity)})
    ok, witness = check_condition(2, lam, kap)
    assert not ok
    # the witness is genuine: re-evaluating the reported tuple reproduces it
    g = witness.g
    i, j = witness.indices
    lhs = kap.at(g(i), g(j)).mul_right(g) - kap.at(i, j).mul_left(g)
    assert lhs == witness.discrepancy
    # with lambda = 0 the discrepancy is exactly -g at the witness element
    assert witness.discrepancy == -AlgebraElement.term(F5, g)
    report = check_pbw(lam, kap)
    assert not report.pbw and not report.verdicts[2]


def _image(g, u, fs):
    """^g u as a dense vector, computed from the matrix of g rather than its columns."""
    return tuple(sum((a * x for a, x in zip(row, u)), fs.zero) for row in g.matrix())


def _unit(fs, n, i):
    return tuple(fs.one if k == i else fs.zero for k in range(1, n + 1))


def _s3_matrix_table(fs):
    gens = (Perm.from_cycles(3, (1, 2)), Perm.from_cycles(3, (1, 2, 3)))
    return GroupTable([MatrixElement(fs, g.matrix()) for g in gens])


def test_condition3_witness_is_genuine(F5, S3):
    """The (3) witness is D3 recomputed from matrices, on S_3 and on its permutation matrices.

    lambda((1 2), v1) = 1_G: the identity coefficient moves v2 but not v1.
    lambda((1 2 3), v1) = 1_G: the witness reads a 3-cycle, whose matrix is
    not its transpose, so reading rows for columns changes the discrepancy.
    """
    table = _s3_matrix_table(F5)
    for g0 in (Perm.from_cycles(3, (1, 2)), Perm.from_cycles(3, (1, 2, 3))):
        perm_lam = LambdaParam(S3, F5, {(g0, 1): AlgebraElement.term(F5, S3.identity)})
        for lam in (perm_lam, _on_matrices(perm_lam, KappaParam(F5, 3), table)[0]):
            ok, witness = check_condition(3, lam, KappaParam(F5, 3))
            assert not ok
            g, h = witness.g, witness.h
            i, j = witness.indices
            cu = lam.coefficient(h, g, i)
            cv = lam.coefficient(h, g, j)
            hu, hv = _image(h, _unit(F5, 3, i), F5), _image(h, _unit(F5, 3, j), F5)
            gu, gv = _image(g, _unit(F5, 3, i), F5), _image(g, _unit(F5, 3, j), F5)
            expected = tuple(F5(cv * (a - b) - cu * (c - d)) for a, b, c, d in zip(hu, gu, hv, gv))
            assert expected == witness.discrepancy
            assert any(expected)


def test_condition4_witness_is_genuine(F5, S3):
    """The (4) witness is the cyclic sum recomputed from matrices, on S_3 and its matrices.

    kappa(v1, v2) = (1 2 3) alone breaks (4): at g = (1 2 3) the sum over
    (1, 2, 3) is ^g v3 - v3 = v1 - v3.
    """
    cyc = Perm.from_cycles(3, (1, 2, 3))
    perm_pair = (LambdaParam(S3, F5), KappaParam(F5, 3, {(1, 2): AlgebraElement.term(F5, cyc)}))
    for lam, kap in (perm_pair, _on_matrices(*perm_pair, _s3_matrix_table(F5))[:2]):
        ok, witness = check_condition(4, lam, kap)
        assert not ok
        g = witness.g
        i, j, k = witness.indices
        expected = [F5.zero] * 3
        for a, b, m in ((i, j, k), (j, k, i), (k, i, j)):
            c = kap.coefficient(g, a, b)
            vm = _unit(F5, 3, m)
            expected = [e + c * (x - y) for e, x, y in zip(expected, _image(g, vm, F5), vm)]
        assert tuple(map(F5, expected)) == witness.discrepancy == (F5.one, F5.zero, F5(-1))


def test_scaling_preserves_pbw(unit_block_n3, F5):
    lam, kap = unit_block_n3
    for c in range(5):
        lam2, kap2 = scale_params(F5(c), lam, kap)
        assert check_pbw(lam2, kap2).pbw


def test_perturbed_mu_fails_some_condition(F5):
    for seed in (0, 1, 2):
        lam, kap = random_params(3, F5, seed=seed, profile="perturbed-mu")
        report = check_pbw(lam, kap)
        assert not report.pbw
        assert report.first_witness() is not None


def _char2_pairs():
    """Pairs over F_2: seeded, the matrix-group fixture, golden rules and the n = 2 family."""
    fs = FieldSpec(2)
    for seed in range(8):
        yield ("general", 2, seed), *random_params(2, fs, seed=seed, profile="general")
    for n, seeds in ((3, range(6)), (4, range(2))):
        for profile in ("general", "mu-family", "perturbed-mu"):
            for seed in seeds:
                yield (profile, n, seed), *random_params(n, fs, seed=seed, profile=profile)
    yield "example_4_3", *build_char2_matrix_pair()
    for n in (3, 4):
        yield ("golden_rule", n), *golden_rule(n, fs)
    for point in product((fs.zero, fs.one), repeat=4):
        yield ("low_dim_family", point), *low_dim_family(2, point, fs)


def test_char2_engines_agree():
    """In characteristic 2 the five-condition test, in both modes, agrees with the oracle."""
    verdicts = Counter()
    fails = Counter()
    for label, lam, kap in _char2_pairs():
        reduced = check_pbw(lam, kap)
        full = check_pbw(lam, kap, exhaustive=True)
        assert (reduced.verdicts, reduced.witnesses) == (full.verdicts, full.witnesses), label
        rs = RewriteSystem(lam, kap)
        assert is_pbw(lam, kap) == full.pbw == rs.check_confluence(exhaustive=True)[0] == rs.is_confluent(), label
        verdicts[full.pbw] += 1
        fails.update(k for k, ok in full.verdicts.items() if not ok)
    # both verdicts occur, and each of the five conditions fails somewhere
    assert verdicts[True] and verdicts[False] and len(fails) == 5, (verdicts, fails)


def test_condition_quantification_is_multilinear(two_scalar_n4, F7):
    """Spot-check that basis quantification implies the general statement.

    Condition (2) evaluated on random non-basis vectors must also hold for
    a PBW pair; each side is linear in each slot, so basis checking
    suffices -- this test exercises that reasoning on concrete vectors.
    """
    lam, kap = two_scalar_n4
    u = (F7(2), F7(3), F7(0), F7(1))
    v = (F7(1), F7(4), F7(2), F7(0))
    cu, cv = column(u), column(v)
    for g in list(lam.group)[:8]:
        gu = column(_image(g, u, F7))
        gv = column(_image(g, v, F7))
        lhs = kap.eval(gu, gv).mul_right(g) - kap.eval(cu, cv).mul_left(g)
        rhs = lam.eval(lam.eval_vector(g, cv), cu) - lam.eval(lam.eval_vector(g, cu), cv)
        assert lhs == rhs


def test_diagnostics_on_pbw_fixtures(unit_block_n3, two_scalar_n4):
    for lam, kap in (unit_block_n3, two_scalar_n4):
        ok, problems = diagnose_kappa_support(lam, kap)
        assert ok, problems
        ok, problems = diagnose_lambda(lam)
        assert ok, problems


def test_diagnose_kappa_flags_three_cycle_support(unit_block_n3):
    lam, kap = unit_block_n3
    support = kap.support()
    assert support
    for g in support:
        cycles = [c for c in g.cycles() if len(c) > 1]
        assert len(cycles) == 1 and len(cycles[0]) == 3


def test_diagnose_vacuous_on_zero_kappa(F5, S3):
    lam = LambdaParam(S3, F5)
    ok, problems = diagnose_kappa_support(lam, KappaParam(F5, 3))
    assert ok and not problems


def test_lemma_suite_on_pbw_samples(F5):
    for seed in range(4):
        lam, kap = random_params(3, F5, seed=seed, profile="mu-family")
        results = lemma_suite(lam, kap)
        assert all(results.values()), results


def test_lemma_suite_golden_rule(F7):
    lam, kap = golden_rule(3, F7)
    results = lemma_suite(lam, kap)
    assert all(results.values()), results


def test_report_json_shape(unit_block_n3):
    report = check_pbw(*unit_block_n3)
    blob = report.to_json()
    assert blob["pbw"] is True
    assert set(blob["conditions"]) == {"1", "2", "3", "4", "5"}
    assert blob["witness"] is None
    assert "timing_ms" in blob


def test_witness_json_shape(F5, S3):
    lam = LambdaParam(S3, F5)
    kap = KappaParam(F5, 3, {(1, 2): AlgebraElement.term(F5, S3.identity)})
    report = check_pbw(lam, kap)
    blob = report.to_json()
    assert blob["pbw"] is False
    w = blob["witness"]
    assert w["condition"] in (2, 4, 5) and isinstance(w["indices"], list)


def test_vector_witness_serializes(F5, S3):
    # a condition-3 failure carries a coefficient-vector discrepancy
    s = Perm.from_cycles(3, (1, 2))
    lam = LambdaParam(S3, F5, {(s, 1): AlgebraElement.term(F5, S3.identity)})
    ok, witness = check_condition(3, lam, KappaParam(F5, 3))
    assert not ok
    blob = witness.to_json()
    assert blob["condition"] == 3
    assert isinstance(blob["discrepancy"], list)
    assert all(isinstance(x, str) for x in blob["discrepancy"])


def test_hmu_is_pbw_for_seeded_mus_n3_n4(F5, F3):
    for fs in (F5, F3):
        for n in (3, 4):
            for seed in (0, 1):
                lam, kap = random_params(n, fs, seed=seed, profile="mu-family")
                assert check_pbw(lam, kap).pbw


def test_checker_agrees_with_oracle_across_grid():
    """The two verdict engines agree on every tested (n, p) cell."""
    for n in (3, 4):
        for p in (0, 3, 5, 7):
            fs = FieldSpec(p)
            for seed in range(3):
                profile = ("general", "mu-family", "perturbed-mu")[seed % 3]
                lam, kap = random_params(n, fs, seed=seed + 100, profile=profile)
                cond = check_pbw(lam, kap).pbw
                conf = RewriteSystem(lam, kap).check_confluence()[0]
                assert cond == conf, (n, p, seed, profile)


def test_generator_sweep_matches_exhaustive():
    """Conditions (1), (3) and (2) on generators only give the exhaustive verdicts and witnesses."""
    reduced_fails = Counter()  # failures of k met by its reduced sweep, and those off the generators
    verdicts = Counter()
    for label, lam, kap in sweep_grid():
        reduced = check_pbw(lam, kap)
        full = check_pbw(lam, kap, exhaustive=True)
        assert reduced.verdicts == full.verdicts, label
        assert reduced.witnesses == full.witnesses, label
        assert is_pbw(lam, kap) == full.pbw, label
        verdicts[full.pbw] += 1
        # full is made of check_condition(k, exhaustive=True) for k = 1..5
        for k in range(1, 6):
            assert check_condition(k, lam, kap) == (full.verdicts[k], full.witnesses.get(k)), (label, k)
        v = full.verdicts
        for k, swept_on_generators in ((1, True), (3, v[1]), (2, v[1] and v[3])):
            if swept_on_generators and not v[k]:
                reduced_fails[k] += 1
                reduced_fails[k, "off"] += full.witnesses[k].g not in lam.group.generators
    # each reduced sweep fails somewhere, and somewhere at a witness the generators alone would not give
    assert all(reduced_fails[k] and reduced_fails[k, "off"] for k in (1, 3, 2)), reduced_fails
    assert verdicts[True] and verdicts[False], verdicts


def _reference_cond1(lam, kappa, gs=None):
    """Condition (1) in AlgebraElement arithmetic: the reference for the plain-dict sweep."""
    for g in lam.group if gs is None else gs:
        for h in lam.group:
            for i in range(1, lam.n + 1):
                rhs = lam.eval_vector(g, h.column(i)).mul_right(h) + lam.at(h, i).mul_left(g)
                lhs = lam.at(g * h, i)
                if lhs != rhs:
                    return Witness(1, g, h, (i,), lhs - rhs)
    return None


def _reference_cond2(lam, kappa, gs=None):
    """Condition (2) in AlgebraElement arithmetic: the reference for the plain-dict sweep."""
    one = lam.field.one
    for g in lam.group if gs is None else gs:
        for i in range(1, lam.n + 1):
            for j in range(i + 1, lam.n + 1):
                twisted = kappa.eval(g.column(i), g.column(j))
                lhs = twisted.mul_right(g) - kappa.at(i, j).mul_left(g)
                rhs = lam.eval(lam.at(g, j), ((i, one),)) - lam.eval(lam.at(g, i), ((j, one),))
                diff = lhs - rhs
                if diff:
                    return Witness(2, g, None, (i, j), diff)
    return None


def _report_json(report):
    """A report's verdicts and every witness, not only the first."""
    return report.verdicts, {k: w.to_json() for k, w in report.witnesses.items()}


def test_plain_dict_conditions_match_algebra_element_reference(monkeypatch):
    """Conditions (1) and (2) give the reference verdicts and witness JSON.

    Compared on the generator sweeps, and inside check_pbw in default and
    exhaustive mode, where the exhaustive report holds every witness on G.
    """
    fails = Counter()
    for label, lam, kap in chain(sweep_grid(), matrix_group_pairs()):
        gens = lam.group.generators
        for k, reference in ((1, _reference_cond1), (2, _reference_cond2)):
            w, ref = pbw._CONDITIONS[k](lam, kap, gens), reference(lam, kap, gens)
            assert (w and w.to_json()) == (ref and ref.to_json()), (label, k)
            fails[k, "on S"] += w is not None
        reports = [_report_json(check_pbw(lam, kap, exhaustive=e)) for e in (False, True)]
        with monkeypatch.context() as m:
            m.setitem(pbw._CONDITIONS, 1, _reference_cond1)
            m.setitem(pbw._CONDITIONS, 2, _reference_cond2)
            assert reports == [_report_json(check_pbw(lam, kap, exhaustive=e)) for e in (False, True)], label
        for k in (1, 2):
            fails[k, "on G"] += not reports[1][0][k]
            fails[k, "matrix"] += not reports[1][0][k] and not lam.group.is_permutation_group
    # both conditions fail somewhere: on the generators, on G and on a matrix group
    assert all(fails[k, where] for k in (1, 2) for where in ("on S", "on G", "matrix")), fails


def test_generator_sweep_finds_single_bad_entry(F5, S3):
    """A lambda that breaks the cocycle identity away from the generators is caught."""
    c = Perm.from_cycles(3, (1, 3, 2))
    assert c not in S3.generators
    lam = LambdaParam(S3, F5, {(c, 1): AlgebraElement.term(F5, c)})
    ok, witness = check_condition(1, lam, KappaParam(F5, 3))
    assert not ok
    assert witness == check_condition(1, lam, KappaParam(F5, 3), exhaustive=True)[1]


def test_generator_sweep_needs_every_generator(F5, S3):
    """A lambda with the identity at s = (1 2) for every h, but not a cocycle.

    With t = (2 3): lambda(t, v1) = 1 and lambda(st, v1) = s satisfy the
    identity at every (s, h), yet it fails at (t, t, 1) with discrepancy
    -2t.  So (1 2) alone is not enough, and both engines must also sweep
    the long cycle.
    """
    s, t = S3.generators[0], Perm.transposition(3, 2, 3)
    assert s == Perm.transposition(3, 1, 2) and t not in S3.generators
    lam = LambdaParam(
        S3, F5, {(t, 1): AlgebraElement.term(F5, S3.identity), (s * t, 1): AlgebraElement.term(F5, s)}
    )
    kap = KappaParam(F5, 3)
    ok, witness = check_condition(1, lam, kap, exhaustive=True)
    assert not ok and witness.g == witness.h == t and witness.indices == (1,)
    assert witness.discrepancy == AlgebraElement.term(F5, t, F5(-2))
    assert check_condition(1, lam, kap) == (ok, witness)
    rs = RewriteSystem(lam, kap)
    ok, wit = rs.check_confluence()
    assert not ok and wit.family == "group-group-var"
    assert (ok, wit) == rs.check_confluence(exhaustive=True)


def _on_matrices(lam, kappa, table):
    """The same pair with every permutation replaced by its matrix in `table`.

    Also returns the element map and its extension to FG.
    """
    fs = lam.field
    mat = {g: MatrixElement(fs, g.matrix()) for g in lam.group}

    def move(x):
        return AlgebraElement(fs, {mat[g]: c for g, c in x.items()})

    return (
        LambdaParam(table, fs, {(mat[g], i): move(v) for (g, i), v in lam.table.items()}),
        KappaParam(fs, kappa.n, {k: move(v) for k, v in kappa.table.items()}),
        mat,
        move,
    )


def test_matrix_branches_match_permutation_verdicts(F5):
    """S_3 as permutation matrices over F_5 behaves as S_3 itself.

    Every condition, the confluence oracle, the R2 rewrite rule and the
    averaging map run on the matrices' columns here.  The two tables sort
    their elements differently, so verdicts are compared as they are, and
    normal forms and gamma through the element map; witnesses are not.
    """
    gens = (Perm.from_cycles(3, (1, 2)), Perm.from_cycles(3, (1, 2, 3)))
    table = GroupTable([MatrixElement(F5, g.matrix()) for g in gens])
    assert len(table) == 6 and not table.is_permutation_group
    s, c = gens
    words = [(3, 2, 1), (c, 1), (s, 3, 2, 1), (2, c, s, 1, 1), (c, c, 3, 1, 2)]
    seen = set()
    for profile in ("general", "mu-family", "perturbed-mu"):
        for seed in range(6):
            lam, kap = random_params(3, F5, seed=seed, profile=profile)
            m_lam, m_kap, mat, move = _on_matrices(lam, kap, table)
            verdicts = check_pbw(lam, kap).verdicts
            assert check_pbw(m_lam, m_kap).verdicts == verdicts, (profile, seed)
            rs, m_rs = RewriteSystem(lam, kap), RewriteSystem(m_lam, m_kap)
            confluent = rs.check_confluence()[0]
            assert m_rs.check_confluence()[0] == confluent, (profile, seed)
            for word in words:
                nf = rs.normal_form({word: F5.one})
                m_word = tuple(t if isinstance(t, int) else mat[t] for t in word)
                expected = {NormalMonomial(m.exponents, mat[m.g]): x for m, x in nf.items()}
                assert m_rs.normal_form({m_word: F5.one}) == expected, (profile, seed, word)
            assert {i: move(x) for i, x in gamma(lam).items()} == gamma(m_lam), (profile, seed)
            seen.update(verdicts.items())
    # Each condition both passes and fails somewhere on the grid.
    assert seen == {(k, ok) for k in range(1, 6) for ok in (True, False)}
