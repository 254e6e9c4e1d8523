from __future__ import annotations

import random
import re
from collections import Counter
from itertools import chain
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhecke import (
    AlgebraElement,
    FieldSpec,
    GroupTable,
    KappaParam,
    LambdaParam,
    NormalMonomial,
    Perm,
    RewriteSystem,
    build_H_mu,
    format_normal_form,
    golden_rule,
    params_from_json,
    parse_word_sum,
    random_params,
    symmetric_group,
)
from dhecke import pbw
from dhecke.cli import main
from dhecke.rewrite import MAX_WORD_TOKENS, StepBudgetExceeded, format_word, ranking

from conftest import FIXTURES, build_char2_matrix_pair, load_fixture, matrix_group_pairs, sweep_grid, unit_block_mu


def nf_of_word(rs, word, coeff=None):
    fs = rs.field
    return rs.normal_form({tuple(word): coeff or fs.one})


def test_normal_form_golden_rule_word(F7):
    lam, kap = golden_rule(3, F7)
    rs = RewriteSystem(lam, kap)
    g = Perm([2, 1, 3])
    nf = nf_of_word(rs, (g, 1))
    assert nf == {
        NormalMonomial((0, 1, 0), g): F7.one,
        NormalMonomial((0, 0, 0), g): F7.one,
    }
    assert format_normal_form(nf) == "v2·g[2,1,3] + g[2,1,3]"


def test_normal_form_unit_block_commutator(unit_block_n3, F5):
    lam, kap = unit_block_n3
    rs = RewriteSystem(lam, kap)
    nf = nf_of_word(rs, (2, 1))
    ident = Perm.identity(3)
    c123 = Perm.from_cycles(3, (1, 2, 3))
    c132 = Perm.from_cycles(3, (1, 3, 2))
    assert nf == {
        NormalMonomial((1, 1, 0), ident): F5.one,
        NormalMonomial((0, 0, 0), c123): F5(-1),
        NormalMonomial((0, 0, 0), c132): F5.one,
    }


def test_normal_form_group_square(F5, S3):
    rs = RewriteSystem(LambdaParam(S3, F5), KappaParam(F5, 3))
    g = Perm.from_cycles(3, (1, 2, 3))
    nf = nf_of_word(rs, (g, g))
    assert nf == {NormalMonomial((0, 0, 0), Perm.from_cycles(3, (1, 3, 2))): F5.one}


def test_confluence_trivial_pair(F5, S3):
    rs = RewriteSystem(LambdaParam(S3, F5), KappaParam(F5, 3))
    ok, wit = rs.check_confluence()
    assert ok and wit is None


def test_confluence_char2_matrix_pair():
    lam, kap = build_char2_matrix_pair()
    rs = RewriteSystem(lam, kap)
    ok, wit = rs.check_confluence()
    assert ok, wit


def test_confluence_failure_with_witness(F5, S3):
    lam = LambdaParam(S3, F5)
    kap = KappaParam(F5, 3, {(1, 2): AlgebraElement.term(F5, S3.identity)})
    rs = RewriteSystem(lam, kap)
    ok, wit = rs.check_confluence()
    assert not ok
    assert wit.family == "group-var-var"
    g, j, i = wit.word
    assert isinstance(g, Perm) and j > i
    # the two parses differ by a pure group-algebra term
    assert all(m.degree == 0 for m, _ in wit.difference)
    # re-reduce both parses of the witness word and reproduce the difference
    left = rs.normal_form((w, c) for w, c, _ in rs._apply_rule(wit.word, 0))
    right = rs.normal_form((w, c) for w, c, _ in rs._apply_rule(wit.word, 1))
    assert left != right
    diff = dict(left)
    for mono, c in right.items():
        diff[mono] = diff.get(mono, F5.zero) - c
    diff = {m: c for m, c in diff.items() if c}
    assert diff == dict(wit.difference)


def test_ranking_decreases_per_rule_family(unit_block_n3):
    """Every rule application strictly lowers the termination ranking."""
    lam, kap = unit_block_n3
    rs = RewriteSystem(lam, kap)
    g = Perm.from_cycles(3, (1, 2))
    h = Perm.from_cycles(3, (1, 2, 3))
    words = [
        (g, h),            # R1, no variables to the right
        (1, g, h),         # R1 after a variable
        (g, h, 2),         # R1 with a variable to the right
        (g, 1),            # R2
        (3, g, 1, 2),      # R2 inside a word (can raise inversion count)
        (2, 1),            # R3
        (h, 3, 2, 1),      # R3 to the right of a group token
    ]
    for word in words:
        pos = rs._find_redex(word, "leftmost")
        assert pos is not None
        before = ranking(word)
        for new_word, _, _ in rs._apply_rule(word, pos):
            assert ranking(new_word) < before, (word, new_word)


def test_r2_can_raise_inversions_but_still_ranks_down(F5):
    # g = (1 2) applied inside [g, v1, v2]: main term [v3-free] raises the
    # inversion count, so inversions alone cannot serve as the ranking.
    lam, kap = golden_rule(3, F5)
    rs = RewriteSystem(lam, kap)
    word = (Perm.from_cycles(3, (1, 3)), 1, 2)
    before = ranking(word)
    results = rs._apply_rule(word, 0)
    main = [w for w, _, drop in results if drop == 0][0]
    assert main[0] == 3  # image of v1 under (1 3)
    b_deg, b_dis, b_inv, _ = before
    m_deg, m_dis, m_inv, _ = ranking(main)
    assert m_inv > b_inv and m_dis < b_dis and m_deg == b_deg
    assert ranking(main) < before


def test_strategy_independence_on_confluent_system(unit_block_n3, F5):
    rs = RewriteSystem(*unit_block_n3)
    assert rs.check_confluence()[0]
    words = [
        (2, 1, Perm.from_cycles(3, (1, 2)), 1),
        (3, 2, 1),
        (Perm.from_cycles(3, (1, 3)), 3, 1, 2),
        (Perm.from_cycles(3, (1, 2, 3)), Perm.from_cycles(3, (1, 2)), 2, 1),
    ]
    for w in words:
        left = rs.normal_form({w: F5.one}, strategy="leftmost")
        right = rs.normal_form({w: F5.one}, strategy="rightmost")
        assert left == right


tokens3 = st.one_of(
    st.integers(1, 3),
    st.sampled_from(list(symmetric_group(3))),
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(tokens3, min_size=0, max_size=5))
def test_strategy_independence_random_words(word):
    fs = FieldSpec(5)
    lam, kap = build_H_mu(unit_block_mu(fs, 3))
    rs = RewriteSystem(lam, kap)
    w = tuple(word)
    assert rs.normal_form({w: fs.one}, "leftmost") == rs.normal_form({w: fs.one}, "rightmost")


def test_reduction_is_idempotent(unit_block_n3, F5):
    rs = RewriteSystem(*unit_block_n3)
    nf = rs.normal_form({(3, 1, 2, Perm.from_cycles(3, (1, 3, 2))): F5(2)})
    back = {}
    for mono, c in nf.items():
        word = tuple(
            i for i, e in enumerate(mono.exponents, start=1) for _ in range(e)
        ) + (mono.g,)
        back[word] = c
    assert rs.normal_form(back) == nf


def test_step_budget_guard(unit_block_n3, F5):
    lam, kap = unit_block_n3
    rs = RewriteSystem(lam, kap, step_budget=2)
    with pytest.raises(StepBudgetExceeded):
        rs.normal_form({(3, 2, 1, Perm.from_cycles(3, (1, 2))): F5.one})


def test_step_budget_counts_group_products(F5, S3):
    """A pure group word is multiplied out at once, but each product still counts."""
    rs = RewriteSystem(LambdaParam(S3, F5), KappaParam(F5, 3), step_budget=1)
    g = Perm.from_cycles(3, (1, 2, 3))
    with pytest.raises(StepBudgetExceeded):
        rs.normal_form({(g, g, g): F5.one})


def test_step_budget_names_the_overlap(unit_block_n3):
    rs = RewriteSystem(*unit_block_n3, step_budget=1)
    with pytest.raises(StepBudgetExceeded, match=r"while resolving the group-group-var overlap g\[") as exc:
        rs.check_confluence()
    word = str(exc.value).rsplit("overlap ", 1)[1]
    assert len(next(iter(parse_word_sum(word, rs.field, 3, rs.group)))) == 3


def test_format_word_reparses(F5, S3):
    w = (Perm.from_cycles(3, (1, 2)), 3, 1, Perm.identity(3))
    assert format_word(w) == "g[2,1,3] v3 v1 g[1,2,3]"
    assert parse_word_sum(format_word(w), F5, 3, S3) == {w: F5.one}


def unmerged_normal_form(rs, x, strategy):
    """Reference reducer: every stack entry on its own, equal words never summed."""
    fs = rs.field
    stack = list(x.items())
    out = {}
    while stack:
        word, coeff = stack.pop()
        pos = rs._find_redex(word, strategy)
        if pos is None:
            mono = rs._canonical(word)
            out[mono] = fs(out.get(mono, 0) + coeff)
            continue
        for new_word, factor, _ in rs._apply_rule(word, pos):
            c = fs(coeff * factor)
            if c:
                stack.append((new_word, c))
    return {mono: c for mono, c in out.items() if c}


EQUIVALENCE_PAIRS = {
    "example_1_1_n3": lambda: params_from_json(load_fixture("example_1_1_n3.json")),
    "example_4_3": lambda: params_from_json(load_fixture("example_4_3.json")),
    "Q mu-family": lambda: random_params(3, FieldSpec(0), seed=3, profile="mu-family"),
    "F5 perturbed-mu": lambda: random_params(3, FieldSpec(5), seed=0, profile="perturbed-mu"),
}


@pytest.mark.parametrize("label", EQUIVALENCE_PAIRS)
def test_layered_normal_form_matches_unmerged_reference(label):
    """Summing equal words per v-degree layer changes no normal form, confluent or not."""
    lam, kap = EQUIVALENCE_PAIRS[label]()
    rs = RewriteSystem(lam, kap)
    fs, group = rs.field, list(rs.group)
    rng = random.Random(f"layered|{label}")
    sums = []
    for _ in range(12):
        x = {}
        for _ in range(rng.randint(1, 3)):
            word = tuple(
                rng.randint(1, rs.n) if rng.random() < 0.7 else rng.choice(group)
                for _ in range(rng.randint(0, 7))
            )
            x[word] = fs(x.get(word, 0) + rng.choice((1, 2, -1)))
        sums.append(x)
    ok, wit = rs.check_confluence()
    assert ok == (label != "F5 perturbed-mu")
    if not ok:
        sums.append({wit.word: fs.one})
    for x in sums:
        for strategy in ("leftmost", "rightmost"):
            assert rs.normal_form(x, strategy) == unmerged_normal_form(rs, x, strategy), (x, strategy)
    if not ok:
        # not confluent: the two strategies disagree on the witness word
        assert rs.normal_form({wit.word: fs.one}, "leftmost") != rs.normal_form({wit.word: fs.one}, "rightmost")


def test_layered_normal_form_bounds_deep_reduction():
    """v3^4 v2^4 v1^4 on example_1_1_n3 took 16-58 s unmerged on a 2-CPU host; summed
    per layer it needs fewer than 200,000 steps under either strategy."""
    lam, kap = params_from_json(load_fixture("example_1_1_n3.json"))
    rs = RewriteSystem(lam, kap, step_budget=200_000)
    x = parse_word_sum("v3^4 v2^4 v1^4", rs.field, rs.n, rs.group)
    left = rs.normal_form(x, "leftmost")
    assert left == rs.normal_form(x, "rightmost")
    assert len(left) == 437


def test_parse_word_sum_round_trip(F5):
    x = parse_word_sum("2 v1 v2 - g[2,1,3] v1", F5, 3)
    g = Perm([2, 1, 3])
    assert x == {(1, 2): F5(2), (g, 1): F5(-1)}
    # formatted output re-parses to the same sum for reduced inputs
    lam, kap = build_H_mu(unit_block_mu(F5, 3))
    rs = RewriteSystem(lam, kap)
    nf = rs.normal_form(x)
    rendered = format_normal_form(nf)
    reparsed = parse_word_sum(rendered, F5, 3)
    assert rs.normal_form(reparsed) == nf


def test_parse_word_sum_matrix_tokens():
    fs = FieldSpec(2)
    x = parse_word_sum("M[[1,1],[0,1]] v1", fs, 2)
    ((word, coeff),) = x.items()
    assert coeff == fs.one
    assert word[1] == 1 and word[0].rows[0][1] == fs.one


def test_parse_word_sum_exponents(F5):
    assert parse_word_sum("v1^3", F5, 3) == {(1, 1, 1): F5.one}


def test_parse_word_sum_bounds_word_length(F5):
    (word,) = parse_word_sum(f"v1^{MAX_WORD_TOKENS}", F5, 3)
    assert len(word) == MAX_WORD_TOKENS
    with pytest.raises(ValueError, match=re.escape(f"v1^{MAX_WORD_TOKENS}")):
        parse_word_sum(f"v2 v1^{MAX_WORD_TOKENS}", F5, 3)
    with pytest.raises(ValueError, match=re.escape("v3^1000000000")):
        parse_word_sum("v1 + v3^1000000000", F5, 3)


# More digits than int() reads on its own (4300 since Python 3.11 and some 3.10 releases).
LONG_ONES = "1" * 5000


def _normal_form_error(capsys, word):
    code = main(["normal-form", "--input", str(FIXTURES / "golden_rule.json"), "--word", word])
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1
    return err


def test_normal_form_refuses_a_power_of_many_digits_by_its_token(capsys):
    err = _normal_form_error(capsys, f"v1^{LONG_ONES}")
    assert f"token v1^{LONG_ONES} makes its word longer than {MAX_WORD_TOKENS} tokens" in err


def test_normal_form_refuses_a_variable_index_of_many_digits_by_its_token(capsys):
    err = _normal_form_error(capsys, f"v{LONG_ONES}")
    assert f"variable index out of range: v{LONG_ONES}" in err


def test_parse_word_sum_errors(F5):
    with pytest.raises(ValueError):
        parse_word_sum("v9", F5, 3)
    with pytest.raises(ValueError):
        parse_word_sum("frog", F5, 3)
    with pytest.raises(ValueError):
        parse_word_sum("v1 2", F5, 3)  # scalar must prefix the word
    with pytest.raises(ValueError):
        parse_word_sum("", F5, 3)


@pytest.mark.parametrize("text, token", [("v1^-1", "v1^-1"), ("٣ v1", "٣"), ("v2 - v1^+2", "v1^+2"), ("v١", "v١")])
def test_parse_word_sum_refusals_quote_the_whole_token(F5, text, token):
    with pytest.raises(ValueError, match=re.escape(f"cannot parse token {token!r}")):
        parse_word_sum(text, F5, 3)


def test_parse_word_sum_reads_spaces_inside_brackets(F5):
    s3 = symmetric_group(3)
    assert parse_word_sum("g[2, 1, 3] v1", F5, 3, s3) == parse_word_sum("g[2,1,3] v1", F5, 3, s3)
    F2 = FieldSpec(2)
    spaced = parse_word_sum("M[[1, 1], [0, 1]] v1 - M[ [1,0] ,[0,1] ]·v2", F2, 2)
    assert spaced == parse_word_sum("M[[1,1],[0,1]] v1 - M[[1,0],[0,1]]·v2", F2, 2)


def test_format_zero(F5):
    assert format_normal_form({}) == "0"


def test_generator_overlaps_match_exhaustive():
    """Overlaps with a group token first, on generators only, give the exhaustive verdicts and witnesses."""
    fails = Counter()  # failing families, and those whose witness is off the generators
    verdicts = Counter()
    for label, lam, kap in sweep_grid():
        rs = RewriteSystem(lam, kap)
        reduced = rs.check_confluence()
        full = rs.check_confluence(exhaustive=True)
        assert reduced == full, label
        ok, wit = full
        assert rs.is_confluent() == ok, label
        verdicts[ok] += 1
        if not ok:
            fails[wit.family] += 1
            if wit.family != "var-var-var":
                fails[wit.family, "off"] += wit.word[0] not in lam.group.generators
    for family in ("group-group-var", "group-var-var"):
        assert fails[family] and fails[family, "off"], fails
    assert verdicts[True] and verdicts[False], verdicts


def test_generator_overlaps_char2_matrix_group():
    """example_4_3 (characteristic 2, a matrix group) and a broken variant of it."""
    lam, kap = params_from_json(load_fixture("example_4_3.json"))
    rs = RewriteSystem(lam, kap)
    assert rs.check_confluence() == rs.check_confluence(exhaustive=True) == (True, None)
    assert rs.is_confluent()
    # lambda(1, v_1) = 1 breaks the cocycle identity at g = 1, which is not a generator
    fs = lam.field
    one = lam.group.identity
    assert one not in lam.group.generators
    table = dict(lam.table)
    table[(one, 1)] = AlgebraElement.term(fs, one)
    rs = RewriteSystem(LambdaParam(lam.group, fs, table), kap)
    ok, wit = rs.check_confluence()
    assert not ok and wit.family == "group-group-var" and wit.word[0] == one
    assert (ok, wit) == rs.check_confluence(exhaustive=True)
    assert not rs.is_confluent()


def _fast_path_pairs():
    """Seeded mu-family and perturbed-mu pairs at n = 3, 4, and two fixtures."""
    for n in (3, 4):
        for p in (3, 5, 7, 0):
            for profile in ("mu-family", "perturbed-mu"):
                yield f"{profile} n={n} p={p}", *random_params(n, FieldSpec(p), seed=n + p, profile=profile)
    for name in ("example_4_3.json", "example_3_4.json"):  # a matrix group in characteristic 2, and S_4
        yield name, *params_from_json(load_fixture(name))


def test_group_group_var_fast_path_matches_general_reducer():
    """On every group-group-var word, the fast path resolves exactly when both normal forms agree."""
    verdicts = Counter()
    for label, lam, kap in _fast_path_pairs():
        rs = RewriteSystem(lam, kap)
        for family, word in rs.overlap_words(exhaustive=True):
            if family == "group-group-var":
                resolves = rs._resolve(family, word) is None
                assert rs._resolves_fast(word) == resolves, (label, format_word(word))
                verdicts[resolves] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_group_var_var_fast_path_matches_general_reducer():
    """On every group-var-var word, the closed form resolves exactly when both normal forms agree.

    Also on matrix groups whose columns hold coefficients other than 1.
    """
    verdicts = Counter()
    for label, lam, kap in chain(_fast_path_pairs(), matrix_group_pairs()):
        rs = RewriteSystem(lam, kap)
        for family, word in rs.overlap_words(exhaustive=True):
            if family == "group-var-var":
                resolves = rs._resolve(family, word) is None
                assert rs._resolves_fast_gvv(word) == resolves, (label, format_word(word))
                verdicts[resolves] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_group_var_var_budget_overrun_names_the_overlap(F5):
    """A budget below a group-var-var overlap's rules sends it to the general reducer, which names it.

    With lambda = 0 each parse of a group-group-var overlap applies at most
    two rules, so those pass the budget of 3.  The left parse of the first
    group-var-var overlap (s, v_3, v_2), s = (1 2), applies four: R2 on
    (s, v_2), R3 on (v_3, v_1), and R1 on the two terms of kappa(v_1, v_3).
    """
    _, kap = random_params(3, F5, seed=2, profile="mu-family")
    assert len(kap.at(1, 3)) == 2
    rs = RewriteSystem(LambdaParam(symmetric_group(3), F5), kap, step_budget=3)
    for family, word in rs.overlap_words():
        if family == "group-group-var":
            rs._resolve(family, word)
    word = (Perm([2, 1, 3]), 3, 2)
    assert ("group-var-var", word) == next(fw for fw in rs.overlap_words() if fw[0] == "group-var-var")
    with pytest.raises(StepBudgetExceeded) as general:
        rs._resolve("group-var-var", word)
    message = "exceeded 3 reduction steps while resolving the group-var-var overlap g[2,1,3] v3 v2"
    assert str(general.value) == message
    for verdict in (rs.is_confluent, rs.check_confluence):
        with pytest.raises(StepBudgetExceeded, match=re.escape(message)):
            verdict()


def test_var_var_var_fast_path_matches_general_reducer():
    """On every var-var-var word, the closed form resolves exactly when both normal forms agree.

    Also on matrix groups whose columns hold coefficients other than 1, and over F_2.
    """
    verdicts = Counter()
    char2 = ((f"general n=3 p=2 seed={seed}", *random_params(3, FieldSpec(2), seed=seed)) for seed in range(4))
    for label, lam, kap in chain(_fast_path_pairs(), matrix_group_pairs(), char2):
        rs = RewriteSystem(lam, kap)
        for family, word in rs.overlap_words():
            if family == "var-var-var":
                resolves = rs._resolve(family, word) is None
                assert rs._resolves_fast_vvv(word) == resolves, (label, format_word(word))
                verdicts[lam.field.characteristic == 2, resolves] += 1
    assert verdicts[False, True] and verdicts[False, False], verdicts
    assert verdicts[True, True] and verdicts[True, False], verdicts


def _count_normal_form_calls(rs):
    """A Counter that counts the calls of rs.normal_form from now on."""
    calls = Counter()
    normal_form = rs.normal_form
    rs.normal_form = lambda *args: calls.update(["nf"]) or normal_form(*args)
    return calls


def test_fast_path_leaves_normal_form_to_the_other_families(F5):
    """A PBW pair calls normal_form on no overlap, and on every overlap when exhaustive."""
    lam, kap = random_params(4, F5, seed=2, profile="mu-family")
    rs = RewriteSystem(lam, kap)
    calls = _count_normal_form_calls(rs)
    assert rs.check_confluence() == (True, None)
    assert calls["nf"] == 0
    assert rs.check_confluence(exhaustive=True) == (True, None)
    assert calls["nf"] == 2 * len(rs.overlap_words(exhaustive=True))


def test_is_confluent_never_calls_normal_form():
    """Under the default budget every overlap is decided by its closed form, pass or fail."""
    verdicts = Counter()
    for label, lam, kap in _fast_path_pairs():
        rs = RewriteSystem(lam, kap)
        calls = _count_normal_form_calls(rs)
        verdicts[rs.is_confluent()] += 1
        assert calls["nf"] == 0, label
    assert verdicts[True] and verdicts[False], verdicts


def _count_constructions(monkeypatch):
    """A Counter of the FG elements constructed from now on ("fg"), and of the pbw witnesses holding one."""
    calls = Counter()
    init = AlgebraElement.__init__
    monkeypatch.setattr(AlgebraElement, "__init__", lambda self, *args: calls.update(["fg"]) or init(self, *args))
    witness = pbw.Witness
    monkeypatch.setattr(
        pbw, "Witness", lambda *args: calls.update(["witness"] * isinstance(args[-1], AlgebraElement)) or witness(*args)
    )
    return calls


def test_sweeps_read_stored_parameter_values(monkeypatch):
    """No sweep of either engine builds an FG element, except as the discrepancy of a witness.

    Kappa keeps both orientations: kappa(v_j, v_i) is stored once, and
    kappa(v_i, v_i) is the empty element.
    """
    pairs = list(_fast_path_pairs())
    pairs.append(("mu-family n=5 p=7", *random_params(5, FieldSpec(7), seed=2, profile="mu-family")))
    verdicts = Counter()
    for label, lam, kap in pairs:
        for i in range(1, kap.n + 1):
            assert kap.at(i, i) == AlgebraElement(kap.field) and not kap.at(i, i), label
            for j in range(i + 1, kap.n + 1):
                assert kap.at(j, i) is kap.at(j, i) and kap.at(j, i) == -kap.at(i, j), (label, i, j)
        rs = RewriteSystem(lam, kap)
        calls = _count_constructions(monkeypatch)
        verdict = pbw.is_pbw(lam, kap)
        assert pbw.check_pbw(lam, kap).pbw == verdict
        assert rs.is_confluent() == verdict
        assert rs.check_confluence()[0] == verdict
        assert calls["fg"] == calls["witness"], label
        if verdict:
            assert calls["fg"] == 0, label
        verdicts[verdict] += 1
        monkeypatch.undo()
    assert verdicts[True] and verdicts[False], verdicts


def test_var_var_var_budget_overrun_names_the_overlap(F5):
    """A budget every other overlap meets, but a var-var-var parse does not, names that overlap.

    G = <(1 2)> acts on F^4, lambda = 0, and kappa(v_i, v_j) = 1 + (1 2) for
    i < j, except kappa(v_1, v_2) = 0.  Each closed form of a
    group-group-var overlap applies 5 rules.  Those of the group-var-var
    overlaps apply up to 10, so they pass the budget of 5, and the general
    reducer decides them in at most 4 per parse.  (v_4, v_3, v_2) comes
    first among the var-var-var overlaps; its closed form applies 12 rules,
    and its left parse 6: R3 on (v_4, v_2) and on (v_3, v_2), and R2 on the
    two terms of kappa(v_2, v_3) and of kappa(v_3, v_4).
    """
    s = Perm([2, 1, 3, 4])
    group = GroupTable([s])
    two_terms = AlgebraElement(F5, {group.identity: 1, s: 1})
    kap = KappaParam(F5, 4, {(i, j): two_terms for i in range(1, 5) for j in range(i + 1, 5) if (i, j) != (1, 2)})
    rs = RewriteSystem(LambdaParam(group, F5), kap, step_budget=5)
    for family, word in rs.overlap_words():
        if family == "group-group-var":
            assert rs._resolves_fast(word)
        elif family == "group-var-var":
            assert rs._resolves_fast_gvv(word) is None and rs._resolve(family, word) is None
    word = (4, 3, 2)
    assert ("var-var-var", word) == next(fw for fw in rs.overlap_words() if fw[0] == "var-var-var")
    assert rs._resolves_fast_vvv(word) is None
    message = "exceeded 5 reduction steps while resolving the var-var-var overlap v4 v3 v2"
    for verdict in (rs.is_confluent, rs.check_confluence):
        with pytest.raises(StepBudgetExceeded, match=f"^{re.escape(message)}$"):
            verdict()


@pytest.mark.parametrize("n", (3, 4, 5))
def test_overlap_counts(F5, n):
    """|S||G|n + |S|C(n,2) + C(n,3) overlaps, or |G|^2 n + |G|C(n,2) + C(n,3) when exhaustive."""
    group = symmetric_group(n)
    rs = RewriteSystem(LambdaParam(group, F5), KappaParam(F5, n))
    s = len(group.generators)
    assert len(rs.overlap_words()) == s * len(group) * n + s * comb(n, 2) + comb(n, 3)
    assert len(rs.overlap_words(exhaustive=True)) == len(group) ** 2 * n + len(group) * comb(n, 2) + comb(n, 3)
    if n == 5:
        assert len(rs.overlap_words()) == 1230


def test_parse_word_sum_rejects_tokens_outside_group(F7):
    lam, _ = params_from_json(load_fixture("golden_rule.json"))
    group = lam.group
    assert parse_word_sum("g[2,1,3] v1", F7, 3, group) == {(Perm([2, 1, 3]), 1): F7.one}
    for word in ("g[2,1] v1", "g[2,1] v3", "M[[1,1],[0,1]] v1", "M[[1,0,0],[0,1,0],[0,0,1]] v1"):
        with pytest.raises(ValueError):
            parse_word_sum(word, F7, 3, group)
    # without a group, a token must still act on F^n
    with pytest.raises(ValueError):
        parse_word_sum("g[2,1] v1", F7, 3)
    lam2, _ = params_from_json(load_fixture("example_4_3.json"))
    with pytest.raises(ValueError):
        parse_word_sum("M[[1,0],[1,1]] v1", lam2.field, 2, lam2.group)
    assert parse_word_sum("M[[1,1],[0,1]] v1", lam2.field, 2, lam2.group)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.text(alphabet="vgM[],/0123456789+-^ ·٣", max_size=24))
def test_parse_word_sum_fuzz_returns_or_raises_value_error(text):
    """Any word text either parses or raises ValueError.

    An exponent expands into at most MAX_WORD_TOKENS tokens, so '^' is safe
    to fuzz.  A refusal of a token quotes it as it stands in the text.
    """
    fs = FieldSpec(5)
    try:
        x = parse_word_sum(text, fs, 3, symmetric_group(3))
    except ValueError as exc:
        quoted = re.fullmatch(r"cannot parse token '(.*)'", str(exc))
        assert quoted is None or quoted[1] in text
        return
    for word in x:
        assert all(isinstance(t, int) or t in symmetric_group(3) for t in word)
