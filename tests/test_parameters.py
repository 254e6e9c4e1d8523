from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhecke import (
    AlgebraElement,
    FieldSpec,
    GroupTable,
    LambdaParam,
    Perm,
    act_on_kappa,
    act_on_lambda,
    KappaParam,
    check_pbw,
    extract_mu,
    golden_rule,
    params_from_json,
    params_to_json,
    random_params,
    symmetric_group,
)
from dhecke.classify import _read_betas
from dhecke.groups import ClosureCapExceeded
from dhecke.linalg import column
from dhecke.parameters import element_from_json
from dhecke.scalars import CharTwoUnsupported, ModularObstruction

from conftest import FIXTURES, build_char2_matrix_pair, load_fixture, make_fixtures

FIXTURE_PAYLOADS = make_fixtures.fixtures()


def test_kappa_alternating(unit_block_n3, F5):
    _, kap = unit_block_n3
    v = column((F5(1), F5(2), F5(3)))
    assert not kap.eval(v, v)
    e1, e2 = ((1, F5.one),), ((2, F5.one),)
    assert kap.eval(e2, e1) == -kap.eval(e1, e2)


def test_unit_block_kappa_value(unit_block_n3, F5):
    _, kap = unit_block_n3
    c123 = Perm.from_cycles(3, (1, 2, 3))
    c132 = Perm.from_cycles(3, (1, 3, 2))
    assert kap.at(1, 2) == AlgebraElement(F5, {c123: F5.one, c132: -F5.one})
    assert kap.coefficient(c123, 1, 2) == F5.one


def test_lambda_eval_bilinear(unit_block_n3, F5):
    lam, _ = unit_block_n3
    ident = lam.group.identity
    # lambda(1, v) = 0 for the unit-block pair
    for i in (1, 2, 3):
        assert not lam.at(ident, i)
    # golden-rule shape: lambda(g, v_i) = (g(i) - i) g
    for g in lam.group:
        for i in (1, 2, 3):
            expected = (
                AlgebraElement.term(F5, g, F5(g(i) - i)) if g(i) != i else AlgebraElement(F5)
            )
            assert lam.at(g, i) == expected
    # zero first slot
    e1 = ((1, F5.one),)
    assert not lam.eval(AlgebraElement(F5), e1)
    # FG-valued first slot is the linear extension
    g1 = Perm.from_cycles(3, (1, 2))
    g2 = Perm.from_cycles(3, (1, 2, 3))
    x = AlgebraElement(F5, {g1: F5(2), g2: F5(3)})
    assert lam.eval(x, e1) == lam.at(g1, 1).scale(F5(2)) + lam.at(g2, 1).scale(F5(3))


def test_act_identity_fixes_parameters(unit_block_n3):
    lam, kap = unit_block_n3
    ident = lam.group.identity
    assert act_on_kappa(ident, kap) == kap
    assert act_on_lambda(ident, lam) == lam


def test_unit_block_kappa_invariant(unit_block_n3):
    lam, kap = unit_block_n3
    for h in lam.group:
        assert act_on_kappa(h, kap) == kap


def test_act_then_inverse_is_identity(two_scalar_n4):
    lam, kap = two_scalar_n4
    for h in list(lam.group)[:6]:
        hinv = h.inverse()
        assert act_on_kappa(hinv, act_on_kappa(h, kap)) == kap
        assert act_on_lambda(hinv, act_on_lambda(h, lam)) == lam


def test_parameter_action_is_group_action(F5):
    """Acting by h then h' equals acting by h'h, exhaustively over S3 pairs.

    Uses an unconstrained random pair so the action actually moves the
    tables (an invariant kappa would make this test vacuous).
    """
    lam, kap = random_params(3, F5, seed=9, profile="general")
    assert any(act_on_kappa(h, kap) != kap for h in lam.group)
    for h in lam.group:
        for hp in lam.group:
            assert act_on_kappa(hp, act_on_kappa(h, kap)) == act_on_kappa(hp * h, kap)
            assert act_on_lambda(hp, act_on_lambda(h, lam)) == act_on_lambda(hp * h, lam)


def test_parameter_action_matrix_group():
    """The twisted action works for matrix groups too; this kappa is fixed."""
    lam, kap = build_char2_matrix_pair()
    for h in lam.group:
        assert act_on_kappa(h, kap) == kap
        assert act_on_lambda(h, lam).table.keys() == lam.table.keys()


def test_parameter_action_preserves_pbw_verdict(F5):
    """Acting by any h transports a pair to one with the same PBW verdict.

    The substitution v -> ^h v, g -> h g h^-1 is an isomorphism of the
    ambient free algebra carrying one relation set onto the other, so both
    verdicts must be stable under it.
    """
    for seed in range(4):
        profile = ("general", "mu-family", "perturbed-mu")[seed % 3]
        lam, kap = random_params(3, F5, seed=seed, profile=profile)
        base = check_pbw(lam, kap).pbw
        for h in lam.group:
            assert check_pbw(act_on_lambda(h, lam), act_on_kappa(h, kap)).pbw == base


def test_alpha_beta_of_golden_rule(F5):
    lam, kap = golden_rule(4, F5)
    mu = extract_mu(lam, kap)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert not mu.a_at(i, j)
    assert mu.b == (F5.one, F5.one, F5.one)
    assert _read_betas(lam)[3] == F5(1 - 4)


def test_alpha_beta_of_zero(F5):
    lam = LambdaParam(symmetric_group(3), F5)
    mu = extract_mu(lam, KappaParam(F5, 3))
    assert all(not mu.a_at(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j)
    assert all(not b for b in _read_betas(lam))


def test_alpha_beta_of_two_scalar_pair(F7, two_scalar_n4):
    lam, kap = two_scalar_n4
    mu = extract_mu(lam, kap)
    assert mu.a_at(1, 2) == F7(1)
    assert mu.a_at(1, 3) == F7(1)
    assert mu.a_at(2, 3) == F7(2)
    for (i, j) in [(1, 4), (2, 4), (3, 4)]:
        assert not mu.a_at(i, j)
    assert all(not b for b in _read_betas(lam))


def test_alpha_beta_gates():
    with pytest.raises(CharTwoUnsupported):
        lam, kap = build_char2_matrix_pair()
        extract_mu(lam, kap)
    F5 = FieldSpec(5)
    with pytest.raises(ValueError):
        extract_mu(LambdaParam(symmetric_group(2), F5), KappaParam(F5, 2))


def test_beta_sum_zero_on_pbw_samples(F5):
    """beta_n as read off lambda, not as MuParams derives it, cancels the others."""
    for seed in range(6):
        lam, kap = random_params(3, F5, seed=seed, profile="mu-family")
        assert not F5(sum(_read_betas(lam)))


def test_alpha_re_expansion_reproduces_lambda(F5):
    """The extracted a- and b-scalars rebuild the full lambda table exactly."""
    for seed in (3, 11):
        lam, kap = random_params(4, F5, seed=seed, profile="mu-family")
        mu = extract_mu(lam, kap)
        n = 4
        for g in lam.group:
            for i in range(1, n + 1):
                coeffs = {}
                total = F5.zero
                for k in range(0, g(i) - i + n):
                    total = total + mu.b_at(i + k)
                if total:
                    coeffs[g] = total
                for j in range(1, n + 1):
                    if j == i:
                        continue
                    c = mu.a_at(i, j) - mu.a_at(g(i), g(j))
                    if c:
                        t = g * Perm.transposition(n, i, j)
                        coeffs[t] = coeffs.get(t, F5.zero) + c
                assert lam.at(g, i) == AlgebraElement(F5, coeffs)


def test_random_params_deterministic(F5):
    a = random_params(3, F5, seed=42, profile="general")
    b = random_params(3, F5, seed=42, profile="general")
    assert a[0] == b[0] and a[1] == b[1]
    c = random_params(3, F5, seed=43, profile="general")
    assert a[0] != c[0] or a[1] != c[1]


def test_mu_family_always_pbw(F5):
    for seed in range(5):
        lam, kap = random_params(3, F5, seed=seed, profile="mu-family")
        assert check_pbw(lam, kap).pbw


def test_perturbed_mu_never_pbw(F5):
    for seed in range(5):
        lam, kap = random_params(3, F5, seed=seed, profile="perturbed-mu")
        assert not check_pbw(lam, kap).pbw


def test_json_round_trip(two_scalar_n4):
    lam, kap = two_scalar_n4
    blob = json.dumps(params_to_json(lam, kap), sort_keys=True, indent=2)
    lam2, kap2 = params_from_json(json.loads(blob))
    assert lam2 == lam and kap2 == kap
    blob2 = json.dumps(params_to_json(lam2, kap2), sort_keys=True, indent=2)
    assert blob == blob2


def test_json_round_trip_matrix_group():
    lam, kap = build_char2_matrix_pair()
    data = params_to_json(lam, kap)
    lam2, kap2 = params_from_json(data)
    assert lam2 == lam and kap2 == kap


def test_json_round_trip_keeps_matrix_generators():
    """A loaded matrix group is written back with its generators, not all of G."""
    data = load_fixture("example_4_3.json")
    assert params_to_json(*params_from_json(data))["group"] == data["group"]


def test_params_to_json_refuses_permutation_subgroup(F5):
    """The file format has no type for a proper permutation subgroup, so none is written."""
    group = GroupTable([Perm.from_cycles(3, (1, 2, 3))])
    with pytest.raises(ValueError, match=r"g\[2,3,1\]"):
        params_to_json(LambdaParam(group, F5), KappaParam(F5, 3))


@pytest.mark.parametrize("name", sorted(FIXTURE_PAYLOADS))
def test_make_fixtures_reproduces_committed_fixture(name):
    rendered = make_fixtures.render(FIXTURE_PAYLOADS[name])
    assert rendered == (FIXTURES / name).read_text(encoding="utf-8")


def test_json_rejects_bad_kappa_order(unit_block_n3):
    lam, kap = unit_block_n3
    data = params_to_json(lam, kap)
    data["kappa"][0]["i"], data["kappa"][0]["j"] = (
        data["kappa"][0]["j"],
        data["kappa"][0]["i"],
    )
    with pytest.raises(ValueError):
        params_from_json(data)


def test_absent_lambda_entries_read_as_zero(F5):
    group = symmetric_group(3)
    data = {
        "characteristic": 5,
        "n": 3,
        "group": {"type": "symmetric_permutation", "n": 3},
        "lambda": [],
        "kappa": [],
    }
    lam, kap = params_from_json(data)
    assert lam.is_zero() and kap.is_zero()
    assert not lam.at(group.identity, 1)


# JSON values for the fuzz below.  Integers stay small, digit strings short
# and matrix groups 2 x 2, so any group that does parse is small.
_FIELDS = ["characteristic", "n", "group", "type", "generators", "lambda", "kappa", "g", "i", "j", "value", "coeff"]
_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 3),
    st.text(alphabet="012/-x", max_size=2),
    st.sampled_from(["symmetric_permutation", "matrix"]),
)
_json = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_FIELDS), inner, max_size=4),
    max_leaves=12,
)
_coeffs = st.sampled_from([0, 1, 2, -3, "4", "1/2", "-2/3", "x", None, 1.5])


@st.composite
def _param_files(draw):
    """A parameter file that is mostly well formed, with up to two fields broken or missing."""
    n = draw(st.integers(1, 3))
    if n == 3 or draw(st.booleans()):
        group = {"type": "symmetric_permutation", "n": n}
        elements = st.permutations(range(1, n + 1)).map(list)
    else:
        entries = st.lists(_coeffs, min_size=n * n, max_size=n * n)
        group = {"type": "matrix", "generators": draw(st.lists(entries, min_size=1, max_size=2))}
        elements = entries
    values = st.lists(st.fixed_dictionaries({"g": elements, "coeff": _coeffs}), max_size=2)
    indices = st.integers(0, n + 1)
    data = {
        "characteristic": draw(st.sampled_from([0, 2, 3, 5, "5"])),
        "n": n,
        "group": group,
        "lambda": draw(st.lists(st.fixed_dictionaries({"g": elements, "i": indices, "value": values}), max_size=3)),
        "kappa": draw(st.lists(st.fixed_dictionaries({"i": indices, "j": indices, "value": values}), max_size=3)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(_json)
    return data


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_param_files() | _json)
def test_params_from_json_fuzz_returns_or_raises_input_errors(data):
    """Any JSON value either parses or raises an error the CLI reports with exit 2."""
    try:
        lam, kap = params_from_json(data)
    except (ValueError, ModularObstruction, ClosureCapExceeded):
        return
    assert isinstance(lam, LambdaParam) and isinstance(kap, KappaParam)
    assert lam.n == kap.n == int(data["n"])


def _mu_file(fs, n=3, seed=3):
    lam, kap = random_params(n, fs, seed=seed, profile="mu-family")
    return (lam, kap), json.loads(json.dumps(params_to_json(lam, kap)))


def test_params_from_json_returns_the_tables_own_elements(F5):
    (lam, kap), data = _mu_file(F5, n=4)
    lam2, kap2 = params_from_json(data)
    assert (lam2, kap2) == (lam, kap)
    members = {id(g) for g in lam2.group}
    values = list(lam2.table.values()) + list(kap2.table.values())
    assert all(id(g) in members for g, _ in lam2.table)
    assert all(id(h) in members for val in values for h in val)
    group = lam2.group
    assert element_from_json([2, 1, 3, 4], group) is group.lookup([2, 1, 3, 4]) is group.elements[6]


def test_group_lookup_takes_only_plain_int_images(S3):
    g = Perm([2, 1, 3])
    assert S3.lookup([2, 1, 3]) == g
    assert S3.lookup([True, 2, 3]) is None  # JSON true equals 1, but is not an image
    assert S3.lookup(["2", 1, 3]) is None
    assert S3.lookup([1, 2, 3, 4]) is None
    assert S3.lookup((2, 1, 3)) is None and S3.lookup({"g": 1}) is None
    matrices = params_from_json(load_fixture("example_4_3.json"))[0].group
    assert matrices.lookup([1, 0, 0, 1]) is None


def _set_g(where, g):
    def edit(data):
        entry = data
        for key in where:
            entry = entry[key]
        entry["g"] = g

    return edit


def _append_term(kind, k, term):
    return lambda data: data[kind][k]["value"].append(term)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_g(("lambda", 4), [True, 2, 3]), "lambda entry 4 field 'g' entry 0 must be an integer, got True"),
        (_set_g(("lambda", 4), [1, 2, 3, 4]), "element g[1,2,3,4] is not in the declared group"),
        (_set_g(("lambda", 4, "value", 1), [2, 1, True]), "lambda entry 4 value term 1 field 'g' entry 2 must be an integer, got True"),
        (_set_g(("lambda", 4, "value", 1), [2, "2", 3]), "not a permutation of 1..3: (2, 2, 3)"),
        (_append_term("kappa", 0, {"g": [2, 1], "coeff": "1"}), "element g[2,1] is not in the declared group"),
        (
            _append_term("lambda", 4, {"g": [2, 1, 3], "coeff": True}),
            "lambda entry 4 value term 2 field 'coeff' must be a scalar such as \"3\" or \"-1/2\", got True",
        ),
        (
            _append_term("kappa", 1, {"g": [2, 1, 3], "coeff": True}),
            "kappa entry 1 value term 2 field 'coeff' must be a scalar such as \"3\" or \"-1/2\", got True",
        ),
        (_append_term("kappa", 1, {"coeff": "1"}), "kappa entry 1 value term 2 is missing the field 'g'"),
    ],
)
def test_params_from_json_refusals_name_the_input(F5, edit, message):
    """The table lookup accepts only plain int images; everything else is refused as before, by name."""
    _, data = _mu_file(F5)
    edit(data)
    with pytest.raises(ValueError) as exc:
        params_from_json(data)
    assert str(exc.value) == message


def test_params_from_json_still_reads_digit_strings(F5):
    (lam, kap), data = _mu_file(F5)
    entry = next(e for e in data["lambda"] if e["g"] == [2, 1, 3] and e["value"])
    entry["g"] = ["2", "1", "3"]
    entry["value"][0]["g"] = [str(x) for x in entry["value"][0]["g"]]
    assert params_from_json(data) == (lam, kap)
