from __future__ import annotations

import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhecke import (
    FieldSpec,
    LambdaParam,
    MatrixElement,
    NormalMonomial,
    Perm,
    format_normal_form,
    params_from_json,
    symmetric_group,
)
from dhecke.groups import ClosureCapExceeded, GroupTable, parse_element
from dhecke.linalg import same_subspace

from conftest import build_char2_matrix_pair, load_fixture, matrix_group_pairs


def test_compose_convention():
    # (1 2) after (2 3): i=1 -> 1 -> 2, i=2 -> 3, i=3 -> 2 -> 1
    g = Perm.from_cycles(3, (1, 2))
    h = Perm.from_cycles(3, (2, 3))
    assert g * h == (2, 3, 1)
    assert g * h == Perm.from_cycles(3, (1, 2, 3))


def test_compose_inverse():
    g = Perm([3, 1, 4, 2])
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


def test_compose_mismatched():
    with pytest.raises(ValueError):
        Perm([2, 1]) * Perm([2, 1, 3])
    with pytest.raises(TypeError):
        Perm([2, 1]) * MatrixElement(FieldSpec(5), [[FieldSpec(5).one]])


def test_matrix_involution_over_f2():
    fs = FieldSpec(2)
    g = MatrixElement(fs, [[fs.one, fs.one], [fs.zero, fs.one]])
    assert (g * g).is_identity()


def test_act_on_vector():
    # (1 2 3) sends v1 to v2, and the identity fixes every basis vector
    fs = FieldSpec(5)
    g = Perm.from_cycles(3, (1, 2, 3))
    assert g.column(1) == ((2, fs.one),)
    ident = Perm.identity(3)
    assert [ident.column(i) for i in (1, 2, 3)] == [((i, fs.one),) for i in (1, 2, 3)]


def test_matrix_action_example():
    # [[1,1],[0,1]] over F2 sends the second basis vector to v + w
    fs = FieldSpec(2)
    g = MatrixElement(fs, [[fs.one, fs.one], [fs.zero, fs.one]])
    assert g.column(2) == ((1, fs.one), (2, fs.one))


def test_reflection_length():
    assert Perm.identity(3).fixed_space_codim() == 0
    assert Perm.from_cycles(3, (1, 2, 3)).fixed_space_codim() == 2
    assert Perm.from_cycles(4, (1, 2), (3, 4)).fixed_space_codim() == 2


def test_fixed_space_codim():
    assert Perm.from_cycles(4, (2, 3)).fixed_space_codim() == 1
    assert Perm.from_cycles(3, (1, 2, 3)).fixed_space_codim() == 2
    fs = FieldSpec(2)
    g = MatrixElement(fs, [[fs.one, fs.one], [fs.zero, fs.one]])
    assert g.fixed_space_codim() == 1


def test_perm_codim_matches_matrix_rank():
    # cycle-count formula vs rank of (M - I), over a couple of fields
    for fs in (FieldSpec(5), FieldSpec(0)):
        for g in symmetric_group(4):
            m = MatrixElement(fs, g.matrix())
            assert g.fixed_space_codim() == m.fixed_space_codim()


def test_enumerate_symmetric_groups():
    s1 = Perm.from_cycles(3, (1, 2))
    s2 = Perm.from_cycles(3, (2, 3))
    assert len(GroupTable([s1, s2])) == 6
    gens4 = [Perm.from_cycles(4, (k, k + 1)) for k in (1, 2, 3)]
    assert len(GroupTable(gens4)) == 24


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_group_elements_unchanged(n):
    """Built by closure, the table keeps the sorted one-line enumeration."""
    expected = tuple(Perm(p) for p in sorted(permutations(range(1, n + 1))))
    assert symmetric_group(n).elements == expected


def test_symmetric_group_generators():
    for n in range(3, 7):
        assert symmetric_group(n).generators == (
            Perm.transposition(n, 1, 2),
            Perm.from_cycles(n, tuple(range(1, n + 1))),
        )
    # the two generators coincide for n <= 2 and are recorded once
    assert symmetric_group(2).generators == (Perm([2, 1]),)
    assert symmetric_group(1).generators == (Perm([1]),)


def test_enumerate_group_records_generators():
    s1 = Perm.from_cycles(3, (1, 2))
    s2 = Perm.from_cycles(3, (2, 3))
    assert GroupTable([s1, s2]).generators == (s1, s2)
    fs = FieldSpec(2)
    g = MatrixElement(fs, [[fs.one, fs.one], [fs.zero, fs.one]])
    assert GroupTable([g]).generators == (g,)


def test_group_table_needs_a_generator():
    with pytest.raises(ValueError, match="at least one generator"):
        GroupTable([])


def test_group_table_is_the_closure_of_its_generators():
    """diag(4, 1) alone generates a group of order 2 over F_5, not the Klein four-group."""
    F5 = FieldSpec(5)
    flip = MatrixElement(F5, [[4, 0], [0, 1]])
    table = GroupTable([flip])
    assert table.elements == (MatrixElement(F5, [[1, 0], [0, 1]]), flip)
    assert table.generators == (flip,) and table.generators[0] is table.member(flip, "flip")
    with pytest.raises(ValueError, match=re.escape("M[[1,0],[0,4]] is not in the enumerated group")):
        LambdaParam(table, F5, {(MatrixElement(F5, [[1, 0], [0, 4]]), 1): F5.one})


def _tables_under_test():
    """S_3 to S_5, the matrix groups of `matrix_group_pairs`, and both example 4.3 tables."""
    tables = [symmetric_group(n) for n in (3, 4, 5)]
    tables += list({id(lam.group): lam.group for _, lam, _ in matrix_group_pairs()}.values())
    tables += [build_char2_matrix_pair()[0].group, params_from_json(load_fixture("example_4_3.json"))[0].group]
    return tables


def test_every_element_is_a_positive_word_in_the_generators():
    """A walk from the identity along product(s, .) for the generators s reaches the whole table."""
    for table in _tables_under_test():
        reached = {table.identity}
        frontier = [table.identity]
        while frontier:
            frontier = [y for x in frontier for s in table.generators if (y := table.product(s, x)) not in reached]
            reached.update(frontier)
        assert reached == set(table.elements), table.generators


def test_group_table_rows_are_its_own_products():
    """product(g, h) is g * h, and the table's own object when g has a row.

    A row is kept for every element when |G| <= |S| n, else for each generator.
    """
    small = []
    for table in _tables_under_test():
        members = {id(g) for g in table}
        small.append(len(table) <= len(table.generators) * table.n)
        with_rows = set(table if small[-1] else table.generators)
        for g in table:
            for h in table:
                gh = table.product(g, h)
                assert gh == g * h
                assert (id(gh) in members) == (g in with_rows)
    assert small == [True, False, False, False, False, False, True, True]


def test_parse_element_reads_repr_back_as_the_tables_own_object():
    """parse_element(repr(g)) is g itself, spaced or not, for every element of each table."""
    tables = [symmetric_group(3), symmetric_group(4), params_from_json(load_fixture("example_4_3.json"))[0].group]
    tables += list({id(lam.group): lam.group for _, lam, _ in matrix_group_pairs()}.values())
    for table in tables:
        fs = table.field or FieldSpec(0)
        for g in table:
            text = repr(g)
            assert parse_element(text, fs, table.n, table) is g
            assert parse_element(text.replace(",", ", ").replace("[", "[ "), fs, table.n, table) is g
            assert parse_element(text, fs, table.n) == g


def test_parse_element_refusals_name_the_token():
    s3 = symmetric_group(3)
    F5 = FieldSpec(5)
    for token, why in (
        ("g[2,1]", "does not act on F^3"),
        ("g[1,2,3,4]", "does not act on F^3"),
        ("g[2,2,3]", "not a permutation"),
        ("g[+2,1,3]", "is not an integer"),
        ("g[٢,1,3]", "is not an integer"),
        ("g[2,1,3", "not an element written"),
        ("M[[1,0,0],[0,1,0],[0,0,1]]", "is not in the declared group"),
        ("M[[1,0],[0,1]", "not an element written"),
    ):
        with pytest.raises(ValueError, match=re.escape(why)) as exc:
            parse_element(token, F5, 3, s3)
        assert token in str(exc.value)


def test_group_table_kind_from_elements():
    """The field and the kind come from the elements, worked out once."""
    s3 = symmetric_group(3)
    assert s3.field is None
    assert s3.is_permutation_group and s3.is_symmetric_group
    a3 = GroupTable([Perm.from_cycles(3, (1, 2, 3))])
    assert a3.is_permutation_group and not a3.is_symmetric_group
    lam, _ = params_from_json(load_fixture("example_4_3.json"))
    assert lam.group.field == FieldSpec(2)
    assert not lam.group.is_permutation_group and not lam.group.is_symmetric_group


def test_enumerate_matrix_group():
    fs = FieldSpec(2)
    g = MatrixElement(fs, [[fs.one, fs.one], [fs.zero, fs.one]])
    table = GroupTable([g])
    assert len(table) == 2


def test_enumerate_cap():
    gens4 = [Perm.from_cycles(4, (k, k + 1)) for k in (1, 2, 3)]
    with pytest.raises(ClosureCapExceeded):
        GroupTable(gens4, cap=10)


def test_singular_matrix_rejected():
    fs = FieldSpec(5)
    with pytest.raises(ValueError):
        MatrixElement(fs, [[fs.one, fs.one], [fs.one, fs.one]])


def test_group_table_lookup(S3):
    for g in S3:
        assert g.inverse() * g == S3.identity
        for h in S3:
            assert g * h in S3


def test_adjacent_transpositions(S3):
    assert S3.adjacent_transposition(1) == Perm.from_cycles(3, (1, 2))
    assert S3.adjacent_transposition(2) == Perm.from_cycles(3, (2, 3))
    # s_n = (n 1), and indices wrap modulo n
    assert S3.adjacent_transposition(3) == Perm.from_cycles(3, (3, 1))
    assert S3.adjacent_transposition(4) == S3.adjacent_transposition(1)


def test_cycle_notation_parse():
    # "(1 2 3)" means 1->2->3->1, i.e. images [2, 3, 1]
    assert Perm.from_cycles(3, (1, 2, 3)) == (2, 3, 1)
    assert Perm.from_cycles(4, (2, 4)) == (1, 4, 3, 2)


def test_group_elements_have_value_semantics(S3, S4):
    """A Perm is its image tuple, matrices order row-major, and the two kinds never meet."""
    g = Perm([3, 1, 4, 2])
    assert g == (3, 1, 4, 2) and hash(g) == hash((3, 1, 4, 2))
    assert [tuple(x) for x in sorted(S4)] == sorted(permutations(range(1, 5)))
    assert S4.elements == tuple(sorted(S4))

    fs = FieldSpec(5)
    mats = GroupTable([MatrixElement(fs, s.matrix()) for s in S3.generators])
    row_major = [tuple(x for row in m.rows for x in row) for m in sorted(reversed(mats.elements))]
    assert row_major == sorted(row_major) and len(row_major) == 6
    assert [tuple(x for row in m.rows for x in row) for m in mats] == row_major

    s = Perm.from_cycles(3, (1, 2))
    m = MatrixElement(fs, s.matrix())
    assert s != m and m != s
    assert m in mats and s not in mats
    assert s in S3 and m not in S3

    with pytest.raises(AttributeError):
        g.images = (1, 2, 3, 4)

    # NormalMonomials print by sort_key (descending degree first), not in tuple order.
    ident = S3.identity
    low, high = NormalMonomial((0, 0, 0), ident), NormalMonomial((0, 1, 0), ident)
    assert sorted([high, low]) == [low, high]
    assert sorted([low, high], key=NormalMonomial.sort_key) == [high, low]
    assert format_normal_form({low: 1, high: 1}) == "v2·g[1,2,3] + g[1,2,3]"


perms3 = st.sampled_from(list(symmetric_group(3)))


@settings(max_examples=50, derandomize=True)
@given(perms3, perms3, st.integers(1, 3))
def test_action_is_homomorphism(g, h, i):
    """^{gh} v_i is h's column i pushed through g's columns, for perms and their matrices."""
    fs = FieldSpec(5)
    for a, b in ((g, h), (MatrixElement(fs, g.matrix()), MatrixElement(fs, h.matrix()))):
        pushed = {}
        for k, c in b.column(i):
            for m, x in a.column(k):
                pushed[m] = pushed.get(m, fs.zero) + c * x
        assert (a * b).column(i) == tuple(sorted((m, x) for m, x in pushed.items() if x))


def test_length_additivity_implies_fixed_space_intersection(S4):
    """When lengths add, the fixed space of the product is the intersection."""
    fs = FieldSpec(5)
    checked = 0
    for g in S4:
        for h in S4:
            gh = g * h
            if g.fixed_space_codim() + h.fixed_space_codim() != gh.fixed_space_codim():
                continue
            checked += 1
            inter_rank_input = g.fixed_space_basis() + h.fixed_space_basis()
            # V^g cap V^h = V^{gh} iff dim(V^g) + dim(V^h) - dim(V^g + V^h) = dim(V^{gh})
            from dhecke.linalg import rank

            dim_sum_space = rank(fs, inter_rank_input)
            dim_inter = len(g.fixed_space_basis()) + len(h.fixed_space_basis()) - dim_sum_space
            assert dim_inter == len(gh.fixed_space_basis())
            # and the intersection is contained in V^{gh}, hence equal
            assert same_subspace(
                fs,
                _intersect(fs, g.fixed_space_basis(), h.fixed_space_basis()),
                gh.fixed_space_basis(),
            )
    assert checked > 24  # the additive pairs are plentiful in S4


def _intersect(fs, basis_a, basis_b):
    """Intersection of two row spans via the kernel of the stacked system."""
    from dhecke.linalg import nullspace

    n = len(basis_a[0]) if basis_a else len(basis_b[0])
    # x in span(A) cap span(B): solve [A^T | -B^T] coefficients
    cols = len(basis_a) + len(basis_b)
    system = [
        [basis_a[j][i] if j < len(basis_a) else -basis_b[j - len(basis_a)][i] for j in range(cols)]
        for i in range(n)
    ]
    out = []
    for coeffs in nullspace(fs, system, cols):
        vec = [fs.zero] * n
        for j in range(len(basis_a)):
            for i in range(n):
                vec[i] = fs(vec[i] + coeffs[j] * basis_a[j][i])
        if any(vec):
            out.append(tuple(vec))
    return out


def test_closure_over_q_refuses_an_element_of_infinite_order():
    """Over Q every element must satisfy g^12 = 1 on F^2; the first that does not is named.

    The two reflections have order 2, but their product is a shear of
    infinite order, so the check runs on every new element, not only on
    the generators.
    """
    Q = FieldSpec(0)
    with pytest.raises(ValueError, match=r"M\[\[1,1\],\[0,1\]\] has infinite order"):
        GroupTable([MatrixElement(Q, [[1, 1], [0, 1]])])
    reflections = [MatrixElement(Q, [[-1, 0], [0, 1]]), MatrixElement(Q, [[-1, 1], [0, 1]])]
    assert all((r * r).is_identity() for r in reflections)
    with pytest.raises(ValueError, match="infinite order"):
        GroupTable(reflections)


def test_finite_matrix_groups_over_q_still_close():
    Q = FieldSpec(0)
    s3 = GroupTable([MatrixElement(Q, g.matrix()) for g in symmetric_group(3).generators])
    assert len(s3) == 6
    rotation = MatrixElement(Q, [[0, -1], [1, 1]])  # order 6
    assert len(GroupTable([rotation])) == 6
