from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhecke import AlgebraElement, FieldSpec, Perm, symmetric_group

F5 = FieldSpec(5)
F3 = FieldSpec(3)
S3 = symmetric_group(3)


def term(g, c=1, fs=F5):
    return AlgebraElement.term(fs, g, fs(c))


def test_add_identity():
    x = term(Perm.from_cycles(3, (1, 2)))
    assert x + AlgebraElement(F5) == x


def test_torsion_over_f3():
    g = Perm.from_cycles(3, (1, 2))
    x = term(g, 1, F3)
    assert not (x.scale(F3(2)) + x)


def test_cancellation():
    g = Perm.from_cycles(3, (1, 2))
    h = Perm.from_cycles(3, (1, 3))
    assert (term(g) - term(h)) + term(h) == term(g)


def test_difference_of_squares():
    # ((1 2) + 1)((1 2) - 1) = 0 since (1 2)^2 = 1
    s = Perm.from_cycles(3, (1, 2))
    one = AlgebraElement.term(F5, S3.identity)
    x = term(s) + one
    y = term(s) - one
    assert not (x * y)


def test_scalars_commute():
    # scalar multiples of the identity are central
    x = AlgebraElement.term(F5, S3.identity, F5(2))
    y = term(Perm.from_cycles(3, (1, 2, 3)), 3)
    assert x * y == y * x


def test_three_cycle_square():
    c = Perm.from_cycles(3, (1, 2, 3))
    sq = term(c) * term(c)
    assert sq == term(Perm.from_cycles(3, (1, 3, 2)))


def test_conjugation_examples():
    h = Perm.from_cycles(3, (1, 2))
    x = term(Perm.from_cycles(3, (1, 2, 3)))
    assert x.conjugate_by(h) == term(Perm.from_cycles(3, (1, 3, 2)))
    assert x.conjugate_by(S3.identity) == x
    one = AlgebraElement.term(F5, S3.identity)
    assert one.conjugate_by(h) == one


def test_coefficient_extraction():
    g = Perm.from_cycles(3, (1, 2))
    h = Perm.from_cycles(3, (2, 3))
    x = term(g) - term(h)
    assert x.get(g, 0) == F5(1)
    assert AlgebraElement(F5).get(g, 0) == F5(0)


def test_mixed_context_rejected():
    with pytest.raises(ValueError):
        term(Perm.from_cycles(3, (1, 2)), 1, F5) + term(Perm.from_cycles(3, (1, 2)), 1, F3)


def test_canonical_no_zero_terms():
    g = Perm.from_cycles(3, (1, 2))
    x = term(g) - term(g)
    assert not x and dict(x) == {}


def test_equality_and_hashing():
    """Equal elements share a field and their items; a plain dict is never equal to one."""
    g = Perm.from_cycles(3, (1, 2))
    h = Perm.from_cycles(3, (1, 2, 3))
    over_f5 = AlgebraElement(F5, {g: 1, h: 2})
    over_f7 = AlgebraElement(FieldSpec(7), {g: 1, h: 2})
    assert dict(over_f5) == dict(over_f7)
    assert over_f5 != over_f7 and not over_f5 == over_f7
    plain = {g: 1, h: 2}
    assert dict(over_f5) == plain
    assert over_f5 != plain and plain != over_f5
    assert not over_f5 == plain and not plain == over_f5
    same = AlgebraElement(F5, {h: 7, g: 6})  # reduced mod 5, and given in another order
    assert same == over_f5 and hash(same) == hash(over_f5)
    assert len({over_f5, same, over_f7}) == 2 and same in {over_f5}
    assert AlgebraElement(F5, {g: 5, h: 2}) == AlgebraElement(F5, {h: 2})
    assert g not in AlgebraElement(F5, {g: 5, h: 2})


elements = st.sampled_from(list(S3))


@st.composite
def algebra_elements(draw):
    n_terms = draw(st.integers(0, 3))
    acc = {}
    for _ in range(n_terms):
        g = draw(elements)
        acc[g] = F5(draw(st.integers(0, 4)))
    return AlgebraElement(F5, acc)


@settings(max_examples=60, derandomize=True)
@given(algebra_elements(), algebra_elements(), algebra_elements())
def test_associativity_and_distributivity(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60, derandomize=True)
@given(elements, algebra_elements(), algebra_elements())
def test_conjugation_is_an_automorphism(h, x, y):
    assert (x * y).conjugate_by(h) == x.conjugate_by(h) * y.conjugate_by(h)
    assert (x + y).conjugate_by(h) == x.conjugate_by(h) + y.conjugate_by(h)
