from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhecke.scalars import (
    CharTwoUnsupported,
    FieldSpec,
    ModularObstruction,
)


def test_field_spec_validation():
    FieldSpec(0)
    FieldSpec(5)
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(-3)
    with pytest.raises(CharTwoUnsupported):
        FieldSpec(2)
    assert FieldSpec(2, allow_char2=True).characteristic == 2


def test_override_flag_does_not_split_the_field():
    # scalars from differently-flagged char-2 specs interoperate
    a = FieldSpec(2, allow_char2=True)
    b = FieldSpec(2, allow_char2=True)
    assert a == b
    assert a(1) + b(1) == a(0)


def test_div_mod_5():
    F5 = FieldSpec(5)
    assert F5(1) / F5(4) == F5(4)  # 4*4 = 16 = 1


def test_rational_add():
    Q = FieldSpec(0)
    assert str(Q("1/2") + Q("1/3")) == "5/6"


def test_mul_mod_7():
    F7 = FieldSpec(7)
    assert F7(3) * F7(5) == F7(1)


def test_division_by_zero():
    F5 = FieldSpec(5)
    with pytest.raises(ZeroDivisionError):
        F5(1) / F5(0)


def test_mixed_field_operands():
    with pytest.raises(ValueError):
        FieldSpec(5)(1) + FieldSpec(7)(1)


def test_inverse_of_integer():
    assert FieldSpec(7).inverse_of_integer(6) == FieldSpec(7)(6)  # 6*6 = 36 = 1
    assert str(FieldSpec(0).inverse_of_integer(6)) == "1/6"
    with pytest.raises(ModularObstruction):
        FieldSpec(3).inverse_of_integer(6)


def test_canonical_reduction_and_parsing():
    F5 = FieldSpec(5)
    assert F5(12) == F5(2)
    assert F5(-1) == F5(4)
    assert F5.parse("7") == F5(2)
    assert F5("2/3") == F5(2) / F5(3)
    Q = FieldSpec(0)
    assert str(Q("4/6")) == "2/3"
    assert str(Q(-3)) == "-3"
    assert Q.parse(str(Q("22/7"))) == Q("22/7")


fields = st.sampled_from([FieldSpec(0), FieldSpec(3), FieldSpec(5), FieldSpec(7)])


@st.composite
def field_and_triple(draw):
    fs = draw(fields)
    vals = draw(st.tuples(*[st.integers(-20, 20)] * 3))
    return fs, tuple(fs(v) for v in vals)


@settings(max_examples=60, derandomize=True)
@given(field_and_triple())
def test_field_axioms(data):
    fs, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == fs.zero
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inverse() == fs.one


@settings(max_examples=40, derandomize=True)
@given(field_and_triple())
def test_canonical_form_bit_equal(data):
    fs, (a, b, _) = data
    x = a + b
    y = b + a
    assert x == y and hash(x) == hash(y) and str(x) == str(y)
