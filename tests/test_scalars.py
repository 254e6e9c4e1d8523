from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhecke.scalars import (
    MAX_CHARACTERISTIC,
    FieldSpec,
    ModularObstruction,
    read_int,
)


def test_field_spec_validation():
    FieldSpec(0)
    FieldSpec(5)
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(-3)
    assert FieldSpec(2).characteristic == 2


def test_div_mod_5():
    F5 = FieldSpec(5)
    assert F5(F5(1) * F5.inv(F5(4))) == F5(4)  # 4*4 = 16 = 1


def test_rational_add():
    Q = FieldSpec(0)
    assert str(Q("1/2") + Q("1/3")) == "5/6"


def test_mul_mod_7():
    F7 = FieldSpec(7)
    assert F7(F7(3) * F7(5)) == F7(1)


def test_division_by_zero():
    F5 = FieldSpec(5)
    with pytest.raises(ZeroDivisionError):
        F5.inv(F5(0))


def test_inverse_of_integer():
    assert FieldSpec(7).inverse_of_integer(6) == FieldSpec(7)(6)  # 6*6 = 36 = 1
    assert str(FieldSpec(0).inverse_of_integer(6)) == "1/6"
    with pytest.raises(ModularObstruction):
        FieldSpec(3).inverse_of_integer(6)


def test_canonical_reduction_and_parsing():
    F5 = FieldSpec(5)
    assert F5(12) == F5(2)
    assert F5(-1) == F5(4)
    assert F5("7") == F5(2)
    assert F5("2/3") == F5(F5(2) * F5.inv(F5(3)))
    Q = FieldSpec(0)
    assert str(Q("4/6")) == "2/3"
    assert str(Q(-3)) == "-3"
    assert Q(str(Q("22/7"))) == Q("22/7")


@pytest.mark.parametrize("p", [0, 2, 5])
def test_printed_scalars_read_back(p):
    """fs(str(c)) == c for canonical scalars, negative fractions included."""
    fs = FieldSpec(p)
    values = {fs(Fraction(a, b)) for a in range(-12, 13) for b in range(1, 8) if not p or b % p}
    if not p:
        assert Fraction(-7, 6) in values
    for c in values:
        assert fs(str(c)) == c and fs(f" {c}\n") == c
    assert fs("+3") == fs(3)


@pytest.mark.parametrize("text", ["0_1", "٣", "-1/-2", "3/ 4", "3 /4", "1/+2", "- 1", "1e3", "0x10", "", "/2", "1/", "1/0", "2/00"])
def test_scalar_strings_outside_the_grammar_are_refused(text):
    for p in (0, 5):
        with pytest.raises(ValueError, match="is not a scalar"):
            FieldSpec(p)(text)


def test_read_int_is_the_scalar_grammar_without_a_fraction():
    assert [read_int(t) for t in ("7", " -3 ", "+12", "007")] == [7, -3, 12, 7]
    assert read_int(" 42 ", signed=False) == 42
    for text in ("0_3", "٧", "3/1", "", "1 2"):
        with pytest.raises(ValueError, match="is not an integer"):
            read_int(text)
    for text in ("+3", "-3"):
        with pytest.raises(ValueError, match="is not an integer"):
            read_int(text, signed=False)


def test_integral_rationals_are_ints():
    """Over Q an integral value is an int and any other a Fraction; str prints both alike."""
    Q = FieldSpec(0)
    for x in (Q(3), Q("6/2"), Q(Fraction(-4, 2)), Q.inv(Fraction(1, 3)), Q.inv(-1), Q.zero, Q.one):
        assert type(x) is int
    assert (Q("6/2"), Q(Fraction(-4, 2)), Q.inv(Fraction(1, 3)), Q.inv(-1)) == (3, -2, 3, -1)
    for x in (Q("1/2"), Q.inv(2), Q.inv(Fraction(-3, 2))):
        assert type(x) is Fraction
    assert (Q.inv(2), Q.inv(Fraction(-3, 2))) == (Fraction(1, 2), Fraction(-2, 3))
    assert str(Q(3)) == str(Fraction(3)) == "3"
    assert type(FieldSpec(5)(Fraction(1, 2))) is int


@pytest.mark.parametrize("spec", [FieldSpec(0), FieldSpec(5), FieldSpec(2)])
def test_field_spec_is_an_immutable_value(spec):
    for twin in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec), copy.copy(spec)):
        assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
        assert (twin.zero, twin.one) == (spec.zero, spec.one)
    with pytest.raises(AttributeError):
        spec.characteristic = 7
    assert repr(spec) == ("Q" if spec.characteristic == 0 else f"F{spec.characteristic}")
    assert FieldSpec(5) == FieldSpec(5) != FieldSpec(7)
    assert hash(FieldSpec(5)) == hash(FieldSpec(5))
    assert FieldSpec(5) != 5 and FieldSpec(0) != "Q"


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

    def add(x, y):
        return fs(x + y)

    def mul(x, y):
        return fs(x * y)

    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, fs(-a)) == fs.zero
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    if a:
        assert mul(a, fs.inv(a)) == fs.one


@settings(max_examples=40, derandomize=True)
@given(field_and_triple())
def test_canonical_form_bit_equal(data):
    fs, (a, b, _) = data
    x = fs(a + b)
    y = fs(b + a)
    assert x == y and hash(x) == hash(y) and str(x) == str(y)


def test_primality_is_exact_up_to_the_bound():
    """Miller-Rabin agrees with trial division, and refuses the strong pseudoprimes.

    318665857834031151167461 passes every base up to 37, so the first twelve
    primes alone would take it for a prime; the base 41 exposes it.
    """
    for p in range(2, 3000):
        expected = all(p % d for d in range(2, int(p**0.5) + 1))
        if expected:
            FieldSpec(p)
        else:
            with pytest.raises(ValueError):
                FieldSpec(p)
    for composite in (561, 3215031751, 3825123056546413051, 318665857834031151167461, 2**61 + 1):
        with pytest.raises(ValueError, match="prime"):
            FieldSpec(composite)
    for prime in (2**31 - 1, 10**18 + 3, 2**61 - 1):
        assert FieldSpec(prime).characteristic == prime


def test_characteristic_past_the_bound_is_refused_by_name():
    prime_31_digits = 10**30 + 57
    with pytest.raises(ValueError, match=str(prime_31_digits)):
        FieldSpec(prime_31_digits)
    with pytest.raises(ValueError, match="too large"):
        FieldSpec(MAX_CHARACTERISTIC)
