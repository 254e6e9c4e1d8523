"""Exact field arithmetic over prime fields F_p and the rationals.

Every prime p gives a field, 2 included: the operations whose formulas
divide by 2 or 4 refuse characteristic 2 themselves (CharTwoUnsupported),
and both PBW verdicts, which divide by nothing, accept it.

A scalar is a plain number in canonical form: an ``int`` in ``0..p-1`` over
F_p; over Q an ``int`` when it is integral and an arbitrary-precision
``Fraction`` otherwise, so that integer arithmetic over Q stays on ints.
:class:`FieldSpec` is the one ring object: ``fs(x)`` is the canonical image
of an int, a ``Fraction`` or a string ``[+-]?d+(/d+)?`` in ASCII digits,
the one grammar of written scalars; ``fs.inv(x)`` inverts, and ``fs.zero``
and ``fs.one`` are plain values.

Python's own operators do the arithmetic, so their results need not be
canonical: over F_p a negation or a sum may leave ``0..p-1``, and over Q a
product of Fractions may be a ``Fraction`` with denominator 1.  That one
equals, hashes and prints (through ``str``) as the int it stands for, so
mixing the two changes no comparison and no output.  Whatever is
stored (a table entry, a witness, a normal form) goes through ``fs(...)``
first, or through the ``AlgebraElement`` constructor, which reduces its
coefficients.  There is no scalar division: ``/`` on two ints gives a float,
so every quotient is a product with ``fs.inv``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Union

# A canonical scalar; the type of every coefficient in the engine.
Scalar = Union[int, Fraction]


# A written scalar, after stripping: a signed numerator and a nonzero denominator, in ASCII digits.
_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def read_int(text: str, signed: bool = True) -> int:
    """The integer `text` writes in the scalar grammar, with no "/" and, unless `signed`, no sign."""
    m = _SCALAR.fullmatch(text.strip())
    if m is None or m[2] or not (signed or m[1][0].isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(m[1])


class ModularObstruction(ArithmeticError):
    """An integer that must be inverted is divisible by the characteristic."""


class StepBudgetExceeded(RuntimeError):
    """Reduction ran past the step budget (termination bug guard).

    check_confluence names the overlap word in the message.  Defined here,
    and re-exported by rewrite, so that the CLI maps it to its message
    without loading the rewriting engine.
    """


class CharTwoUnsupported(ValueError):
    """Raised where characteristic 2 is refused.

    `extract_mu` refuses it because its formulas divide by 4 and 2, and the
    CLI's `build --char 2` without `--force-char2` because the
    classification is stated only away from 2.  Both PBW verdicts divide by
    nothing and accept characteristic 2.
    """


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below MAX_CHARACTERISTIC (OEIS A014233; the first 12 alone are exact only
# below 3.18e23).  A larger characteristic is refused rather than guessed.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < MAX_CHARACTERISTIC."""
    if p < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """A prime field F_p (any prime p, 2 included) or Q (p = 0).

    Immutable; two specs are equal when their characteristics are.
    """

    __slots__ = ("characteristic", "zero", "one")

    def __init__(self, characteristic: int) -> None:
        p = characteristic
        if p < 0:
            raise ValueError(f"characteristic must be >= 0, got {p}")
        if p >= MAX_CHARACTERISTIC:
            raise ValueError(
                f"characteristic {p} is too large: primality is exact only below {MAX_CHARACTERISTIC}"
            )
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")
        object.__setattr__(self, "characteristic", p)
        object.__setattr__(self, "zero", self(0))
        object.__setattr__(self, "one", self(1))

    def __setattr__(self, *_):
        raise AttributeError("FieldSpec is immutable")

    def __reduce__(self):
        # pickle and copy rebuild a spec through __init__, which the __setattr__ above requires.
        return FieldSpec, (self.characteristic,)

    def __eq__(self, other) -> bool:
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self) -> int:
        return hash((self.characteristic,))

    def __call__(self, value: Union[int, Fraction, str]) -> Scalar:
        """The canonical image of an int, a Fraction, or a string in the scalar grammar."""
        if isinstance(value, str):
            m = _SCALAR.fullmatch(value.strip())
            if m is None:
                raise ValueError(f"{value!r} is not a scalar such as \"3\" or \"-1/2\"")
            return self(int(m[1]) if m[2] is None else Fraction(int(m[1]), int(m[2])))
        p = self.characteristic
        if p == 0:
            if type(value) is int:
                return value
            q = Fraction(value)
            return q.numerator if q.denominator == 1 else q
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise ModularObstruction(f"denominator of {value} vanishes mod {p}")
            return value.numerator * pow(value.denominator, -1, p) % p
        return int(value) % p

    def vanishes(self, values: Iterable[Scalar]) -> bool:
        """Whether every value, a plain int or Fraction not yet reduced mod p, is zero in the field."""
        p = self.characteristic
        return not any(c % p for c in values) if p else not any(values)

    def inv(self, x: Scalar) -> Scalar:
        """1/x for a nonzero scalar x."""
        if not x:
            raise ZeroDivisionError("scalar inverse of zero")
        p = self.characteristic
        return pow(x, -1, p) if p else self(Fraction(x.denominator, x.numerator))

    def inverse_of_integer(self, m: int) -> Scalar:
        """1/m in the field; refuses when m vanishes (the modular case)."""
        p = self.characteristic
        if p == 0 and m == 0:
            raise ModularObstruction("cannot invert 0")
        if p and m % p == 0:
            raise ModularObstruction(f"{m} is divisible by the characteristic {p}")
        return self.inv(self(m))

    def __repr__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"
