"""Exact field arithmetic over prime fields F_p and the rationals.

Every numeric value in the engine is a :class:`Scalar` attached to a
:class:`FieldSpec`.  Arithmetic is exact: residues are kept canonically
reduced in ``{0..p-1}``, characteristic-zero values are arbitrary-precision
``Fraction`` objects.  Scalars are immutable and safe to share freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Union


class ModularObstruction(ArithmeticError):
    """An integer that must be inverted is divisible by the characteristic."""


class CharTwoUnsupported(ValueError):
    """Raised by operations whose defining formulas divide by 2 or 4.

    Characteristic-2 inputs must be routed to the rewriting/confluence
    oracle, which involves no division.
    """


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p (p odd unless explicitly overridden) or Q (p = 0)."""

    characteristic: int
    allow_char2: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        p = self.characteristic
        if p < 0:
            raise ValueError(f"characteristic must be >= 0, got {p}")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")
        if p == 2 and not self.allow_char2:
            raise CharTwoUnsupported(
                "characteristic 2 requires the explicit override flag; "
                "PBW questions in characteristic 2 go through the rewrite oracle"
            )

    def __call__(self, value: Union[int, Fraction, str, "Scalar"]) -> "Scalar":
        """Coerce an int, Fraction, decimal/rational string, or Scalar."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise ValueError("scalar belongs to a different field")
            return value
        if isinstance(value, str):
            return self.parse(value)
        p = self.characteristic
        if p == 0:
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise ModularObstruction(f"denominator of {value} vanishes mod {p}")
            num = value.numerator % p
            den = value.denominator % p
            return Scalar(self, num * pow(den, p - 2, p) % p)
        return Scalar(self, int(value) % p)

    def parse(self, text: str) -> "Scalar":
        text = text.strip()
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            if int(den_s) == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return self(Fraction(int(num_s), int(den_s)))
        return self(int(text))

    def __reduce__(self):
        # Pickle the declared fields only, not the cached zero and one below.
        return FieldSpec, (self.characteristic, self.allow_char2)

    # Built on first use and kept: scalars are immutable, so one zero and one
    # one per field serve every caller.
    @cached_property
    def zero(self) -> "Scalar":
        return self(0)

    @cached_property
    def one(self) -> "Scalar":
        return self(1)

    def inverse_of_integer(self, m: int) -> "Scalar":
        """1/m in the field; refuses when m vanishes (the modular case)."""
        p = self.characteristic
        if p == 0:
            if m == 0:
                raise ModularObstruction("cannot invert 0")
            return Scalar(self, Fraction(1, m))
        if m % p == 0:
            raise ModularObstruction(f"{m} is divisible by the characteristic {p}")
        return Scalar(self, pow(m % p, p - 2, p))

    def __repr__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


class Scalar:
    """An immutable element of a fixed FieldSpec, always canonically reduced."""

    __slots__ = ("field", "value")

    def __init__(self, field_spec: FieldSpec, value) -> None:
        object.__setattr__(self, "field", field_spec)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field != self.field:
            raise ValueError("mixed-field operands")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        p = self.field.characteristic
        v = self.value + other.value
        return Scalar(self.field, v % p if p else v)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        p = self.field.characteristic
        v = self.value - other.value
        return Scalar(self.field, v % p if p else v)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        p = self.field.characteristic
        v = self.value * other.value
        return Scalar(self.field, v % p if p else v)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self * other.inverse()

    def __neg__(self) -> "Scalar":
        p = self.field.characteristic
        return Scalar(self.field, (-self.value) % p if p else -self.value)

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("scalar inverse of zero")
        p = self.field.characteristic
        if p == 0:
            return Scalar(self.field, 1 / Fraction(self.value))
        return Scalar(self.field, pow(self.value, p - 2, p))

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.field.characteristic, self.value))

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        """Decimal string; rationals as "num/den" in lowest terms."""
        v = self.value
        if isinstance(v, Fraction) and v.denominator != 1:
            return f"{v.numerator}/{v.denominator}"
        return str(int(v))

