"""Elements of the group algebra FG: finitely supported maps G -> F.

Coefficients are plain canonical scalars (see `dhecke.scalars`).  The
constructor is where they are made canonical: it reduces each one mod p
over F_p and drops the zeros, so the arithmetic below adds and multiplies
plain numbers and leaves the reduction to it.  Zero coefficients are never
stored, so equality is plain term-wise comparison.  Values are immutable by
convention; every operation returns a fresh element.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .groups import GroupElement
from .scalars import FieldSpec, Scalar


class AlgebraElement:
    """A finite F-linear combination of group elements."""

    __slots__ = ("field", "terms")

    def __init__(self, field_spec: FieldSpec, terms: Mapping[GroupElement, Scalar] | None = None) -> None:
        p = field_spec.characteristic
        clean: dict[GroupElement, Scalar] = {}
        if terms:
            for g, c in terms.items():
                if p:
                    c %= p
                if c:
                    clean[g] = c
        object.__setattr__(self, "field", field_spec)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("AlgebraElement is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def term(field_spec: FieldSpec, g: GroupElement, coeff: Scalar = 1) -> "AlgebraElement":
        return AlgebraElement(field_spec, {g: coeff})

    @staticmethod
    def from_pairs(field_spec: FieldSpec, pairs: Iterable[tuple[GroupElement, Scalar]]) -> "AlgebraElement":
        acc: dict[GroupElement, Scalar] = {}
        for g, c in pairs:
            acc[g] = acc.get(g, 0) + c
        return AlgebraElement(field_spec, acc)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"expected AlgebraElement, got {type(other).__name__}")
        if other.field != self.field:
            raise ValueError("mixed-field operands")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        acc = dict(self.terms)
        for g, c in other.terms.items():
            acc[g] = acc.get(g, 0) + c
        return AlgebraElement(self.field, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        acc = dict(self.terms)
        for g, c in other.terms.items():
            acc[g] = acc.get(g, 0) - c
        return AlgebraElement(self.field, acc)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.field, {g: -c for g, c in self.terms.items()})

    def scale(self, c: Scalar) -> "AlgebraElement":
        if not c:
            return AlgebraElement(self.field)
        return AlgebraElement(self.field, {g: c * x for g, x in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Convolution: sum of x_g y_h at the group product gh."""
        self._check(other)
        acc: dict[GroupElement, Scalar] = {}
        for g, cg in self.terms.items():
            for h, ch in other.terms.items():
                gh = g * h
                acc[gh] = acc.get(gh, 0) + cg * ch
        return AlgebraElement(self.field, acc)

    def mul_left(self, g: GroupElement) -> "AlgebraElement":
        """g . x, avoiding the generic convolution loop."""
        return AlgebraElement(self.field, {g * h: c for h, c in self.terms.items()})

    def mul_right(self, h: GroupElement) -> "AlgebraElement":
        """x . h, avoiding the generic convolution loop."""
        return AlgebraElement(self.field, {g * h: c for g, c in self.terms.items()})

    def conjugate_by(self, h: GroupElement) -> "AlgebraElement":
        """The action of h on FG by conjugation: each g maps to h g h^-1."""
        hinv = h.inverse()
        return AlgebraElement(self.field, {h * g * hinv: c for g, c in self.terms.items()})

    def coefficient(self, g: GroupElement) -> Scalar:
        return self.terms.get(g, self.field.zero)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[GroupElement]:
        return sorted(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = [f"{c}*{g!r}" for g, c in sorted(self.terms.items())]
        return " + ".join(parts)

