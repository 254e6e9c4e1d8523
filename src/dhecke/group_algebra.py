"""Elements of the group algebra FG: finitely supported maps G -> F.

An element is its coefficient dict: a ``dict`` subclass whose items are
its nonzero canonical coefficients, ``{group element: scalar}``, plus the
field it lives over.  Every module reads it through the dict protocol
(``x.items()``, ``x.get(g, 0)``, ``not x``, ``sorted(x)``).  Coefficients
are plain canonical scalars (see `dhecke.scalars`).  The constructor is
where they are made canonical: it reduces each one mod p over F_p and
drops the zeros, so the arithmetic below adds and multiplies plain numbers
and leaves the reduction to it.  Zero coefficients are never stored, so
equality is item-wise comparison over the same field; an element never
equals a plain dict.  Values are immutable by convention; every operation
returns a fresh element.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .groups import GroupElement
from .scalars import FieldSpec, Scalar


class AlgebraElement(dict):
    """A finite F-linear combination of group elements, as its {g: coefficient} items."""

    __slots__ = ("field",)

    def __init__(self, field_spec: FieldSpec, terms: Mapping[GroupElement, Scalar] | None = None) -> None:
        self.field = field_spec
        if terms:
            p = field_spec.characteristic
            for g, c in terms.items():
                if p:
                    c %= p
                if c:
                    self[g] = c

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
        acc = dict(self)
        for g, c in other.items():
            acc[g] = acc.get(g, 0) + c
        return AlgebraElement(self.field, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        acc = dict(self)
        for g, c in other.items():
            acc[g] = acc.get(g, 0) - c
        return AlgebraElement(self.field, acc)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.field, {g: -c for g, c in self.items()})

    def scale(self, c: Scalar) -> "AlgebraElement":
        if not c:
            return AlgebraElement(self.field)
        return AlgebraElement(self.field, {g: c * x for g, x in self.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Convolution: sum of x_g y_h at the group product gh."""
        self._check(other)
        acc: dict[GroupElement, Scalar] = {}
        for g, cg in self.items():
            for h, ch in other.items():
                gh = g * h
                acc[gh] = acc.get(gh, 0) + cg * ch
        return AlgebraElement(self.field, acc)

    def mul_left(self, g: GroupElement) -> "AlgebraElement":
        """g . x, avoiding the generic convolution loop."""
        return AlgebraElement(self.field, {g * h: c for h, c in self.items()})

    def mul_right(self, h: GroupElement) -> "AlgebraElement":
        """x . h, avoiding the generic convolution loop."""
        return AlgebraElement(self.field, {g * h: c for g, c in self.items()})

    def conjugate_by(self, h: GroupElement) -> "AlgebraElement":
        """The action of h on FG by conjugation: each g maps to h g h^-1."""
        hinv = h.inverse()
        return AlgebraElement(self.field, {h * g * hinv: c for g, c in self.items()})

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.field == other.field and dict.__eq__(self, other)

    def __ne__(self, other) -> bool:
        # dict's own __ne__ would compare the items alone.
        return not self == other

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __repr__(self) -> str:
        if not self:
            return "0"
        return " + ".join(f"{c}*{g!r}" for g, c in sorted(self.items()))
