"""Finite group elements acting linearly on F^n, and the tables of the groups they generate.

Two element kinds: permutations of {1..n} (the symmetric-group
specialization; a `Perm` is the tuple of its 1-indexed one-line images)
and invertible n x n matrices over a FieldSpec.  Elements of one kind
order by their own `<`, and `parse_element` is the one reader of the
tokens their `__repr__` write.  Composition is fixed globally as
(gh)(i) = g(h(i)), i.e. "apply h, then g" -- a left action, the only
convention consistent with the cocycle identity checked by the PBW
machinery.

Both kinds describe their action the same way: `g.column(i)` is the
image ^g v_i as its nonzero (index, coefficient) pairs; a permutation's
coefficient is the int 1, which is canonical in every field.  The parameter
evaluators, the PBW conditions, the rewrite rules and the conversion read
the action through it alone, so none of them branches on the element kind.

A `GroupTable` is built in one way: as the closure of its generators under
left multiplication, from the identity.  So every element is a positive
word in the generators, the invariant on which the generator sweeps of
`pbw`, `rewrite` and `verify_isomorphism` rest, and no table can be built
whose generators do not generate it.

Every engine product (the conditions, the overlap fast paths, R1 in the
rewriting engine and `build_H_mu`) goes through `GroupTable.product`.  It
looks s h up in a row of the table's left multiplication table, which maps
each h to the table's own object for s h, or computes it with `*` when s
has no row.  The table keeps one row per generator s, |S|.|G| entries, as
many products as one sweep of PBW condition (1) over the generators makes;
the closure makes each of those products once, and fills the rows with them.
When |G| <= |S|.n it keeps a row for every element: the full table has
|G|^2 entries, no more than the |S|.|G|.n instances of that sweep, and
then every product is a look-up.  That holds for S_3 (6 <= 2.3) and for
small matrix groups such as the order-2 group of `example_4_3`.  The rows
are the only product memo: a memo of every product made grows with the
work, the rows only with the table.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Iterable, Sequence, Union

from . import linalg
from .linalg import Column, Vector
from .scalars import FieldSpec, ModularObstruction, Scalar, read_int


class ClosureCapExceeded(RuntimeError):
    """Group closure grew past the configured cap."""


# The largest group a `GroupTable` closes up by default; `symmetric_group`
# refuses an S_n past it before enumerating anything.
CLOSURE_CAP = 10**6


class Perm(tuple):
    """A permutation of {1..n}: the tuple of its images (g(1), ..., g(n)).

    It hashes, compares and orders as that plain tuple, and never equals a
    MatrixElement.  Products and inverses skip the validation in __new__.
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Perm":
        imgs = tuple(int(x) for x in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")
        return tuple.__new__(cls, imgs)

    @property
    def n(self) -> int:
        return len(self)

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(range(1, n + 1))

    @staticmethod
    def from_cycles(n: int, *cycles: Sequence[int]) -> "Perm":
        """Build from cycles; (1 2 3) means 1->2->3->1."""
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
                images[a - 1] = b
        return Perm(images)

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Perm":
        return Perm.from_cycles(n, (i, j))

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        if len(other) != len(self):
            raise ValueError("mismatched permutation sizes")
        return tuple.__new__(Perm, [self[o - 1] for o in other])

    def inverse(self) -> "Perm":
        inv = [0] * len(self)
        for i, img in enumerate(self, start=1):
            inv[img - 1] = i
        return tuple.__new__(Perm, inv)

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self, start=1))

    def column(self, i: int) -> Column:
        """^g v_i = v_{g(i)}, as its one (index, coefficient) pair."""
        return ((self[i - 1], 1),)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles including fixed points, each starting at its minimum."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cyc.append(i)
                i = self[i - 1]
            out.append(tuple(cyc))
        return out

    def fixed_space_codim(self) -> int:
        """The reflection length: n minus the number of cycles."""
        return self.n - len(self.cycles())

    def fixed_space_basis(self) -> list[Vector]:
        """Orbit sums: one indicator vector per cycle spans the fixed space."""
        return [tuple(1 if i in cyc else 0 for i in range(1, self.n + 1)) for cyc in self.cycles()]

    def matrix(self) -> tuple[Vector, ...]:
        """Column i is the basis vector v_{g(i)}."""
        return tuple(tuple(1 if img == r else 0 for img in self) for r in range(1, self.n + 1))

    def __repr__(self) -> str:
        return f"g[{','.join(map(str, self))}]"


class MatrixElement:
    """An invertible n x n matrix over a FieldSpec, acting on column coordinates."""

    __slots__ = ("rows", "field", "_hash", "_columns")

    def __init__(self, field_spec: FieldSpec, rows: Sequence[Sequence[Scalar]]) -> None:
        rs = tuple(tuple(field_spec(x) for x in row) for row in rows)
        n = len(rs)
        if any(len(row) != n for row in rs):
            raise ValueError("matrix must be square")
        if linalg.rank(field_spec, rs) != n:
            raise ValueError("matrix is singular")
        self._set(field_spec, rs)

    def _set(self, field_spec: FieldSpec, rows: tuple[Vector, ...]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "field", field_spec)
        object.__setattr__(self, "_hash", hash(rows))
        # Built on the first column() call: products make many matrices whose action is never read.
        object.__setattr__(self, "_columns", None)

    @staticmethod
    def _raw(field_spec: FieldSpec, rows: Sequence[Sequence[Scalar]]) -> "MatrixElement":
        """Internal constructor for products and inverses of invertible matrices."""
        out = MatrixElement.__new__(MatrixElement)
        out._set(field_spec, tuple(tuple(row) for row in rows))
        return out

    def __setattr__(self, *_):
        raise AttributeError("MatrixElement is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "MatrixElement") -> "MatrixElement":
        if not isinstance(other, MatrixElement):
            return NotImplemented
        if other.n != self.n or other.field != self.field:
            raise ValueError("mismatched matrices")
        fs = self.field
        cols = tuple(zip(*other.rows))
        rows = [[fs(sum(a * b for a, b in zip(row, col))) for col in cols] for row in self.rows]
        return MatrixElement._raw(fs, rows)

    def inverse(self) -> "MatrixElement":
        n = self.n
        aug = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(self.rows)]
        red, pivots = linalg.rref(self.field, aug)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return MatrixElement._raw(self.field, [row[n:] for row in red])

    def is_identity(self) -> bool:
        return all(x == (1 if i == j else 0) for i, row in enumerate(self.rows) for j, x in enumerate(row))

    def column(self, i: int) -> Column:
        """^g v_i, the nonzero entries of column i."""
        if self._columns is None:
            object.__setattr__(self, "_columns", tuple(linalg.column(col) for col in zip(*self.rows)))
        return self._columns[i - 1]

    def fixed_space_codim(self) -> int:
        return linalg.rank(self.field, self._minus_identity())

    def fixed_space_basis(self) -> list[Vector]:
        return linalg.nullspace(self.field, self._minus_identity(), self.n)

    def _minus_identity(self) -> list[list[Scalar]]:
        return [[x - (1 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(self.rows)]

    def matrix(self) -> tuple[Vector, ...]:
        return self.rows

    def __lt__(self, other: "MatrixElement") -> bool:
        # Rows of equal length: the order is that of the row-major entries.
        return self.rows < other.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixElement)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = "],[".join(",".join(str(s) for s in row) for row in self.rows)
        return f"M[[{body}]]"


GroupElement = Union[Perm, MatrixElement]


class GroupTable:
    """Immutable full enumeration of a finite group: the closure of its generators.

    The closure multiplies by `generators` on the left from the identity, so
    every element is a positive word in them, as the generator sweeps of
    `pbw`, `rewrite` and `verify_isomorphism` need; it fills the generator
    rows as it goes.  `n` comes from the generators, kept in their order as
    the table's own objects.  Over Q each new element g must satisfy g^L = 1
    (see `_finite_exponent`), so an infinite group is refused by naming its
    first element of infinite order instead of running on to `cap`.

    Elements are sorted by their own `<` (image tuples for permutations,
    row-major entries for matrices), so all downstream iteration is
    deterministic.  The group's kind is worked out once, here: `field` is
    the matrix entries' field (None for permutations),
    `is_permutation_group` says every element is a Perm, and
    `is_symmetric_group` that they are all n! of them.  `product`
    multiplies two elements (see the module docstring).
    """

    def __init__(self, generators: Sequence[GroupElement], cap: int = CLOSURE_CAP) -> None:
        if not generators:
            raise ValueError("need at least one generator")
        n = generators[0].n
        if any(g.n != n for g in generators):
            raise ValueError("mismatched dimensions among generators")
        ident = generators[0] * generators[0].inverse()
        over_q = isinstance(ident, MatrixElement) and ident.field.characteristic == 0
        exponent = _finite_exponent(n) if over_q else 0
        # Each element keyed by itself, so that `lookup` returns the table's own object.
        members = {ident: ident}
        # Each product s x the closure makes fills the row of generator s.
        rows: dict[GroupElement, dict[GroupElement, GroupElement]] = {s: {} for s in generators}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for s, row in rows.items():
                    y = s * x
                    z = members.get(y)
                    if z is None:
                        if exponent and _power(y, exponent) != ident:
                            raise ValueError(
                                f"the matrix group over Q is infinite: {y!r} has infinite order "
                                f"(its power {exponent} is not the identity)"
                            )
                        members[y] = z = y
                        nxt.append(y)
                        if len(members) > cap:
                            raise ClosureCapExceeded(f"closure exceeded cap {cap}")
                    row[x] = z
            frontier = nxt
        self.elements: tuple[GroupElement, ...] = tuple(sorted(members))
        self.n = n
        self._members = members
        self.generators: tuple[GroupElement, ...] = tuple(members[s] for s in generators)
        self.identity: GroupElement = ident
        self.field: FieldSpec | None = ident.field if isinstance(ident, MatrixElement) else None
        self.is_permutation_group: bool = self.field is None
        self.is_symmetric_group: bool = (
            self.is_permutation_group and len(self.elements) == math.factorial(n)
        )
        # Rows of the left multiplication table (see the module docstring).
        if len(self.elements) <= len(self.generators) * n:
            for g in self.elements:
                if g not in rows:
                    rows[g] = {h: members[g * h] for h in self.elements}
        self._rows = rows

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self._members

    def product(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """g h: the table's own object when g has a row, else `g * h`."""
        row = self._rows.get(g)
        return row[h] if row else g * h

    def member(self, g: GroupElement, what: str) -> GroupElement:
        """The table's own object equal to g, or a ValueError saying that `what` is not in the group."""
        if g not in self._members:
            raise ValueError(f"{what} is not in the declared group")
        return self._members[g]

    def lookup(self, data) -> GroupElement | None:
        """The table's own permutation whose one-line images are `data`, or None.

        Only a list of plain ints (not bools) in a permutation group is looked
        up; any other value gives None, and so does a list naming no element.
        """
        # Every entry's type is int itself: JSON true, a bool, must not pass for 1.
        if type(data) is list and self.is_permutation_group and set(map(type, data)) == {int}:
            return self._members.get(tuple(data))
        return None

    def adjacent_transposition(self, k: int) -> Perm:
        """s_k = (k k+1) for k < n, and s_n = (n 1); indices wrap modulo n."""
        n = self.n
        k = (k - 1) % n + 1
        return Perm.from_cycles(n, (k, k % n + 1))


def parse_element(token: str, field: FieldSpec, n: int, table: GroupTable | None = None) -> GroupElement:
    """The element that "g[2,1,3]" (images) or "M[[1,1],[0,1]]" (rows), as `repr` writes them, names.

    Spaces may stand inside the brackets.  The element must act on F^n and,
    given a table, lie in it; the table's own object is returned.
    """
    body = token[2:-1].strip()
    try:
        if token[:2] == "g[" and token[-1:] == "]":
            g: GroupElement = Perm([read_int(x, signed=False) for x in body.split(",")])
        elif token[:2] == "M[" and body[:1] == "[" and token[-1:] == body[-1:] == "]":
            rows = re.split(r"\]\s*,\s*\[", body[1:-1])
            g = MatrixElement(field, [[field(x) for x in row.split(",")] for row in rows])
        else:
            raise ValueError("not an element written g[...] or M[[...]]")
        if g.n != n:
            raise ValueError(f"does not act on F^{n}")
    except (ValueError, ModularObstruction) as exc:
        raise type(exc)(f"group token {token}: {exc}") from None
    return g if table is None else table.member(g, f"group token {token}")


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> GroupTable:
    """All n! permutations of {1..n}, generated by (1 2) and (1 2 ... n).

    Cached: tables are immutable.  For n <= 2 the two generators coincide
    (n = 1: the identity) and are recorded once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > CLOSURE_CAP:
            raise ClosureCapExceeded(f"S_{n} has {n}! elements, more than the cap {CLOSURE_CAP}")
    transposition = Perm.from_cycles(n, (1, 2)) if n > 1 else Perm.identity(n)
    long_cycle = Perm.from_cycles(n, tuple(range(1, n + 1)))
    return GroupTable(list(dict.fromkeys([transposition, long_cycle])))


def _finite_exponent(n: int) -> int:
    """L = lcm{m : phi(m) <= n}, so that g^L = 1 for every g of finite order in GL_n(Q).

    Such a g is diagonalisable over C with roots of unity as eigenvalues; one
    of order d has the cyclotomic factor Phi_d, of degree phi(d), in the
    characteristic polynomial, so phi(d) <= n and d divides L, and so does
    the order of g, the lcm of those d.  phi(m) >= sqrt(m / 2) bounds m.
    """
    top = 2 * n * n
    phi = list(range(top + 1))  # Euler's sieve: phi[k] == k marks k prime
    for k in range(2, top + 1):
        if phi[k] == k:
            for m in range(k, top + 1, k):
                phi[m] -= phi[m] // k
    return math.lcm(*(m for m in range(1, top + 1) if phi[m] <= n))


def _power(g: GroupElement, e: int) -> GroupElement:
    """g^e for e >= 1, by left-to-right binary exponentiation."""
    result = g
    for bit in bin(e)[3:]:
        result = result * result
        if bit == "1":
            result = result * g
    return result
