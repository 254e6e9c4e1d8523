"""Tiny exact linear algebra over a FieldSpec: rank, RREF, null spaces.

Matrices are sequences of rows of plain scalars; vectors are tuples of
them, the dense form that elimination works on.  Every function here takes
the field and returns canonical entries; its input rows may hold any ints
or Fractions, which `rref` reduces first.  A column is the sparse form of a
vector: its nonzero (1-based index, coefficient) pairs in ascending index
order.  The group action is read through columns.
Everything here is desk-scale (n <= a few dozen), so plain Gaussian
elimination is plenty.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import FieldSpec, Scalar

Vector = tuple[Scalar, ...]
Column = tuple[tuple[int, Scalar], ...]


def column(v: Sequence[Scalar]) -> Column:
    """The nonzero entries of a dense canonical vector as (index, coefficient) pairs."""
    return tuple((i, c) for i, c in enumerate(v, start=1) if c)


def rref(fs: FieldSpec, rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [[fs(x) for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = fs.inv(mat[r][c])
        mat[r] = [fs(inv * x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [fs(x - f * y) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(fs: FieldSpec, rows: Sequence[Sequence[Scalar]]) -> int:
    return len(rref(fs, rows)[0])


def nullspace(fs: FieldSpec, rows: Sequence[Sequence[Scalar]], ncols: int) -> list[Vector]:
    """Basis of {x : A x = 0} for the ncols-column matrix A."""
    red, pivots = rref(fs, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [fs.zero] * ncols
        x[f] = fs.one
        for ri, pc in enumerate(pivots):
            x[pc] = fs(-red[ri][f])
        basis.append(tuple(x))
    return basis


def same_subspace(fs: FieldSpec, a: Sequence[Vector], b: Sequence[Vector]) -> bool:
    return rank(fs, a) == rank(fs, b) == rank(fs, list(a) + list(b))
