"""The symmetric-group classification of PBW deformations.

Every PBW pair for S_n permuting coordinates (n > 2, char != 2) is the
expansion of a tuple mu = (a_ij, b_k, c):

  lambda(g, v_i) = sum_{k=0}^{g(i)-i+n-1} b_{i+k} g
                   + sum_{j != i} (a_ij - a_{g(i) g(j)}) g(i j)
  kappa(v_i, v_j) = sum_{k != i,j} (c - a_123 + a_ijk) ((i j k) - (i k j))

with a_ji = -a_ij, a_ijk = a_ij a_jk + a_jk a_ki + a_ki a_ij, indices on b
modulo n, and b_n = -(b_1 + ... + b_{n-1}).  The b-sum is kept literal:
when g(i) = i it runs over a full period and cancels to zero on its own,
which the test suite checks rather than assumes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .groups import GroupElement, Perm, symmetric_group
from .group_algebra import AlgebraElement
from .parameters import (
    KappaParam,
    LambdaParam,
    _field,
    _int_field,
    _int_value,
    _list_field,
    _scalar_value,
)
from .scalars import CharTwoUnsupported, FieldSpec, Scalar


class DistinctnessViolation(ValueError):
    """The a_{1i} of the invariant-kappa family must be pairwise distinct."""


class MuParams:
    """The classification tuple: C(n,2) a-values, n-1 b-values, and c, all kept canonical."""

    def __init__(
        self,
        field_spec: FieldSpec,
        n: int,
        a: dict[tuple[int, int], Scalar],
        b: Sequence[Scalar],
        c: Scalar,
    ) -> None:
        if n <= 2:
            raise ValueError("the mu tuple is defined for n > 2")
        self.field = field_spec
        self.n = n
        for i, j in a:
            if not 1 <= i < j <= n:
                raise ValueError(f"a-table key must have 1 <= i < j <= n, got {(i, j)}")
        canonical = {k: field_spec(v) for k, v in a.items()}
        self.a = {k: v for k, v in canonical.items() if v}
        if len(b) != n - 1:
            raise ValueError(f"need exactly {n - 1} b-values, got {len(b)}")
        self.b = tuple(map(field_spec, b))
        self.c = field_spec(c)

    def a_at(self, i: int, j: int) -> Scalar:
        if i == j:
            raise ValueError("a is defined for distinct indices")
        if i < j:
            return self.a.get((i, j), self.field.zero)
        return self.field(-self.a.get((j, i), 0))

    def b_at(self, k: int) -> Scalar:
        """Indices modulo n; b_n is derived as minus the sum of the others."""
        k = (k - 1) % self.n + 1
        if k < self.n:
            return self.b[k - 1]
        return self.field(-sum(self.b))

    def a_triple(self, i: int, j: int, k: int) -> Scalar:
        a = self.a_at
        return self.field(a(i, j) * a(j, k) + a(j, k) * a(k, i) + a(k, i) * a(i, j))

    def free_parameter_count(self) -> int:
        n = self.n
        return n * (n - 1) // 2 + (n - 1) + 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MuParams)
            and self.field == other.field
            and self.n == other.n
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
        )

    def __repr__(self) -> str:
        return f"MuParams(n={self.n}, a={self.a}, b={self.b}, c={self.c})"

    @staticmethod
    def zero(field_spec: FieldSpec, n: int) -> "MuParams":
        return MuParams(field_spec, n, {}, (field_spec.zero,) * (n - 1), field_spec.zero)


@lru_cache(maxsize=None)
def _transpositions(n: int) -> dict[tuple[int, int], Perm]:
    return {(i, j): Perm.transposition(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}


def build_H_mu(mu: MuParams) -> tuple[LambdaParam, KappaParam]:
    """Expand a mu tuple into full (lambda, kappa) tables over S_n."""
    fs = mu.field
    n = mu.n
    group = symmetric_group(n)
    product = group.product
    transposition = _transpositions(n)
    a = {ij: mu.a_at(*ij) for ij in transposition}
    b = [mu.b_at(k) for k in range(1, n + 1)] * 2  # b[k - 1] = b[k - 1 + n] = b_k
    lam_table: dict[tuple[GroupElement, int], AlgebraElement] = {}
    for g in group:
        for i, gi in enumerate(g, start=1):
            # b_i + b_{i+1} + ... over g(i) - i + n indices, read modulo n
            coeffs: dict[GroupElement, Scalar] = {g: sum(b[i - 1 : gi - 1 + n])}
            for j, gj in enumerate(g, start=1):
                if j == i:
                    continue
                c = a[i, j] - a[gi, gj]
                if c:
                    t = product(g, transposition[i, j])
                    coeffs[t] = coeffs.get(t, 0) + c
            lam_table[(g, i)] = AlgebraElement(fs, coeffs)
    a123 = mu.a_triple(1, 2, 3)
    kap_table: dict[tuple[int, int], AlgebraElement] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            coeffs = {}
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                c = fs(mu.c - a123 + mu.a_triple(i, j, k))
                if c:
                    fwd = product(transposition[i, k], transposition[i, j])  # (i j k)
                    bwd = product(transposition[i, j], transposition[i, k])  # (i k j)
                    coeffs[fwd] = coeffs.get(fwd, 0) + c
                    coeffs[bwd] = coeffs.get(bwd, 0) - c
            kap_table[(i, j)] = AlgebraElement(fs, coeffs)
    return LambdaParam(group, fs, lam_table), KappaParam(fs, n, kap_table)


def _read_betas(lam: LambdaParam) -> tuple[Scalar, ...]:
    """beta_k = (1/2) lambda_{s_k}(s_k, v_k - v_{k+1}) for k = 1..n, indices modulo n.

    beta_n is read off lambda, not derived; on a PBW pair it equals
    -(beta_1 + ... + beta_{n-1}), which `lemma_suite` checks.
    """
    n = lam.n
    half = lam.field.inverse_of_integer(2)
    betas = []
    for k in range(1, n + 1):
        s_k = lam.group.adjacent_transposition(k)
        betas.append(lam.field(half * (lam.at(s_k, k) - lam.at(s_k, k % n + 1)).get(s_k, 0)))
    return tuple(betas)


def extract_mu(lam: LambdaParam, kappa: KappaParam) -> MuParams:
    """Read the mu tuple off a PBW pair (the caller vouches for PBW-ness).

    a_ij = (1/4) lambda_1((i j), v_i - v_j), b_k as in `_read_betas`, and c
    is kappa's coefficient of (1 2 3) at (v_1, v_2).
    """
    fs = lam.field
    n = lam.n
    if fs.characteristic == 2:
        raise CharTwoUnsupported("mu extraction divides by 4 and 2")
    if n <= 2:
        raise ValueError("mu extraction needs n > 2 (no 3-cycles exist below)")
    if not lam.group.is_symmetric_group:
        raise ValueError("mu extraction is defined for the full symmetric group")
    quarter = fs.inverse_of_integer(4)
    ident = lam.group.identity
    a: dict[tuple[int, int], Scalar] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            t = Perm.transposition(n, i, j)
            a[(i, j)] = quarter * (lam.at(t, i) - lam.at(t, j)).get(ident, 0)
    b = _read_betas(lam)[: n - 1]
    c = kappa.coefficient(Perm.from_cycles(n, (1, 2, 3)), 1, 2)
    return MuParams(fs, n, a, b, c)


def low_dim_family(n: int, params: Sequence[Scalar], field_spec: FieldSpec) -> tuple[LambdaParam, KappaParam]:
    """The explicit families in dimensions 1 and 2.

    n=1 admits only the trivial pair.  n=2 is the two-parameter family
    (a, b) with kappa = 0; with the characteristic-2 override a
    four-parameter family (a, b, c, d) appears, with kappa(v1, v2) = c + d(1 2)
    and both lambda values equal to a + b(1 2).
    """
    if n not in (1, 2):
        raise ValueError("low-dimensional families exist for n in {1, 2}")
    group = symmetric_group(n)
    fs = field_spec
    if n == 1:
        if len(params) != 0:
            raise ValueError("the n=1 family has no parameters; only (0, 0) is PBW")
        return LambdaParam(group, fs), KappaParam(fs, 1)
    s = Perm.transposition(2, 1, 2)
    ident = Perm.identity(2)
    if len(params) == 2:
        a, b = params
        val = AlgebraElement(fs, {ident: a, s: b})
        lam = LambdaParam(group, fs, {(s, 1): val, (s, 2): -val})
        return lam, KappaParam(fs, 2)
    if len(params) == 4:
        if fs.characteristic != 2:
            raise ValueError("the four-parameter n=2 family exists only in characteristic 2")
        a, b, c, d = params
        val = AlgebraElement(fs, {ident: a, s: b})
        lam = LambdaParam(group, fs, {(s, 1): val, (s, 2): val})
        kap = KappaParam(fs, 2, {(1, 2): AlgebraElement(fs, {ident: c, s: d})})
        return lam, kap
    raise ValueError(f"n=2 takes 2 parameters (or 4 under the char-2 override), got {len(params)}")


def invariant_kappa_params(
    c: Scalar,
    d: Scalar,
    a_first_row: Sequence[Scalar],
    b: Sequence[Scalar],
    n: int,
    field_spec: FieldSpec,
) -> MuParams:
    """The mu tuple whose expansion has G-invariant kappa.

    a_first_row lists a_{1i} for i = 2..n (pairwise distinct); the rest of
    the a-table is a_ij = (d + a_{1i} a_{1j}) / (a_{1i} - a_{1j}), which makes
    every a_ijk equal to d, so the kappa coefficient is uniformly c.
    """
    if n <= 2:
        raise ValueError("needs n > 2")
    if len(a_first_row) != n - 1:
        raise ValueError(f"need a_1i for i = 2..{n}, got {len(a_first_row)} values")
    vals = [field_spec(x) for x in a_first_row]
    for x in range(len(vals)):
        for y in range(x + 1, len(vals)):
            if vals[x] == vals[y]:
                raise DistinctnessViolation(
                    f"a_1{x + 2} == a_1{y + 2}; the first-row values must be pairwise distinct"
                )
    a: dict[tuple[int, int], Scalar] = {}
    first = {i: vals[i - 2] for i in range(2, n + 1)}
    for i in range(2, n + 1):
        if first[i]:
            a[(1, i)] = first[i]
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            val = field_spec((d + first[i] * first[j]) * field_spec.inv(field_spec(first[i] - first[j])))
            if val:
                a[(i, j)] = val
    return MuParams(field_spec, n, a, tuple(b), c)


def two_param_family(a: Scalar, b: Scalar, n: int, field_spec: FieldSpec) -> tuple[LambdaParam, KappaParam]:
    """lambda(g, v_i) = a (g(i) - i) g with kappa = b sum ((i j k) - (i k j))."""
    if n <= 2:
        raise ValueError("needs n > 2")
    fs = field_spec
    group = symmetric_group(n)
    lam_table: dict[tuple[GroupElement, int], AlgebraElement] = {}
    for g in group:
        for i in range(1, n + 1):
            lam_table[(g, i)] = AlgebraElement.term(fs, g, (g(i) - i) * a)
    kap_table: dict[tuple[int, int], AlgebraElement] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            coeffs: dict[GroupElement, Scalar] = {}
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                coeffs[Perm.from_cycles(n, (i, j, k))] = b
                coeffs[Perm.from_cycles(n, (i, k, j))] = -b
            kap_table[(i, j)] = AlgebraElement(fs, coeffs)
    return LambdaParam(group, fs, lam_table), KappaParam(fs, n, kap_table)


def golden_rule(n: int, field_spec: FieldSpec) -> tuple[LambdaParam, KappaParam]:
    """lambda(g, v_i) = (g(i) - i) g with kappa = 0."""
    return two_param_family(field_spec.one, field_spec.zero, n, field_spec)


def bump_c(mu: MuParams, delta: Scalar) -> MuParams:
    """Shift the c-parameter; every kappa block coefficient gains delta."""
    return MuParams(mu.field, mu.n, mu.a, mu.b, mu.c + delta)


def scale_params(c: Scalar, lam: LambdaParam, kappa: KappaParam) -> tuple[LambdaParam, KappaParam]:
    """(lambda, kappa) -> (c lambda, c^2 kappa), the PBW-preserving scaling."""
    return lam.scale(c), kappa.scale(c * c)


# -- mu JSON ------------------------------------------------------------------


def mu_to_json(mu: MuParams):
    return {
        "characteristic": mu.field.characteristic,
        "n": mu.n,
        "a": {f"{i},{j}": str(v) for (i, j), v in sorted(mu.a.items())},
        "b": [str(x) for x in mu.b],
        "c": str(mu.c),
    }


def mu_from_json(data, field_spec: FieldSpec | None = None) -> MuParams:
    """Parse a mu file; a missing or ill-typed field raises ValueError naming it.

    `field_spec`, when given, overrides the file's characteristic, as the
    CLI's --char does.
    """
    top = "mu file"
    if field_spec is None:
        field_spec = FieldSpec(_int_field(data, "characteristic", top))
    b_data = _list_field(data, "b", top)
    n = _int_field(data, "n", top) if "n" in data else len(b_data) + 1
    n_from = f"{top} field 'n'" if "n" in data else f"the length of {top} field 'b'"
    if n <= 2:
        raise ValueError(f"the mu tuple needs n > 2, got n = {n} from {n_from}")
    if len(b_data) != n - 1:
        raise ValueError(
            f"{top} field 'b' must hold n - 1 = {n - 1} values (n = {n} from {n_from}), got {len(b_data)}"
        )
    a_data = data.get("a", {})
    if not isinstance(a_data, dict):
        raise ValueError(f"{top} field 'a' must be a JSON object, got {type(a_data).__name__}")
    a: dict[tuple[int, int], Scalar] = {}
    for key, sval in a_data.items():
        where = f"{top} field 'a' key {key!r}"
        parts = key.split(",")
        if len(parts) != 2:
            raise ValueError(f"{where} must be two indices written 'i,j'")
        i, j = (_int_value(x, where) for x in parts)
        a[(i, j)] = _scalar_value(sval, field_spec, f"{top} field 'a' entry {key!r}")
    b = tuple(
        _scalar_value(x, field_spec, f"{top} field 'b' entry {k}") for k, x in enumerate(b_data)
    )
    c = _scalar_value(_field(data, "c", top), field_spec, f"{top} field 'c'")
    return MuParams(field_spec, n, a, b, c)
