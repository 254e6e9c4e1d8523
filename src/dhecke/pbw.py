"""The five-condition PBW test with per-condition failure witnesses.

Each condition is multilinear in every vector slot, so quantification over
basis vectors suffices (see tests/test_pbw.py for the multilinearity
check).  Conditions (3) and (4) are equalities of coefficient vectors in V;
the rest live in FG.  Witnesses are the first failure in deterministic
iteration order: group elements in table order, then ascending indices.

The five conditions hold exactly when H is PBW, in every characteristic,
2 included, and no step below divides.  By the diamond lemma (Bergman
1978), applied to the rules of `rewrite.py` (g h -> gh, g v_i ->
^g v_i g + lambda(g, v_i) and v_j v_i -> v_i v_j - kappa(v_i, v_j) for
j > i), H is PBW exactly when the ambiguities g h v, g v_j v_i (j > i) and
v_k v_j v_i (k > j > i) resolve.  (1) is the first; (3) and (2) are the
degree-1 and degree-0 parts of the second, and (4) and (5) those of the
third, as shown below.

Condition (1) is the cocycle identity

    lambda(gh, v) = lambda(g, ^h v) h + g lambda(h, v),

and by default it is swept only over g in the table's `generators` S:
|S|.|G|.n instances instead of |G|^2.n.  That suffices.  Every element of
a finite group, the identity included, is a positive word in S (the
identity is a positive power of any generator), so induct on the word
length of g.  Length 1 is the checked case.  For g = s g' with s in S
and g' a positive word one letter shorter,

    lambda(s g'h, v) = lambda(s, ^{g'h} v) g'h + s lambda(g'h, v)      (1) at (s, g'h)
                     = lambda(s, ^{g'}(^h v)) g'h + s lambda(g', ^h v) h + s g' lambda(h, v)
                                                                         (1) at (g', h)
                     = lambda(s g', ^h v) h + g lambda(h, v)              (1) at (s, g'),
                                                                         vector ^h v

where the last step uses linearity in v, so basis vectors suffice.

Conditions (3) and (2) reduce to S the same way once (1) holds on G.  Let
A be T(V) # G modulo the relations g v = ^g v g + lambda(g, v).  Its only
ambiguities are the words g h v, and they resolve exactly when (1) holds,
so then the words in V followed by one group element are a basis of A and
the V-degree of an element of A is well defined.  Put

    r(u, v)    = v u - u v + kappa(u, v),
    E(g; u, v) = g r(u, v) - r(^g u, ^g v) g          (in A),

where r(v_i, v_j) = 0 for i < j is the defining relation
v_j v_i = v_i v_j - kappa(v_i, v_j) of H.  Both are bilinear and
alternating in (u, v).  Moving g to the right,

    g v u = ^g v ^g u g + ^g v lambda(g, u) + sum_h lambda_h(g, v) (^h u h + lambda(h, u)),

so E(g; v_i, v_j) has no degree-2 part, its degree-1 part is
sum_h D3(g, h; i, j) h, and its degree-0 part is -D2(g; i, j), where D3
and D2 are the discrepancies `_cond3` and `_cond2` compare with zero:

    D3 = lambda_h(g, v_j) (^h v_i - ^g v_i) - lambda_h(g, v_i) (^h v_j - ^g v_j),
    D2 = kappa(^g v_i, ^g v_j) g - g kappa(v_i, v_j)
         - lambda(lambda(g, v_j), v_i) + lambda(lambda(g, v_i), v_j).

So (3) at g says deg1 E(g; ., .) = 0 and (2) at g says deg0 E(g; ., .) = 0.
Associativity of A gives the twisted-cocycle shape of (1),

    E(gh; u, v) = g E(h; u, v) + E(g; ^h u, ^h v) h,

and since g (w k) = ^g w (gk) + lambda(g, w) k for w in V and k in G,
comparing degrees gives

    deg1 E(gh; u, v) = g . deg1 E(h; u, v) + deg1 E(g; ^h u, ^h v) h,
    deg0 E(gh; u, v) = lambda(g, deg1 E(h; u, v)) + g deg0 E(h; u, v)
                       + deg0 E(g; ^h u, ^h v) h,

with g . (w k) = ^g w (gk) and lambda(g, w k) = lambda(g, w) k.  Induct on
the word length of g = s g' as for (1), using bilinearity and alternation
to pass from basis pairs i < j to ^{g'} u, ^{g'} v.  The first line shows
that (3) on S gives (3) on G; with that, the second shows that (2) on S
gives (2) on G.

So by default (3) is swept over S when (1) holds, and (2) over S when (1)
and (3) hold; otherwise they sweep all of G.  A failure found by a reduced
sweep is re-found by the exhaustive sweep, whose first witness is the one
reported, so witnesses do not depend on the mode.  `exhaustive=True` runs
every full sweep; it is the oracle the tests and
scripts/crossval_campaign.py compare against.

The ambiguity g v_j v_i (j > i) comes down to E(g; v_i, v_j).  Reducing
v_j v_i first gives g v_j v_i - g r(v_i, v_j).  Reducing g v_j first moves
g to the right and then sorts ^g v_j ^g v_i, which gives
g v_j v_i - r(^g v_i, ^g v_j) g.  So the two reductions differ by
E(g; v_i, v_j), which has degree at most 1 and so is a combination of
normal words: the ambiguity resolves exactly when E(g; v_i, v_j) = 0, that
is, when (3) and (2) hold at (g; i, j).

The sorting step is where the proof uses that kappa is stored only at
i < j and extended as an alternating form: kappa(v_i, v_i) = 0, so
r(u, u) = 0 and r(u, w) = sum_{a < b} (u_a w_b - u_b w_a) r(v_a, v_b) lies
in the span of the relations the rules rewrite.  `_cond2` reads
kappa(^g v_i, ^g v_j) through that same extension (`KappaParam.at`).  In
characteristic 2, being alternating is stronger than being skew-symmetric:
a skew-symmetric form may have kappa(u, u) != 0, and then the relation
u u - u u = kappa(u, u) would force kappa(u, u) = 0 in H, which no rule and
no condition sees.

The ambiguity v_k v_j v_i (k > j > i) sorts the three letters both ways,
and the two results differ by the Jacobi sum

    J = [v_k, kappa(v_i, v_j)] + [v_i, kappa(v_j, v_k)] + [v_j, kappa(v_k, v_i)],

with [x, y] = x y - y x; the last term uses kappa(v_k, v_i) = -kappa(v_i, v_k).
In A, [v, g] = (v - ^g v) g - lambda(g, v), so J has degree at most 1, its
degree-1 part is -sum_g D4(g; i, j, k) g and its degree-0 part is
-D5(i, j, k), where

    D4 = sum over (a, b, m) in ((i, j, k), (j, k, i), (k, i, j))
         of kappa_g(v_a, v_b) (^g v_m - v_m),
    D5 = lambda(kappa(v_i, v_j), v_k) + lambda(kappa(v_j, v_k), v_i)
         + lambda(kappa(v_k, v_i), v_j)

are the discrepancies `_cond4` and `_cond5` compare with zero (D4 vanishes
at every g outside the support of kappa).  So the ambiguity resolves
exactly when (4) and (5) hold at (i, j, k).

`is_pbw` gives the verdict alone, for callers that read nothing else
(`crossval` and `convert`).  It runs the cheapest sweeps first, (4) and (5),
then the generator sweeps of (2), (3) and (1), and stops at the first
failure, without looking up a witness over G.  Its verdict may be read in
any order.  A failure on S is a failure on G, since S is part of G, so any
failure found is the verdict.  When every sweep passes on S, (1) holds on
G, then (3) by the generator argument above, then (2), so all five hold.

Conditions (1), (2) and (5) add every term of an instance's discrepancy
into one plain {group element: coefficient} dict, which holds when each
coefficient vanishes (mod p over F_p).  They read the stored parameter
values and build no FG element on the way.  Only a witness becomes an
AlgebraElement, whose constructor reduces and drops zeros, so it equals
lhs - rhs of the instance.
"""

from __future__ import annotations

import time
from itertools import permutations
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .groups import GroupElement, Perm
from .group_algebra import AlgebraElement
from .linalg import Column, Vector, column, nullspace, same_subspace
from .parameters import (
    KappaParam,
    LambdaParam,
    algebra_element_to_json,
    element_to_json,
)
from .scalars import FieldSpec, Scalar


class Witness(NamedTuple):
    """A concrete quantifier instance at which a condition fails."""

    condition: int
    g: Optional[GroupElement]
    h: Optional[GroupElement]
    indices: tuple[int, ...]
    discrepancy: Union[AlgebraElement, Vector]

    def to_json(self):
        if isinstance(self.discrepancy, AlgebraElement):
            disc = algebra_element_to_json(self.discrepancy)
        else:
            disc = [str(s) for s in self.discrepancy]
        return {
            "condition": self.condition,
            "g": element_to_json(self.g) if self.g is not None else None,
            "h": element_to_json(self.h) if self.h is not None else None,
            "indices": list(self.indices),
            "discrepancy": disc,
        }


class ConditionReport:
    """The verdict and first witness of each condition, as `check_pbw` fills them in."""

    def __init__(self) -> None:
        self.verdicts: dict[int, bool] = {}
        self.witnesses: dict[int, Witness] = {}
        self.timing_ms = 0.0

    @property
    def pbw(self) -> bool:
        return all(self.verdicts.get(k, False) for k in range(1, 6))

    def first_witness(self) -> Optional[Witness]:
        for k in range(1, 6):
            if k in self.witnesses:
                return self.witnesses[k]
        return None

    def to_json(self):
        w = self.first_witness()
        return {
            "pbw": self.pbw,
            "conditions": {str(k): self.verdicts[k] for k in sorted(self.verdicts)},
            "witness": w.to_json() if w else None,
            "timing_ms": self.timing_ms,
        }


def _cond1(
    lam: LambdaParam, kappa: KappaParam, gs: Optional[Sequence[GroupElement]] = None
) -> Optional[Witness]:
    """The cocycle identity at every (g, h, i) with g in gs (default: all of G)."""
    fs = lam.field
    n = lam.n
    product = lam.group.product
    for g in lam.group if gs is None else gs:
        for h in lam.group:
            gh = product(g, h)
            for i in range(1, n + 1):
                # lambda(gh, v_i) - lambda(g, ^h v_i) h - g lambda(h, v_i)
                acc = dict(lam.at(gh, i))
                for r, a in h.column(i):
                    for x, c in lam.at(g, r).items():
                        xh = product(x, h)
                        acc[xh] = acc.get(xh, 0) - a * c
                for x, c in lam.at(h, i).items():
                    gx = product(g, x)
                    acc[gx] = acc.get(gx, 0) - c
                if not fs.vanishes(acc.values()):
                    return Witness(1, g, h, (i,), AlgebraElement(fs, acc))
    return None


def _cond2(
    lam: LambdaParam, kappa: KappaParam, gs: Optional[Sequence[GroupElement]] = None
) -> Optional[Witness]:
    """kappa against lambda o lambda at every (g, i < j) with g in gs (default: all of G)."""
    fs = lam.field
    n = lam.n
    product = lam.group.product
    for g in lam.group if gs is None else gs:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                # kappa(^g v_i, ^g v_j) g - g kappa(v_i, v_j)
                #   - lambda(lambda(g, v_j), v_i) + lambda(lambda(g, v_i), v_j)
                acc: dict[GroupElement, Scalar] = {}
                for r, a in g.column(i):
                    for s, b in g.column(j):
                        for x, c in kappa.at(r, s).items():
                            xg = product(x, g)
                            acc[xg] = acc.get(xg, 0) + a * b * c
                for x, c in kappa.at(i, j).items():
                    gx = product(g, x)
                    acc[gx] = acc.get(gx, 0) - c
                for k, m, sign in ((j, i, -1), (i, j, 1)):
                    for x, c in lam.at(g, k).items():
                        for y, d in lam.at(x, m).items():
                            acc[y] = acc.get(y, 0) + sign * c * d
                if not fs.vanishes(acc.values()):
                    return Witness(2, g, None, (i, j), AlgebraElement(fs, acc))
    return None


def _dense(fs: FieldSpec, n: int, terms: Iterable[tuple[Scalar, Column]]) -> Optional[Vector]:
    """The sum of c * col over the (c, col) terms as a dense canonical n-vector, or None if it is 0."""
    out = [0] * n
    for c, col in terms:
        for i, x in col:
            out[i - 1] += c * x
    return None if fs.vanishes(out) else tuple(map(fs, out))


def _cond3(
    lam: LambdaParam, kappa: KappaParam, gs: Optional[Sequence[GroupElement]] = None
) -> Optional[Witness]:
    """The degree-1 compatibility at every (g, h, i < j) with g in gs (default: all of G)."""
    fs = lam.field
    n = lam.n
    for g in lam.group if gs is None else gs:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                lu, lv = lam.at(g, i), lam.at(g, j)
                # D3 vanishes at every h outside the support of lambda(g, v_i) and lambda(g, v_j)
                for h in sorted(lu.keys() | lv.keys()):
                    cu, cv = lu.get(h, 0), lv.get(h, 0)
                    terms = ((cv, h.column(i)), (-cv, g.column(i)))
                    terms += ((-cu, h.column(j)), (cu, g.column(j)))
                    diff = _dense(fs, n, terms)
                    if diff:
                        return Witness(3, g, h, (i, j), diff)
    return None


def _cond4(lam: LambdaParam, kappa: KappaParam) -> Optional[Witness]:
    """The cyclic sum of kappa_g(v_i, v_j) (^g v_k - v_k) at every g in the support of kappa."""
    fs = lam.field
    n = lam.n
    for g in kappa.support():
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    terms = []
                    for a, b, m in ((i, j, k), (j, k, i), (k, i, j)):
                        c = kappa.coefficient(g, a, b)
                        terms += ((c, g.column(m)), (-c, ((m, fs.one),)))
                    total = _dense(fs, n, terms)
                    if total:
                        return Witness(4, g, None, (i, j, k), total)
    return None


def _cond5(lam: LambdaParam, kappa: KappaParam) -> Optional[Witness]:
    """The cyclic sum D5 of lambda(kappa(v_a, v_b), v_m) at every i < j < k."""
    fs = lam.field
    n = lam.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                acc: dict[GroupElement, Scalar] = {}
                for a, b, m in ((i, j, k), (j, k, i), (k, i, j)):
                    for x, c in kappa.at(a, b).items():
                        for y, d in lam.at(x, m).items():
                            acc[y] = acc.get(y, 0) + c * d
                if not fs.vanishes(acc.values()):
                    return Witness(5, None, None, (i, j, k), AlgebraElement(fs, acc))
    return None


_CONDITIONS = {1: _cond1, 2: _cond2, 3: _cond3, 4: _cond4, 5: _cond5}
# The conditions that may be swept over the generators, each with the
# conditions that must hold on all of G first (see the module docstring).
_PREREQUISITES = {1: (), 3: (1,), 2: (1, 3)}


def check_condition(
    k: int,
    lam: LambdaParam,
    kappa: KappaParam,
    *,
    exhaustive: bool = False,
    known: Optional[dict[int, bool]] = None,
) -> tuple[bool, Optional[Witness]]:
    """Condition k with its first witness.

    Unless exhaustive, (1), (3) and (2) sweep the generators once their
    prerequisites hold.  `known` holds verdicts already decided on all of G,
    as `check_pbw` has them; a prerequisite missing from it is checked on
    the generators.
    """
    if k not in _CONDITIONS:
        raise ValueError(f"condition number must be 1..5, got {k}")
    sweep = _CONDITIONS[k]
    if not exhaustive and k in _PREREQUISITES:
        gens = lam.group.generators
        known = known or {}
        if all(
            known[p] if p in known else _CONDITIONS[p](lam, kappa, gens) is None
            for p in _PREREQUISITES[k]
        ) and sweep(lam, kappa, gens) is None:
            return True, None
    w = sweep(lam, kappa)
    return w is None, w


def is_pbw(lam: LambdaParam, kappa: KappaParam) -> bool:
    """The verdict of `check_pbw`, from the generator sweeps alone (see the module docstring)."""
    gens = lam.group.generators
    return (
        _cond4(lam, kappa) is None
        and _cond5(lam, kappa) is None
        and all(_CONDITIONS[k](lam, kappa, gens) is None for k in (2, 3, 1))
    )


def check_pbw(lam: LambdaParam, kappa: KappaParam, *, exhaustive: bool = False) -> ConditionReport:
    """Conjunction of the five conditions; the verdict is exact."""
    t0 = time.perf_counter()
    report = ConditionReport()
    # (3) before (2): the generator sweep of (2) needs the verdicts of (1) and (3).
    for k in (1, 3, 2, 4, 5):
        ok, w = check_condition(k, lam, kappa, exhaustive=exhaustive, known=report.verdicts)
        report.verdicts[k] = ok
        if w is not None:
            report.witnesses[k] = w
    report.timing_ms = (time.perf_counter() - t0) * 1000.0
    return report


# -- diagnostics on PBW-true inputs -------------------------------------------


def diagnose_kappa_support(lam: LambdaParam, kappa: KappaParam) -> tuple[bool, list[str]]:
    """Support constraints every PBW kappa must satisfy.

    Each g with kappa_g not identically zero acts as the identity, or is a
    reflection vanishing on its fixed space, or is a bireflection whose
    kappa-kernel is exactly the fixed space.  For symmetric groups the
    support must consist of 3-cycles.
    """
    fs = kappa.field
    n = kappa.n
    problems: list[str] = []
    for g in kappa.support():
        codim = g.fixed_space_codim()
        fixed = g.fixed_space_basis()
        if codim == 0:
            continue
        if codim == 1:
            for a in range(len(fixed)):
                for b in range(len(fixed)):
                    if g in kappa.eval(column(fixed[a]), column(fixed[b])):
                        problems.append(f"reflection {g!r} has nonzero kappa_g on its fixed space")
        elif codim == 2:
            rows = [
                [kappa.coefficient(g, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)
            ]
            ker = nullspace(fs, rows, n)
            if not same_subspace(fs, ker, fixed):
                problems.append(f"bireflection {g!r} has ker kappa_g != fixed space")
        else:
            problems.append(f"{g!r} in kappa support has fixed-space codim {codim} > 2")
    if lam.group.is_symmetric_group and kappa.n > 2:
        for g in kappa.support():
            cycles = [c for c in g.cycles() if len(c) > 1]
            if not (len(cycles) == 1 and len(cycles[0]) == 3):
                problems.append(f"kappa support contains the non-3-cycle {g!r}")
    return not problems, problems


def diagnose_lambda(lam: LambdaParam) -> tuple[bool, list[str]]:
    """Consequences of the PBW property for lambda, checked exhaustively.

    (1) lambda(1, *) = 0; (2) g lambda(g^-1, v) = -lambda(g, ^{g^-1} v) g^-1;
    (3) the power recursion; (4) support on h with h^-1 g a reflection or
    identity, vanishing on the reflecting hyperplane; (5) identity
    coefficients vanish unless g is a reflection and v is off its
    hyperplane.
    """
    fs = lam.field
    n = lam.n
    group = lam.group
    ident = group.identity
    problems: list[str] = []

    for i in range(1, n + 1):
        if lam.at(ident, i):
            problems.append(f"lambda(1, v_{i}) != 0")

    for g in group:
        ginv = g.inverse()
        g_elt = AlgebraElement.term(fs, g)
        ginv_elt = AlgebraElement.term(fs, ginv)
        for i in range(1, n + 1):
            lhs = g_elt * lam.at(ginv, i)
            rhs = -(lam.eval_vector(g, ginv.column(i)) * ginv_elt)
            if lhs != rhs:
                problems.append(f"inverse identity fails at ({g!r}, v_{i})")

    for g in group:
        powers = [ident, g]  # g^0, g^1, ..., up to g^order = 1
        while powers[-1] != ident:
            powers.append(powers[-1] * g)
        for j in range(1, len(powers)):
            for i in range(1, n + 1):
                expected = AlgebraElement(fs)
                for m in range(j):
                    post = powers[m]
                    expected = expected + lam.eval_vector(g, post.column(i)).mul_left(
                        powers[j - 1 - m]
                    ).mul_right(post)
                if lam.at(powers[j], i) != expected:
                    problems.append(f"power recursion fails at ({g!r}^{j}, v_{i})")

    for g in group:
        for i in range(1, n + 1):
            for h in sorted(lam.at(g, i)):
                r = h.inverse() * g
                codim = r.fixed_space_codim()
                if codim > 1:
                    problems.append(f"lambda({g!r}, v_{i}) supported on {h!r} with h^-1 g not a reflection")
                elif codim == 1:
                    for w in r.fixed_space_basis():
                        if h in lam.eval_vector(g, column(w)):
                            problems.append(
                                f"lambda({g!r}, *) nonzero at {h!r} on the hyperplane of h^-1 g"
                            )
                            break

    for g in group:
        if g.is_identity():
            continue
        codim = g.fixed_space_codim()
        if codim == 1:
            for w in g.fixed_space_basis():
                if ident in lam.eval_vector(g, column(w)):
                    problems.append(f"lambda_1({g!r}, .) nonzero on the fixed space")
                    break
        else:
            for i in range(1, n + 1):
                if lam.coefficient(ident, g, i):
                    problems.append(f"lambda_1({g!r}, v_{i}) != 0 for a non-reflection")
                    break
    return not problems, problems


def lemma_suite(lam: LambdaParam, kappa: KappaParam) -> dict[str, bool]:
    """Named consequences of the PBW property, for cross-checking PBW-true inputs.

    Only meaningful for the symmetric group acting by permutations.
    """
    from .classify import _read_betas

    fs = lam.field
    n = lam.n
    group = lam.group
    results: dict[str, bool] = {}

    ok, _ = diagnose_lambda(lam)
    results["lambda_corollaries"] = ok

    # lambda_c(c, v) = 0 for v in the fixed space of c
    ok = True
    for c in group:
        for w in c.fixed_space_basis():
            if c in lam.eval_vector(c, column(w)):
                ok = False
    results["fixed_vector_vanishing"] = ok

    # lambda_{g(i j)}(g, v_i) = -lambda_{g(i j)}(g, v_j)
    ok = True
    if group.is_permutation_group:
        for g in group:
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    gij = g * Perm.transposition(n, i, j)
                    if lam.coefficient(gij, g, i) != fs(-lam.coefficient(gij, g, j)):
                        ok = False
    results["transposition_antisymmetry"] = ok

    # lambda(g, v_1 + ... + v_n) = 0
    allv = column([fs.one] * n)
    results["row_sum_zero"] = all(not lam.eval_vector(g, allv) for g in group)

    # beta_1 + ... + beta_n = 0
    if n > 2 and fs.characteristic != 2 and group.is_symmetric_group:
        results["beta_sum_zero"] = not fs(sum(_read_betas(lam)))
    else:
        results["beta_sum_zero"] = True

    # kappa coefficient equalities across each 3-cycle
    ok = True
    if group.is_permutation_group and n > 2:
        for i, j, k in permutations(range(1, n + 1), 3):
            cyc = Perm.from_cycles(n, (i, j, k))
            base = kappa.coefficient(cyc, i, j)
            if kappa.coefficient(cyc, j, k) != base or kappa.coefficient(cyc, k, i) != base:
                ok = False
    results["three_cycle_equalities"] = ok

    ok, _ = diagnose_kappa_support(lam, kappa)
    results["kappa_support"] = ok
    return results
