"""Nonmodular conversion: trade lambda away for an invariant kappa.

When char(F) does not divide |G|, any PBW pair (lambda, kappa') is
isomorphic as a filtered algebra to a pair (0, kappa) via the averaging map

  gamma(v) = (1/|G|) sum_{a,b in G} lambda_{ab}(b, ^{b^-1} v) a
           = (1/|G|) sum_{b in G} lambda(b, ^{b^-1} v) b^-1

  kappa(u,v) = gamma(u) gamma(v) - gamma(v) gamma(u)
               + lambda(gamma(u), v) - lambda(gamma(v), u) + kappa'(u, v)

and the filtered map f(v) = v + gamma(v), f(g) = g.  The isomorphism is
checked here rather than assumed: the defining relations of the target
normalize to zero under the source's rewriting system, and the target's
system is confluent.  That fixes its filtered dimensions at every degree m
to |G| sum_{k <= m} C(n+k-1, k), as for the source, so no degree is
checked on its own.
"""

from __future__ import annotations

# The package imports this module whenever it is imported (see __init__.py),
# so at load time it imports only `__future__`: each function imports the
# dhecke modules it runs, `scalars` included.  The names below serve the
# annotations only, which are never evaluated.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .group_algebra import AlgebraElement
    from .parameters import KappaParam, LambdaParam


class NotPBWInput(ValueError):
    """Conversion is only defined on PBW pairs."""


class ConversionResult:
    """The averaging map and converted kappa; `verify_isomorphism` fills in `checks`."""

    def __init__(self, gamma: dict[int, AlgebraElement], kappa_converted: KappaParam) -> None:
        self.gamma = gamma
        self.kappa_converted = kappa_converted
        self.checks: dict[str, bool] = {}


def gamma(lam: LambdaParam) -> dict[int, AlgebraElement]:
    """The averaging map, computed exactly; refuses the modular case."""
    from .group_algebra import AlgebraElement

    fs = lam.field
    order = len(lam.group)
    inv_order = fs.inverse_of_integer(order)
    out: dict[int, AlgebraElement] = {}
    for i in range(1, lam.n + 1):
        acc = AlgebraElement(fs)
        for b in lam.group:
            binv = b.inverse()
            acc = acc + lam.eval_vector(b, binv.column(i)) * AlgebraElement.term(fs, binv)
        out[i] = acc.scale(inv_order)
    return out


def convert(lam: LambdaParam, kappa_prime: KappaParam) -> ConversionResult:
    """Build the converted kappa for a PBW pair in the nonmodular setting.

    Refuses a modular pair with ModularObstruction and a pair that fails the
    five-condition test with NotPBWInput.
    """
    from .parameters import KappaParam
    from .pbw import is_pbw
    from .scalars import ModularObstruction

    fs = lam.field
    if fs.characteristic and len(lam.group) % fs.characteristic == 0:
        raise ModularObstruction(
            f"|G| = {len(lam.group)} vanishes in characteristic {fs.characteristic}"
        )
    if not is_pbw(lam, kappa_prime):
        raise NotPBWInput("conversion requires a PBW input pair")
    g = gamma(lam)
    n = lam.n
    table: dict[tuple[int, int], AlgebraElement] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            table[(i, j)] = (
                g[i] * g[j]
                - g[j] * g[i]
                + lam.eval(g[i], ((j, fs.one),))
                - lam.eval(g[j], ((i, fs.one),))
                + kappa_prime.at(i, j)
            )
    return ConversionResult(gamma=g, kappa_converted=KappaParam(fs, n, table))


def verify_isomorphism(lam: LambdaParam, kappa_prime: KappaParam, result: ConversionResult) -> bool:
    """Certificate that f(v) = v + gamma(v) is an isomorphism.

    (i)  the commutator relations of the converted algebra map to zero,
    (ii) the group-action relations map to zero,
    (iii) "filtered_dimensions": the converted pair defines a confluent
         system, so its filtered dimensions equal the source's at every degree.

    Each relation goes to `normal_form` as a list of (word, coefficient)
    terms, which sums equal words and reduces mod p itself.

    The source system is confluent (checked first), so its normal form is
    zero exactly on the elements that are zero in the source algebra H.
    The group relations (ii) are checked only for g in the table's
    `generators` S.  Put, for v in V,

        R(g, v) = g f(v) - f(^g v) g        (in H),

    linear in v.  R(1, v) = f(v) - f(v) = 0.  With gh = g h in H (R1) and
    ^g ^h v = ^{gh} v,

        R(s h, v) = s (h f(v) - f(^h v) h) + (s f(^h v) - f(^s ^h v) s) h
                  = s R(h, v) + R(s, ^h v) h.

    Every element of a finite group is a positive word in S, so induct on
    the word length of g = s h: if R(s, .) = 0 on the basis for s in S,
    then R(g, .) = 0 for every g, and (ii) holds on G exactly when it holds
    on S.
    """
    from .parameters import LambdaParam
    from .rewrite import RewriteSystem

    n = lam.n
    rs = RewriteSystem(lam, kappa_prime)
    checks = {"commutator_relations": True, "group_relations": True}
    if not rs.is_confluent():
        raise NotPBWInput("the source pair does not define a confluent system")

    f_images = {
        i: [((i,), 1)] + [((g,), c) for g, c in result.gamma[i].items()] for i in range(1, n + 1)
    }

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # f(v_i) f(v_j) - f(v_j) f(v_i) - kappa(v_i, v_j)
            rel = [(wi + wj, ci * cj) for wi, ci in f_images[i] for wj, cj in f_images[j]]
            rel += [(wj + wi, -ci * cj) for wi, ci in f_images[i] for wj, cj in f_images[j]]
            rel += [((g,), -c) for g, c in result.kappa_converted.at(i, j).items()]
            if rs.normal_form(rel):
                checks["commutator_relations"] = False

    for g in lam.group.generators:
        for i in range(1, n + 1):
            # g f(v_i) - f(^g v_i) g
            rel = [((g,) + w, c) for w, c in f_images[i]]
            rel += [(w + (g,), -a * c) for k, a in g.column(i) for w, c in f_images[k]]
            if rs.normal_form(rel):
                checks["group_relations"] = False

    converted_rs = RewriteSystem(LambdaParam(lam.group, lam.field), result.kappa_converted)
    checks["filtered_dimensions"] = converted_rs.is_confluent()
    result.checks = checks
    return all(checks.values())
