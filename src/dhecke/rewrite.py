"""Rewriting engine for the filtered quadratic algebras H_{lambda,kappa}.

Words are tuples mixing basis-vector indices (ints, 1-based) and group
elements.  Three oriented rule families:

  R1:  g . h          ->  (gh)
  R2:  g . v_i        ->  (^g v_i expanded) . g  +  lambda(g, v_i)
  R3:  v_j . v_i      ->  v_i . v_j  -  kappa(v_i, v_j)        (j > i)

Fully reduced words are nondecreasing runs of variables followed by at
most one group token, i.e. exactly the monomials v_1^{e_1}...v_n^{e_n} g.

Termination: each application strictly decreases the ranking
(v-degree, group-tokens-left-of-a-variable, variable inversions,
group-token count) lexicographically -- R2's main term may raise the
inversion count, which is why the disorder count outranks it.  The
correction terms of R2/R3 drop the v-degree outright.

Reduction order: `normal_form` works one v-degree layer at a time, highest
first.  R1 and the main terms of R2 and R3 keep the v-degree; R2's lambda
terms lower it by 1 and R3's kappa terms by 2.  So no rule raises it, and
once the highest waiting layer is taken, every word that will ever reach
that degree is already in it or comes from a word in it.  Each layer is a
dict from words to coefficients, emptied last in first out (popitem):
every term a rule makes is added into the dict of its degree, so equal
words from different reduction paths are summed before they are reduced.
A term of degree 0 is a pure group word, and R1 multiplies it out at once;
it still counts its len - 1 steps.

This changes no result, even when the system is not confluent.  Under a
fixed strategy the rule applied to a word depends on that word alone, so
the full reduction N(w) of a word is a function of w, and the reduction of
sum c_w w is sum c_w N(w) in whatever order the terms are taken.  Summing
c w + c' w into (c + c') w before reducing is linearity of that sum.  The
same dict comes out, so overlap witnesses and printed bytes are unchanged;
only the work drops, from the number of reduction paths towards the number
of distinct words per layer.

Confluence of all overlap ambiguities is, by the diamond lemma (Bergman,
"The diamond lemma for ring theory", Adv. Math. 29, 1978), exactly the PBW
property; a failed overlap is a verdict, never repaired.
No division appears anywhere, so characteristic 2 is fully supported.

The group-group-var overlaps need only g in the table's `generators` S.
The two one-step reductions of (g, h, v_i) are

    (gh) v_i          ->  ^{gh}v_i (gh) + lambda(gh, v_i)
    g (^h v_i h + lambda(h, v_i))
                      ->  ^{gh}v_i (gh) + lambda(g, ^h v_i) h + g lambda(h, v_i),

so they differ by exactly the cocycle discrepancy of PBW condition (1) at
(g, h, i): a degree-0 element that does not involve kappa.  The overlap
resolves for every g once it resolves for g in S, by the word-length
induction in the `dhecke.pbw` docstring.

In default mode `_resolves_fast` decides such an overlap (s, h, v_i) first,
at about the cost of condition (1) at (s, h, i).  It applies exactly the
rules the leftmost reducer applies, read from the cached R2 right-hand sides:

- left: R1 gives (sh) v_i, then R2 on ((sh), v_i) gives
  sum_r a_r v_r (sh) + lambda(sh, v_i), where ^{sh} v_i = sum_r a_r v_r;
- right: R2 on (h, v_i) gives sum_r b_r s v_r h + s lambda(h, v_i), where
  ^h v_i = sum_r b_r v_r; R2 on each (s, v_r) gives ^s v_r s h +
  lambda(s, v_r) h, and R1 on what follows gives the words v_q (sh) and
  the group words lambda(s, v_r) h and s lambda(h, v_i), multiplied out.

Every word made is a v_q (sh) or an x in G.  These words are irreducible and
map one-to-one to the PBW monomials v_q (sh) and x, so the two normal forms
are these two sums, with their coefficients added up, and the overlap
resolves exactly when every coefficient of their difference vanishes mod p.
Summing equal words changes no normal form (see above), and it can only
lower the general reducer's step count, so the fast path's count of rule
applications bounds the count of each parse.

The group-var-var overlaps (g, v_j, v_i) need only g in S too, once every
group-group-var overlap resolves (`check_confluence` sweeps that family
first; `is_confluent` needs no order, see below).  The argument below
uses the rewrite rules alone, not the five conditions, so the oracle stays
independent of them.

- Let A be the free algebra on the tokens modulo R1 and R2, and pi the
  R1/R2 normal form.  The ambiguities of R1 and R2 alone are g h k
  (resolved by associativity) and the group-group-var words, whose
  reductions never put two variables side by side, so R3 plays no part
  in them.  R1 and R2 terminate, being part of the system above, so once
  those overlaps resolve, the diamond lemma makes pi a well-defined
  linear map on A, and the words in the v_i followed by one group token
  are a basis of A.  pi keeps the v-degree or lowers it (R2's main term
  keeps it, its lambda term lowers it).
- On a word with at most two variables and a group token, the leftmost
  strategy applies R3 only once no group token stands left of either
  variable, since such a token starts an earlier redex.  The kappa terms
  it then makes are pure group words, which R1 alone finishes.  So there
  the full normal form N is sigma(pi(.)), where sigma sorts each word
  x y h (x, y in V) with at most one R3 step.  Sorting x y h and y x h
  differs by exactly kappa(x, y) h, so with r(x, y) = y x - x y + kappa(x, y),
  the relation R3 imposes for x = v_i, y = v_j, i < j,

      sigma(pi(r(x, y) h)) = 0    for all x, y in V and h in G.

- For u = v_i, v = v_j with i < j, the two one-step reductions of
  (g, v_j, v_i) are left = ^g v g u + lambda(g, v) u (R2) and
  right = g u v - g kappa(u, v) (R3).  Now left = g v u in A, so
  left - right = g r(u, v) in A.  Put E(g; u, v) = g r(u, v) - r(^g u, ^g v) g.
  Under pi both g r(u, v) and r(^g u, ^g v) g have the degree-2 part
  ^g v ^g u g - ^g u ^g v g, so pi(E) has degree at most 1, where sigma is
  the identity.  Hence

      N(left) - N(right) = sigma(pi(E(g; u, v))) + sigma(pi(r(^g u, ^g v) g))
                         = pi(E(g; u, v)),

  and the overlap at g resolves exactly when E(g; v_i, v_j) = 0 in A.
- E is bilinear and alternating in (u, v), since r is.  With gh = g h in A
  (R1) and ^g ^h u = ^{gh} u,

      E(gh; u, v) = g E(h; u, v) + E(g; ^h u, ^h v) h     in A.

  If E(s; ., .) = 0 for s in S on basis pairs, it is 0 on all pairs.  The
  word-length induction of `dhecke.pbw` (g = s g', positive words in S)
  then gives E(g; ., .) = 0 for every g.

In default mode `_resolves_fast_gvv` decides such an overlap (g, v_j, v_i)
first, by the rules the leftmost reducer applies.  The left parse is R2 on
(g, v_j); the right parse is R3 on (v_j, v_i), whose kappa terms g x R1
multiplies out, then R2 on (g, v_i).  What follows in each parse is a word
v_r g v_w (from the main terms) or x v_w (x from a lambda term), and R2 on
its group token gives

- words v_r y and v_q x and group words z: normal;
- words v_r v_q g: R3 when r > q, whose kappa(v_q, v_r) g terms R1
  multiplies out.

Every word past the first step has at most one redex, so its reduction is
forced and the leftmost normal form is the only one.  `normal_form` is
linear in words (see above), so the normal form of each parse is the sum of
those of its terms, which is the sum the closed form builds, keyed by
normal word.  The sorted words v_min(r,q) v_max(r,q) g come out of both
parses with the same coefficients, the products of the entries of columns
i and j of g, and cancel; only R3's kappa terms of them are kept.

`_resolves_fast_vvv` decides an overlap (v_k, v_j, v_i), k > j > i, the
same way.  Write K(a, b) for kappa(v_a, v_b).  The leftmost reducer sorts
each parse with R3 three times, one redex at a time:

    left:  v_j v_k v_i - K(j, k) v_i  ->  v_j v_i v_k - v_j K(i, k) - K(j, k) v_i
                                      ->  v_i v_j v_k - K(i, j) v_k - v_j K(i, k) - K(j, k) v_i,
    right: v_k v_i v_j - v_k K(i, j)  ->  v_i v_k v_j - K(i, k) v_j - v_k K(i, j)
                                      ->  v_i v_j v_k - v_i K(j, k) - K(i, k) v_j - v_k K(i, j).

A word v_m x (x in G) is normal, and x v_m takes one R2 step to the normal
words of ^x v_m x + lambda(x, v_m).  With K(k, i) = -K(i, k), the
difference is the Jacobi sum of `dhecke.pbw`,

    left - right = sum over (a, b, m) in ((i, j, k), (j, k, i), (k, i, j))
                   of v_m K(a, b) - K(a, b) v_m,

with each x v_m rewritten by R2; the closed form sums it by normal word.
Its count is 6 R3 steps plus one R2 step per term of K(i, j), K(j, k) and
K(i, k), and it bounds the count of each parse, as above.

Every closed form is exact: it is the difference of the two leftmost normal
forms, and its rule count bounds the general reducer's.  So a count within
`step_budget` gives the verdict, pass or fail, and only a count past it
sends the overlap to the general reducer, which then decides it; every
StepBudgetExceeded comes from the general reducer.  `check_confluence` also
sends a failed overlap there for its witness, so witnesses and messages
are those of the general reducer.  `exhaustive=True` uses the general
reducer on every overlap; it is the oracle the closed forms are checked
against.

So by default `overlap_words` lists the group-group-var and group-var-var
words for g in S only: |S|.|G|.n + |S|.C(n,2) + C(n,3) overlaps instead of
|G|^2.n + |G|.C(n,2) + C(n,3).  When one of them fails, `check_confluence`
rescans its family over all of G in order, so the reported witness is the
one the full sweep finds first.  `exhaustive=True` sweeps all of G.

`is_confluent` gives the verdict alone, for callers that read nothing else
(`crossval`, `convert` and `verify_isomorphism`).  It decides the same
overlaps by their closed forms, the cheapest family first: group-var-var,
then group-group-var, then var-var-var, and it stops at the first failure,
without the rescan.  Its verdict may be read in any family order.  An
overlap that fails on S fails on G, since S is part of G, so any failure
found is the verdict.  When every overlap on S resolves, the group-group-var
family resolves on G, which is the prerequisite of the group-var-var
argument above, so every overlap on G resolves.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional, Union

from .groups import GroupElement, GroupTable, MatrixElement, Perm, parse_element
from .parameters import KappaParam, LambdaParam
from .scalars import FieldSpec, ModularObstruction, Scalar, StepBudgetExceeded

Token = Union[int, Perm, MatrixElement]
Word = tuple[Token, ...]
NCSum = dict[Word, Scalar]


DEFAULT_STEP_BUDGET = 10**7
# Longest word parse_word_sum will expand a power like "v1^k" into; a power
# past it is refused before any memory is spent on its tokens.
MAX_WORD_TOKENS = 10**6
# The order in which `is_confluent` sweeps the overlap families (see the module docstring).
CHEAPEST_FIRST = {"group-var-var": 0, "group-group-var": 1, "var-var-var": 2}


class NormalMonomial(NamedTuple):
    """A PBW monomial v_1^{e_1}...v_n^{e_n} g.

    Its tuple order is not the print order: printers sort by `sort_key()`.
    """

    exponents: tuple[int, ...]
    g: GroupElement

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def sort_key(self):
        """Descending degree, then exponents, then the group part."""
        return (-self.degree, self.exponents, self.g)


class OverlapWitness(NamedTuple):
    """An overlap ambiguity whose two one-step reductions disagree."""

    family: str
    word: Word
    difference: tuple[tuple[NormalMonomial, Scalar], ...]

    def to_json(self):
        return {
            "family": self.family,
            "word": [t if isinstance(t, int) else repr(t) for t in self.word],
            "difference": normal_form_to_json(dict(self.difference)),
        }


def _is_var(tok: Token) -> bool:
    return isinstance(tok, int)


def ranking(word: Word) -> tuple[int, int, int, int]:
    """Strictly decreasing under every rule application; see module docstring."""
    degree = 0
    disorder = 0
    group_tokens = 0
    inversions = 0
    vars_seen: list[int] = []
    for tok in word:
        if _is_var(tok):
            degree += 1
            disorder += group_tokens
            inversions += sum(1 for w in vars_seen if w > tok)
            vars_seen.append(tok)
        else:
            group_tokens += 1
    return (degree, disorder, inversions, group_tokens)


class RewriteSystem:
    """The oriented presentation of H_{lambda,kappa} over an enumerated group."""

    def __init__(self, lam: LambdaParam, kappa: KappaParam, step_budget: int = DEFAULT_STEP_BUDGET) -> None:
        if lam.field != kappa.field or lam.n != kappa.n:
            raise ValueError("lambda and kappa disagree on field or dimension")
        self.lam = lam
        self.kappa = kappa
        self.group = lam.group
        self.field: FieldSpec = lam.field
        self.n = lam.n
        self.step_budget = step_budget
        # R2's right-hand side per (g, i), see _r2_rhs.
        self._r2: dict[tuple[GroupElement, int], list[tuple[Word, Scalar, int]]] = {}

    # -- rules ---------------------------------------------------------------

    def _find_redex(self, word: Word, strategy: str) -> Optional[int]:
        rng = range(len(word) - 1)
        if strategy == "rightmost":
            rng = range(len(word) - 2, -1, -1)
        for pos in rng:
            a, b = word[pos], word[pos + 1]
            if not _is_var(a):
                return pos  # group followed by anything rewrites (R1/R2)
            if _is_var(b) and a > b:
                return pos  # R3
        return None

    def _r2_rhs(self, g: GroupElement, i: int) -> list[tuple[Word, Scalar, int]]:
        """R2's right-hand side for (g, v_i) as (middle of the word, coefficient, drop) terms.

        Built on first use and cached: a reduction applies R2 to the same
        few pairs over and over.
        """
        rhs = self._r2.get((g, i))
        if rhs is None:
            rhs = self._r2[(g, i)] = [((r, g), c, 0) for r, c in g.column(i)] + [
                ((h,), c, 1) for h, c in self.lam.at(g, i).items()
            ]
        return rhs

    def _apply_rule(self, word: Word, pos: int) -> list[tuple[Word, Scalar, int]]:
        """The rule at pos as (word, coefficient, v-degree drop) terms.

        The drop is 0 for R1 and the main terms of R2 and R3, 1 for R2's
        lambda terms and 2 for R3's kappa terms.
        """
        pre, post = word[:pos], word[pos + 2 :]
        a, b = word[pos], word[pos + 1]
        if not _is_var(a) and not _is_var(b):
            return [(pre + (self.group.product(a, b),) + post, 1, 0)]
        if not _is_var(a):
            return [(pre + mid + post, c, drop) for mid, c, drop in self._r2_rhs(a, b)]
        j, i = a, b
        kappa_terms = self.kappa.at(i, j).items()
        return [(pre + (i, j) + post, 1, 0)] + [(pre + (h,) + post, -c, 2) for h, c in kappa_terms]

    # -- reduction -------------------------------------------------------------

    def normal_form(
        self, x: Union[NCSum, Iterable[tuple[Word, Scalar]]], strategy: str = "leftmost"
    ) -> dict[NormalMonomial, Scalar]:
        """Fully reduce a noncommutative sum to PBW monomials, with canonical coefficients.

        The input coefficients need not be canonical: every product and sum is reduced mod p.
        Words are reduced one v-degree layer at a time, highest first, and
        equal words of a layer are summed before they are reduced (see the
        module docstring).  StepBudgetExceeded is raised once more than
        `step_budget` rules have been applied.
        """
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError(f"unknown strategy {strategy!r}")
        p = self.field.characteristic
        budget = self.step_budget
        group_only = (0,) * self.n
        product = self.group.product
        items = x.items() if isinstance(x, dict) else x
        out: dict[NormalMonomial, Scalar] = {}
        # layers[d] sums the words of v-degree d > 0 that wait to be reduced.
        layers: dict[int, NCSum] = {}
        steps = 0

        def put(word: Word, c: Scalar, degree: int) -> None:
            nonlocal steps
            if degree:
                layer = layers.setdefault(degree, {})
                total = layer.get(word, 0) + c
                layer[word] = total % p if p else total
                return
            # A pure group word: R1 multiplies it out, one step per product.
            g = word[0] if word else self.group.identity
            for h in word[1:]:
                g = product(g, h)
            steps += max(len(word) - 1, 0)
            if steps > budget:
                raise StepBudgetExceeded(f"exceeded {budget} reduction steps")
            mono = NormalMonomial(group_only, g)
            total = out.get(mono, 0) + c
            out[mono] = total % p if p else total

        for w, c in items:
            if c:
                put(w, c, len([t for t in w if _is_var(t)]))
        while layers:
            degree = max(layers)
            layer = layers[degree]
            while layer:
                word, coeff = layer.popitem()
                if not coeff:
                    continue
                pos = self._find_redex(word, strategy)
                if pos is None:
                    mono = self._canonical(word)
                    total = out.get(mono, 0) + coeff
                    out[mono] = total % p if p else total
                    continue
                steps += 1
                if steps > budget:
                    raise StepBudgetExceeded(f"exceeded {budget} reduction steps")
                for new_word, factor, drop in self._apply_rule(word, pos):
                    put(new_word, coeff * factor, degree - drop)
            del layers[degree]
        return {mono: c for mono, c in out.items() if c}

    def _canonical(self, word: Word) -> NormalMonomial:
        exps = [0] * self.n
        g: Optional[GroupElement] = None
        for tok in word:
            if _is_var(tok):
                exps[tok - 1] += 1
            else:
                g = tok
        return NormalMonomial(tuple(exps), g if g is not None else self.group.identity)

    # -- confluence --------------------------------------------------------------

    def _family(self, family: str, firsts: Iterable[GroupElement]) -> list[tuple[str, Word]]:
        """The group-group-var or group-var-var overlaps whose first token is in firsts."""
        n = self.n
        if family == "group-group-var":
            return [(family, (g, h, i)) for g in firsts for h in self.group for i in range(1, n + 1)]
        return [(family, (g, j, i)) for g in firsts for j in range(n, 0, -1) for i in range(j - 1, 0, -1)]

    def overlap_words(self, *, exhaustive: bool = False) -> list[tuple[str, Word]]:
        """The overlap ambiguities to resolve, in deterministic order.

        Families: (g, h, v_i); (g, v_j, v_i) with j > i; (v_k, v_j, v_i)
        with k > j > i.  In the first two, g is a generator unless
        exhaustive (see the module docstring).  Triple-group words (g, h, k)
        are resolved by group associativity -- both parses collapse to the
        product ghk -- and are skipped.
        """
        firsts = self.group if exhaustive else self.group.generators
        out = self._family("group-group-var", firsts) + self._family("group-var-var", firsts)
        for k in range(self.n, 0, -1):
            for j in range(k - 1, 0, -1):
                for i in range(j - 1, 0, -1):
                    out.append(("var-var-var", (k, j, i)))
        return out

    def _resolves_fast(self, word: Word) -> Optional[bool]:
        """Whether the group-group-var overlap (s, h, v_i) resolves, by its few rules alone.

        It applies the rules the leftmost reducer applies (see the module
        docstring).  None means that the rule count passes the step budget.
        """
        s, h, i = word
        product = self.group.product
        sh = product(s, h)
        # The words (v_r, sh) and (x,) are told apart by their first token.
        diff: dict[Token, Scalar] = {}
        steps = 3  # R1 on (s, h), R2 on (sh, v_i), R2 on (h, v_i)
        for mid, c, _ in self._r2_rhs(sh, i):
            diff[mid[0]] = diff.get(mid[0], 0) + c
        for mid, c, drop in self._r2_rhs(h, i):
            steps += 1
            if drop:  # s lambda(h, v_i): R1
                x = product(s, mid[0])
                diff[x] = diff.get(x, 0) - c
                continue
            for mid2, c2, drop2 in self._r2_rhs(s, mid[0]):  # R2 on (s, v_r), then R1
                steps += 1
                t = mid2[0]
                if drop2:
                    t = product(t, h)
                diff[t] = diff.get(t, 0) - c * c2
        return None if steps > self.step_budget else self.field.vanishes(diff.values())

    def _resolves_fast_gvv(self, word: Word) -> Optional[bool]:
        """Whether the group-var-var overlap (g, v_j, v_i) resolves, by its few rules alone.

        As `_resolves_fast`, with the rules of the module docstring; the
        difference is summed by normal word.
        """
        g, j, i = word
        product = self.group.product
        diff: dict[Word, Scalar] = {}
        # The right parse starts with R3 on (v_j, v_i): R1 on each g kappa(v_i, v_j).
        kappa_ij = self.kappa.at(i, j)
        for x, c in kappa_ij.items():
            gx = (product(g, x),)
            diff[gx] = diff.get(gx, 0) + c
        steps = 3 + len(kappa_ij)  # R2 on (g, v_j); R3 on (v_j, v_i), R2 on (g, v_i); the R1s
        # Each parse moves g past its first letter v_u, then what stands left of
        # v_w past v_w: the left parse (+) has u, w = j, i, the right (-) i, j.
        for u, w, sign in ((j, i, 1), (i, j, -1)):
            for mid, c, _ in self._r2_rhs(g, u):  # v_r g or x in lambda(g, v_u)
                steps += 1
                for mid2, c2, _ in self._r2_rhs(mid[-1], w):
                    word2 = mid[:-1] + mid2
                    k = sign * c * c2
                    if len(word2) < 3:  # v_r y, v_q x or z: normal words
                        diff[word2] = diff.get(word2, 0) + k
                        continue
                    r, q, _ = word2  # v_r v_q g; the sorted words cancel between the parses
                    if r > q:  # R3, then R1 on each kappa(v_q, v_r) g
                        kappa_qr = self.kappa.at(q, r)
                        steps += 1 + len(kappa_qr)
                        for y, e in kappa_qr.items():
                            yg = (product(y, g),)
                            diff[yg] = diff.get(yg, 0) - k * e
        return None if steps > self.step_budget else self.field.vanishes(diff.values())

    def _resolves_fast_vvv(self, word: Word) -> Optional[bool]:
        """Whether the var-var-var overlap (v_k, v_j, v_i) resolves, by its few rules alone.

        As `_resolves_fast`: the difference is the sum over the cyclic
        (a, b, m) of [v_m, kappa(v_a, v_b)] under R2 (see the module docstring).
        """
        k, j, i = word
        diff: dict[Word, Scalar] = {}
        steps = 6  # R3 three times in each parse
        for a, b, m in ((i, j, k), (j, k, i), (k, i, j)):
            for x, c in self.kappa.at(a, b).items():
                steps += 1  # R2 on (x, v_m)
                diff[m, x] = diff.get((m, x), 0) + c  # v_m x
                for mid, c2, _ in self._r2_rhs(x, m):  # x v_m
                    diff[mid] = diff.get(mid, 0) - c * c2
        return None if steps > self.step_budget else self.field.vanishes(diff.values())

    def _resolve(self, family: str, word: Word) -> Optional[OverlapWitness]:
        """Reduce both parses of an overlap with the general reducer; their difference if they disagree."""
        try:
            left = self.normal_form((w, c) for w, c, _ in self._apply_rule(word, 0))
            right = self.normal_form((w, c) for w, c, _ in self._apply_rule(word, 1))
        except StepBudgetExceeded as exc:
            raise StepBudgetExceeded(f"{exc} while resolving the {family} overlap {format_word(word)}") from None
        if left == right:
            return None
        diff = nc_sub(self.field, left, right)
        return OverlapWitness(
            family, word, tuple(sorted(diff.items(), key=lambda t: t[0].sort_key()))
        )

    _CLOSED_FORMS = {
        "group-group-var": _resolves_fast,
        "group-var-var": _resolves_fast_gvv,
        "var-var-var": _resolves_fast_vvv,
    }

    def _witness(self, family: str, word: Word, exhaustive: bool = False) -> Optional[OverlapWitness]:
        """The overlap's witness from the general reducer, or None if it resolves.

        Unless exhaustive, its closed form decides first, so the general
        reducer runs only on a failure or a rule count past the step budget.
        """
        if not exhaustive and self._CLOSED_FORMS[family](self, word):
            return None
        return self._resolve(family, word)

    def is_confluent(self) -> bool:
        """The verdict of `check_confluence`, cheapest family first (see the module docstring)."""
        for family, word in sorted(self.overlap_words(), key=lambda fw: CHEAPEST_FIRST[fw[0]]):
            resolves = self._CLOSED_FORMS[family](self, word)
            if resolves is None:
                resolves = self._resolve(family, word) is None
            if not resolves:
                return False
        return True

    def check_confluence(self, *, exhaustive: bool = False) -> tuple[bool, Optional[OverlapWitness]]:
        """Resolve every overlap both ways; pass iff all pairs agree.

        The witness is the first failing overlap of the exhaustive order in
        either mode (see the module docstring).
        """
        found = (self._witness(f, w, exhaustive) for f, w in self.overlap_words(exhaustive=exhaustive))
        witness = next((w for w in found if w), None)
        if witness is None:
            return True, None
        if witness.family != "var-var-var" and not exhaustive:
            rescan = (self._witness(witness.family, w) for _, w in self._family(witness.family, self.group))
            witness = next(w for w in rescan if w)
        return False, witness


# -- sums, parsing, printing ---------------------------------------------------


def nc_sub(field_spec: FieldSpec, x: NCSum, y: NCSum) -> NCSum:
    """x - y without zero coefficients: the difference of two normal forms in an overlap witness."""
    out = dict(x)
    for w, c in y.items():
        out[w] = field_spec(out.get(w, 0) - c)
    return {w: c for w, c in out.items() if c}


_VAR_RE = re.compile(r"v([0-9]+)(?:\^([0-9]+))?")


def _bounded_int(digits: str, bound: int) -> int:
    """The value of ASCII `digits`, or bound + 1 if it has more digits than `bound`.

    So a long digit string never reaches `int()`, which refuses one of more than 4300 digits.
    """
    digits = digits.lstrip("0")
    return int(digits or "0") if len(digits) <= len(str(bound)) else bound + 1


def _terms(text: str) -> list[tuple[str, list[str]]]:
    """The signed terms of word text, each a list of whole tokens.

    Whitespace and "·" separate tokens, and "+" and "-" terms, but not
    inside brackets, so that an element is one token, nor, for a sign, right after "^".
    """
    terms: list[tuple[str, list[str]]] = []
    sign, tokens, tok, depth = "+", [], "", 0
    for ch in text:
        if depth or not (ch.isspace() or ch == "·" or ch in "+-" and tok[-1:] != "^"):
            depth = max(depth + (ch == "[") - (ch == "]"), 0)
            tok += ch
            continue
        if tok:
            tokens.append(tok)
            tok = ""
        if ch in "+-":
            if tokens:
                terms.append((sign, tokens))
            elif terms or sign != "+":
                raise ValueError("empty term in word expression")
            sign, tokens = ch, []
    if tok:
        tokens.append(tok)
    if not tokens:
        raise ValueError("empty term in word expression")
    return terms + [(sign, tokens)]


def parse_word_sum(
    text: str, field_spec: FieldSpec, n: int, group: Optional[GroupTable] = None
) -> NCSum:
    """Parse CLI word syntax into a noncommutative sum.

    Tokens: "v3", "v3^2", the group elements `groups.parse_element` reads
    (which must lie in `group` when one is given) and scalars, which
    `field_spec` reads, e.g. "2 v1 v2 - g[2,1,3] v1".  A power may not take
    its word past MAX_WORD_TOKENS tokens.
    """
    out: NCSum = {}
    for sgn, tokens in _terms(text):
        coeff = field_spec(1 if sgn == "+" else -1)
        word: list[Token] = []
        for tok in tokens:
            m = _VAR_RE.fullmatch(tok)
            if m:
                i, k = _bounded_int(m[1], n), _bounded_int(m[2] or "1", MAX_WORD_TOKENS)
                if not 1 <= i <= n:
                    raise ValueError(f"variable index out of range: {tok}")
                if len(word) + k > MAX_WORD_TOKENS:
                    raise ValueError(f"token {tok} makes its word longer than {MAX_WORD_TOKENS} tokens")
                word.extend([i] * k)
            elif tok.startswith(("g[", "M[")):
                word.append(parse_element(tok, field_spec, n, group))
            else:
                try:
                    c = field_spec(tok)
                except ValueError:
                    raise ValueError(f"cannot parse token {tok!r}") from None
                except ModularObstruction as exc:
                    raise ModularObstruction(f"scalar {tok}: {exc}") from None
                if word:
                    raise ValueError(f"scalar {tok} must prefix its word")
                coeff = field_spec(coeff * c)
        w = tuple(word)
        out[w] = field_spec(out.get(w, 0) + coeff)
    return {w: c for w, c in out.items() if c}


def format_word(word: Word) -> str:
    """A word in the token syntax of parse_word_sum, e.g. "g[2,1,3] v2 v1"."""
    return " ".join(f"v{t}" if _is_var(t) else repr(t) for t in word)


def normal_form_to_json(nf: dict[NormalMonomial, Scalar]) -> list[dict]:
    """One {"exponents", "g", "coeff"} record per term, in sort_key order."""
    return [
        {"exponents": list(m.exponents), "g": repr(m.g), "coeff": str(c)}
        for m, c in sorted(nf.items(), key=lambda t: t[0].sort_key())
    ]


def format_normal_form(nf: dict[NormalMonomial, Scalar]) -> str:
    """Deterministic PBW-monomial rendering, re-parseable by parse_word_sum."""
    parts: list[str] = []
    for mono, coeff in sorted(nf.items(), key=lambda t: t[0].sort_key()):
        cs = str(coeff)
        factors = [] if cs.lstrip("-") == "1" else [cs.lstrip("-")]
        factors += [f"v{i}" if e == 1 else f"v{i}^{e}" for i, e in enumerate(mono.exponents, start=1) if e]
        parts += ["-" if cs[0] == "-" else "+", "·".join(factors + [repr(mono.g)])]
    if not parts:
        return "0"
    # The first term takes no "+", and its "-" no space.
    return " ".join(parts)[2:] if parts[0] == "+" else "-" + " ".join(parts[1:])
