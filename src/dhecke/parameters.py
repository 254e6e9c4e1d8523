"""Parameter functions for deformations of S(V)#G.

kappa : V (x) V -> FG   (alternating; given on index pairs i < j, and
                         stored in both orientations)
lambda: FG (x) V -> FG  (stored on (group element, basis index); absent
                         entries read as zero)

Every value is an `AlgebraElement`, a {group element: coefficient} dict,
and each lookup returns the stored value itself.

Also here: the conjugation-twisted group action on parameters, seeded
random parameter generation, and the JSON parameter-file format shared by
the CLI and the fixture corpus.
"""

from __future__ import annotations

import random

from .groups import GroupElement, GroupTable, MatrixElement, Perm, symmetric_group
from .group_algebra import AlgebraElement
from .linalg import Column
from .scalars import FieldSpec, ModularObstruction, Scalar, read_int


class KappaParam:
    """Alternating bilinear map V x V -> FG, tabulated on pairs i < j.

    `table` holds kappa(v_i, v_j) for i < j.  Both orientations are stored
    once, here, so `at` is a single lookup for every (i, j): the entry at
    (j, i) is the negated value, and a value read twice is the same object.
    """

    def __init__(self, field_spec: FieldSpec, n: int, table: dict[tuple[int, int], AlgebraElement] | None = None) -> None:
        self.field = field_spec
        self.n = n
        self._zero = AlgebraElement(field_spec)  # the one value of every absent entry
        self.table: dict[tuple[int, int], AlgebraElement] = {}
        self._values: dict[tuple[int, int], AlgebraElement] = {}  # both orientations
        if table:
            for (i, j), val in table.items():
                if not 1 <= i < j <= n:
                    raise ValueError(f"kappa table key must have 1 <= i < j <= n, got {(i, j)}")
                if val:
                    self.table[(i, j)] = self._values[(i, j)] = val
                    self._values[(j, i)] = -val

    def at(self, i: int, j: int) -> AlgebraElement:
        """kappa(v_i, v_j) with the alternating convention built in."""
        return self._values.get((i, j), self._zero)

    def coefficient(self, g: GroupElement, i: int, j: int) -> Scalar:
        return self.at(i, j).get(g, 0)

    def eval(self, u: Column, v: Column) -> AlgebraElement:
        """Bilinear alternating extension to vectors given as columns."""
        pairs = []
        for i, a in u:
            for j, b in v:
                ab = a * b
                pairs.extend((g, ab * x) for g, x in self.at(i, j).items())
        return AlgebraElement.from_pairs(self.field, pairs)

    def support(self) -> list[GroupElement]:
        seen: set[GroupElement] = set()
        for val in self.table.values():
            seen.update(val)
        return sorted(seen)

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KappaParam)
            and self.field == other.field
            and self.n == other.n
            and self.table == other.table
        )

    def scale(self, c: Scalar) -> "KappaParam":
        return KappaParam(self.field, self.n, {k: v.scale(c) for k, v in self.table.items()})


class LambdaParam:
    """Bilinear map FG x V -> FG tabulated on (group element, basis index)."""

    def __init__(
        self,
        group: GroupTable,
        field_spec: FieldSpec,
        table: dict[tuple[GroupElement, int], AlgebraElement] | None = None,
    ) -> None:
        self.group = group
        self.field = field_spec
        self.n = group.n
        self._zero = AlgebraElement(field_spec)  # the one value of every absent entry
        self.table: dict[tuple[GroupElement, int], AlgebraElement] = {}
        if table:
            for (g, i), val in table.items():
                if g not in group:
                    raise ValueError(f"lambda table key {g!r} is not in the enumerated group")
                if not 1 <= i <= self.n:
                    raise ValueError(f"basis index {i} out of range")
                if val:
                    self.table[(g, i)] = val

    def at(self, g: GroupElement, i: int) -> AlgebraElement:
        return self.table.get((g, i), self._zero)

    def coefficient(self, h: GroupElement, g: GroupElement, i: int) -> Scalar:
        """The scalar lambda_h(g, v_i)."""
        return self.at(g, i).get(h, 0)

    def eval_vector(self, g: GroupElement, v: Column) -> AlgebraElement:
        """lambda(g, v) for v given as a column."""
        return AlgebraElement.from_pairs(
            self.field, ((h, c * x) for i, c in v for h, x in self.at(g, i).items())
        )

    def eval(self, x: AlgebraElement, v: Column) -> AlgebraElement:
        """Bilinear extension with an FG-valued first slot."""
        pairs = []
        for g, c in x.items():
            for i, a in v:
                ca = c * a
                pairs.extend((h, ca * y) for h, y in self.at(g, i).items())
        return AlgebraElement.from_pairs(self.field, pairs)

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LambdaParam)
            and self.field == other.field
            and self.group.elements == other.group.elements
            and self.table == other.table
        )

    def scale(self, c: Scalar) -> "LambdaParam":
        return LambdaParam(self.group, self.field, {k: v.scale(c) for k, v in self.table.items()})


# -- group action on parameters ---------------------------------------------


def act_on_kappa(h: GroupElement, kappa: KappaParam) -> KappaParam:
    """(^h kappa)(u, v) = ^h(kappa(^{h^-1} u, ^{h^-1} v)), conjugating values."""
    fs = kappa.field
    n = kappa.n
    hinv = h.inverse()
    table: dict[tuple[int, int], AlgebraElement] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            table[(i, j)] = kappa.eval(hinv.column(i), hinv.column(j)).conjugate_by(h)
    return KappaParam(fs, n, table)


def act_on_lambda(h: GroupElement, lam: LambdaParam) -> LambdaParam:
    """(^h lambda)(g, v) = ^h(lambda(h^-1 g h, ^{h^-1} v))."""
    fs = lam.field
    n = lam.n
    hinv = h.inverse()
    table: dict[tuple[GroupElement, int], AlgebraElement] = {}
    for g in lam.group:
        conj = hinv * g * h
        for i in range(1, n + 1):
            table[(g, i)] = lam.eval_vector(conj, hinv.column(i)).conjugate_by(h)
    return LambdaParam(lam.group, fs, table)


# -- random parameters -------------------------------------------------------


def _random_scalar(rng: random.Random, fs: FieldSpec, nonzero: bool = False) -> Scalar:
    if fs.characteristic:
        return rng.randrange(1 if nonzero else 0, fs.characteristic)
    while True:
        s = fs(rng.randint(-5, 5))
        if s or not nonzero:
            return s


def _random_algebra_element(rng: random.Random, fs: FieldSpec, group: GroupTable, max_terms: int) -> AlgebraElement:
    k = rng.randint(0, max_terms)
    acc: dict[GroupElement, Scalar] = {}
    for _ in range(k):
        g = group.elements[rng.randrange(len(group))]
        acc[g] = _random_scalar(rng, fs, nonzero=True)
    return AlgebraElement(fs, acc)


def random_params(
    n: int, field_spec: FieldSpec, seed: int, profile: str = "general"
) -> tuple[LambdaParam, KappaParam]:
    """Deterministic pseudo-random (lambda, kappa) for the symmetric group.

    Profiles: "general" draws sparse unconstrained tables; "mu-family"
    draws a random classification tuple and expands it (always PBW);
    "perturbed-mu" additionally bumps one random table entry by a nonzero
    delta (never PBW for n > 2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if profile not in ("general", "mu-family", "perturbed-mu"):
        raise ValueError(f"unknown profile {profile!r}")
    rng = random.Random(f"{profile}|n={n}|p={field_spec.characteristic}|seed={seed}")
    group = symmetric_group(n)
    if profile == "general":
        lam_table: dict[tuple[GroupElement, int], AlgebraElement] = {}
        for g in group:
            for i in range(1, n + 1):
                if rng.random() < 0.5:
                    lam_table[(g, i)] = _random_algebra_element(rng, field_spec, group, 2)
        kap_table: dict[tuple[int, int], AlgebraElement] = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.5:
                    kap_table[(i, j)] = _random_algebra_element(rng, field_spec, group, 2)
        return LambdaParam(group, field_spec, lam_table), KappaParam(field_spec, n, kap_table)

    from .classify import MuParams, build_H_mu

    a = {
        (i, j): _random_scalar(rng, field_spec)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    b = tuple(_random_scalar(rng, field_spec) for _ in range(n - 1))
    c = _random_scalar(rng, field_spec)
    mu = MuParams(field_spec, n, a, b, c)
    lam, kappa = build_H_mu(mu)
    if profile == "mu-family":
        return lam, kappa

    delta = _random_scalar(rng, field_spec, nonzero=True)
    target = group.elements[rng.randrange(len(group))]
    if rng.random() < 0.5:
        g = group.elements[rng.randrange(len(group))]
        i = rng.randint(1, n)
        bump = AlgebraElement.term(field_spec, target, delta)
        lam_table = dict(lam.table)
        lam_table[(g, i)] = lam.at(g, i) + bump
        return LambdaParam(group, field_spec, lam_table), kappa
    i = rng.randint(1, n - 1)
    j = rng.randint(i + 1, n)
    bump = AlgebraElement.term(field_spec, target, delta)
    kap_table = dict(kappa.table)
    kap_table[(i, j)] = kappa.at(i, j) + bump
    return lam, KappaParam(field_spec, n, kap_table)


# -- JSON parameter files -----------------------------------------------------


def element_to_json(g: GroupElement):
    if isinstance(g, Perm):
        return list(g)
    return [str(s) for row in g.rows for s in row]


def _field(obj, key: str, where: str):
    """obj[key] for a JSON object, or a ValueError naming what is missing."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where} is missing the field {key!r}")
    return obj[key]


def _int_value(value, where: str) -> int:
    """An integer written as a JSON number or a string `read_int` reads, or a ValueError naming `where`."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return read_int(value)
        except ValueError:
            pass
    raise ValueError(f"{where} must be an integer, got {value!r}")


def _int_field(obj, key: str, where: str) -> int:
    return _int_value(_field(obj, key, where), f"{where} field {key!r}")


def _scalar_value(value, fs: FieldSpec, where: str) -> Scalar:
    """A scalar written as an integer or a "num/den" string, or a ValueError naming `where`."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return fs(value)
        except ModularObstruction as exc:
            raise ModularObstruction(f"{where}: {exc}") from None
        except ValueError:
            pass
    raise ValueError(f"{where} must be a scalar such as \"3\" or \"-1/2\", got {value!r}")


def _list_field(obj, key: str, where: str, optional: bool = False) -> list:
    """A list-valued field; an optional one reads as [] when absent (obj must be an object)."""
    value = obj.get(key, []) if optional else _field(obj, key, where)
    if not isinstance(value, list):
        raise ValueError(f"{where} field {key!r} must be a list, got {type(value).__name__}")
    return value


def _matrix_from_json(flat, fs: FieldSpec, n: int, where: str) -> MatrixElement:
    """A matrix written as its n*n row-major entries."""
    if not isinstance(flat, list) or len(flat) != n * n:
        raise ValueError(f"{where} must be a list of {n * n} matrix entries, got {flat!r}")
    entries = [_scalar_value(x, fs, f"{where} entry {k}") for k, x in enumerate(flat)]
    try:
        return MatrixElement(fs, [entries[r * n : (r + 1) * n] for r in range(n)])
    except ValueError as exc:  # a singular matrix
        raise ValueError(f"{where}: {exc}") from None


def element_from_json(data, group: GroupTable, where: str = "group element") -> GroupElement:
    """The table's own element that `data` names; a list of plain ints is first looked up in the table."""
    g = group.lookup(data)
    if g is not None:
        return g
    if not isinstance(data, list):
        raise ValueError(f"{where} must be a list of entries, got {data!r}")
    if group.is_permutation_group:
        g: GroupElement = Perm([_int_value(x, f"{where} entry {k}") for k, x in enumerate(data)])
    else:
        g = _matrix_from_json(data, group.field, group.n, where)
    return group.member(g, f"element {g!r}")


def algebra_element_to_json(x: AlgebraElement):
    return [
        {"g": element_to_json(g), "coeff": str(c)}
        for g, c in sorted(x.items())
    ]


def algebra_element_from_json(
    data, group: GroupTable, fs: FieldSpec, scalars: dict, where: str = "group-algebra value"
) -> AlgebraElement:
    """An element of FG written as its {"g", "coeff"} terms.

    `scalars` maps the coefficient strings already parsed to their values;
    one dict serves all the calls for a file.  A term whose string
    is known and whose g the table looks up is taken at once; any other
    term is validated, and only then are the strings naming it built.
    """
    if not isinstance(data, list):
        raise ValueError(f"{where} must be a list of terms, got {type(data).__name__}")
    pairs = []
    for k, t in enumerate(data):
        raw = t.get("coeff") if type(t) is dict else None
        coeff = scalars.get(raw) if type(raw) is str else None
        g = group.lookup(t.get("g")) if coeff is not None else None
        if g is None:
            term = f"{where} term {k}"
            coeff = _scalar_value(_field(t, "coeff", term), fs, f"{term} field 'coeff'")
            g = element_from_json(_field(t, "g", term), group, f"{term} field 'g'")
            if type(raw) is str:
                scalars[raw] = coeff
        pairs.append((g, coeff))
    return AlgebraElement.from_pairs(fs, pairs)


def group_to_json(group: GroupTable):
    if group.is_symmetric_group:
        return {"type": "symmetric_permutation", "n": group.n}
    if group.is_permutation_group:
        raise ValueError(
            f"the permutation group generated by {list(group.generators)} is not all of "
            f"S_{group.n}, and parameter files hold only S_n or a matrix group"
        )
    return {"type": "matrix", "generators": [element_to_json(g) for g in group.generators]}


def group_from_json(data, fs: FieldSpec, n: int) -> GroupTable:
    kind = _field(data, "type", "group")
    if kind == "symmetric_permutation":
        if _int_field(data, "n", "group") != n:
            raise ValueError("group n disagrees with the file n")
        return symmetric_group(n)
    if kind == "matrix":
        flats = _list_field(data, "generators", "group")
        if not flats:
            raise ValueError("group field 'generators' must list at least one generator")
        return GroupTable(
            [_matrix_from_json(flat, fs, n, f"group generator {k}") for k, flat in enumerate(flats)]
        )
    raise ValueError(f"unknown group type {kind!r}")


def params_to_json(lam: LambdaParam, kappa: KappaParam):
    """Full-table parameter file; entries are explicit even when zero."""
    group = lam.group
    n = lam.n
    lam_entries = []
    for g in group:
        for i in range(1, n + 1):
            lam_entries.append(
                {"g": element_to_json(g), "i": i, "value": algebra_element_to_json(lam.at(g, i))}
            )
    kap_entries = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            kap_entries.append({"i": i, "j": j, "value": algebra_element_to_json(kappa.at(i, j))})
    return {
        "characteristic": lam.field.characteristic,
        "n": n,
        "group": group_to_json(group),
        "lambda": lam_entries,
        "kappa": kap_entries,
    }


def params_from_json(data) -> tuple[LambdaParam, KappaParam]:
    """Parse a parameter file; a missing or ill-typed field raises ValueError naming it."""
    top = "parameter file"
    fs = FieldSpec(_int_field(data, "characteristic", top))
    n = _int_field(data, "n", top)
    if n < 1:
        raise ValueError(f"{top} field 'n' must be at least 1, got {n}")
    group = group_from_json(_field(data, "group", top), fs, n)
    scalars: dict = {}  # coefficient strings parsed so far
    lam_table: dict[tuple[GroupElement, int], AlgebraElement] = {}
    for k, entry in enumerate(_list_field(data, "lambda", top, optional=True)):
        where = f"lambda entry {k}"
        g = element_from_json(_field(entry, "g", where), group, f"{where} field 'g'")
        i = _int_field(entry, "i", where)
        if not 1 <= i <= n:
            raise ValueError(f"{where} field 'i' must be in 1..{n}, got {i}")
        val = algebra_element_from_json(_field(entry, "value", where), group, fs, scalars, f"{where} value")
        if val:
            if (g, i) in lam_table:
                raise ValueError(f"duplicate lambda entry for {(g, i)}")
            lam_table[(g, i)] = val
    kap_table: dict[tuple[int, int], AlgebraElement] = {}
    for k, entry in enumerate(_list_field(data, "kappa", top, optional=True)):
        where = f"kappa entry {k}"
        i, j = _int_field(entry, "i", where), _int_field(entry, "j", where)
        if not 1 <= i < j <= n:
            raise ValueError(f"{where} needs 1 <= i < j <= {n}, got {(i, j)}")
        val = algebra_element_from_json(_field(entry, "value", where), group, fs, scalars, f"{where} value")
        if val:
            if (i, j) in kap_table:
                raise ValueError(f"duplicate kappa entry for {(i, j)}")
            kap_table[(i, j)] = val
    return LambdaParam(group, fs, lam_table), KappaParam(fs, n, kap_table)
