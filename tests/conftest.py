from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from dhecke import (
    AlgebraElement,
    FieldSpec,
    KappaParam,
    LambdaParam,
    MatrixElement,
    MuParams,
    Perm,
    build_H_mu,
    enumerate_group,
    random_params,
    symmetric_group,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def F5():
    return FieldSpec(5)


@pytest.fixture(scope="session")
def F7():
    return FieldSpec(7)


@pytest.fixture(scope="session")
def F3():
    return FieldSpec(3)


@pytest.fixture(scope="session")
def Q():
    return FieldSpec(0)


@pytest.fixture(scope="session")
def S3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def S4():
    return symmetric_group(4)


def unit_block_mu(fs: FieldSpec, n: int) -> MuParams:
    """mu = (a=0, b_k=1, c=1): golden-rule lambda with unit 3-cycle blocks."""
    return MuParams(fs, n, {}, (fs.one,) * (n - 1), fs.one)


@pytest.fixture()
def unit_block_n3(F5):
    return build_H_mu(unit_block_mu(F5, 3))


@pytest.fixture()
def unit_block_n4(F5):
    return build_H_mu(unit_block_mu(F5, 4))


def build_two_scalar_n4(fs: FieldSpec, m_val: int = 1, mp_val: int = 2):
    """The two-scalar n=4 deformation, built from its defining relations."""
    n = 4
    group = symmetric_group(n)
    m, mp = fs(m_val), fs(mp_val)
    a = {(i, j): fs.zero for i in range(1, 5) for j in range(1, 5) if i != j}
    a[(1, 2)], a[(2, 1)] = m, -m
    a[(1, 3)], a[(3, 1)] = m, -m
    a[(2, 3)], a[(3, 2)] = mp, -mp
    lam_table = {}
    for g in group:
        for i in range(1, n + 1):
            coeffs = {}
            for j in range(1, n + 1):
                if j == i:
                    continue
                c = a[(i, j)] - a[(g(i), g(j))]
                if c:
                    t = g * Perm.transposition(n, i, j)
                    coeffs[t] = coeffs.get(t, fs.zero) + c
            val = AlgebraElement(fs, coeffs)
            if not val.is_zero():
                lam_table[(g, i)] = val
    lam = LambdaParam(group, fs, lam_table)
    c123 = Perm.from_cycles(n, (1, 2, 3))
    c132 = Perm.from_cycles(n, (1, 3, 2))
    msq = m * m
    block = AlgebraElement(fs, {c132: msq, c123: -msq})
    kap = KappaParam(fs, n, {(1, 2): block, (2, 3): block, (1, 3): -block})
    return lam, kap


@pytest.fixture()
def two_scalar_n4(F7):
    return build_two_scalar_n4(F7)


def build_char2_matrix_pair():
    """Z/2Z generated by [[1,1],[0,1]] over F_2: gw = vg + wg + 1, vw - wv = g."""
    fs = FieldSpec(2)
    g = MatrixElement(fs, [[fs.one, fs.one], [fs.zero, fs.one]])
    group = enumerate_group([g])
    lam = LambdaParam(group, fs, {(g, 2): AlgebraElement.term(fs, group.identity)})
    kap = KappaParam(fs, 2, {(1, 2): AlgebraElement.term(fs, g)})
    return lam, kap


@pytest.fixture()
def char2_matrix_pair():
    return build_char2_matrix_pair()


SWEEP_PROFILES = ("general", "mu-family", "perturbed-mu")


def coboundary_pair(n: int, fs: FieldSpec, seed: int, kappa_profile: str):
    """A mu-family lambda plus the coboundary g phi(v) - phi(^g v) g, with a seeded kappa.

    phi: V -> FG is linear and seeded, with one term per basis vector, all
    on the identity for about half the pairs.  A coboundary keeps the
    cocycle identity (1), so these pairs get past it to the generator
    sweeps of (3), (2) and the group-var-var overlaps, and many fail
    there; a phi on the identity keeps (3) as well, so its pairs reach
    the sweep of (2).  kappa is that of the seeded `kappa_profile` pair.
    """
    lam = random_params(n, fs, seed=seed, profile="mu-family")[0]
    kap = random_params(n, fs, seed=seed, profile=kappa_profile)[1]
    group = lam.group
    rng = random.Random(f"coboundary|n={n}|p={fs.characteristic}|{kappa_profile}|seed={seed}")
    on_identity = rng.random() < 0.5
    phi = {}
    for i in range(1, n + 1):
        g = group.identity if on_identity else group.elements[rng.randrange(len(group))]
        phi[i] = AlgebraElement.term(fs, g, fs(rng.choice((1, 2, -1))))
    table = {}
    for g in group:
        for i in range(1, n + 1):
            moved = AlgebraElement(fs)
            for r, c in g.column(i):
                moved = moved + phi[r].scale(c)
            table[(g, i)] = lam.at(g, i) + phi[i].mul_left(g) - moved.mul_right(g)
    return LambdaParam(group, fs, table), kap


def sweep_grid():
    """Seeded pairs for comparing the generator and exhaustive sweeps.

    Every profile at n = 3 (four seeds) and n = 4 (one seed), then a
    coboundary pair (`coboundary_pair`) for every kappa profile at n = 3
    (three seeds) and n = 4 (one seed); p in {0, 3, 5, 7} throughout.
    """
    for n, seeds in ((3, range(4)), (4, range(1))):
        for p in (0, 3, 5, 7):
            fs = FieldSpec(p)
            for profile in SWEEP_PROFILES:
                for seed in seeds:
                    lam, kap = random_params(n, fs, seed=seed + 500, profile=profile)
                    yield (n, p, profile, seed), lam, kap
    for n, seeds in ((3, range(3)), (4, range(1))):
        for p in (0, 3, 5, 7):
            fs = FieldSpec(p)
            for profile in SWEEP_PROFILES:
                for seed in seeds:
                    lam, kap = coboundary_pair(n, fs, seed + 600, profile)
                    yield (n, p, f"coboundary/{profile}", seed), lam, kap


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def load_fixture(name: str):
    with open(FIXTURES / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def matrix_group_pairs():
    """Seeded pairs on matrix groups whose columns hold coefficients other than 1.

    lambda is the coboundary g phi(v) - phi(^g v) g of a seeded phi, which
    satisfies (1); odd seeds add one random term, which breaks it.  kappa
    has a random term on about half the pairs i < j.
    """
    generators = (
        (0, [[[0, -1], [1, 1]]]),  # a rotation of order 6
        (5, [[[2, 0], [0, 3]], [[0, 1], [1, 0]]]),  # order 8
        (7, [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]),  # order 24
    )
    for p, gens in generators:
        fs = FieldSpec(p)
        group = enumerate_group([MatrixElement(fs, [[fs(x) for x in row] for row in g]) for g in gens])
        n = group.n
        for seed in range(4):
            rng = random.Random(f"matrix pair|p={p}|seed={seed}")

            def term():
                return AlgebraElement.term(fs, rng.choice(group.elements), fs(rng.choice((1, 2, -1))))

            phi = {i: term() for i in range(1, n + 1)}
            table = {}
            for g in group:
                for i in range(1, n + 1):
                    moved = AlgebraElement(fs)
                    for r, c in g.column(i):
                        moved = moved + phi[r].scale(c)
                    table[(g, i)] = phi[i].mul_left(g) - moved.mul_right(g)
            if seed % 2:
                key = (rng.choice(group.elements), rng.randint(1, n))
                table[key] = table.get(key, AlgebraElement(fs)) + term()
            kap = {(i, j): term() for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5}
            yield (p, len(group), seed), LambdaParam(group, fs, table), KappaParam(fs, n, kap)
