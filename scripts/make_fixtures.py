#!/usr/bin/env python3
"""Regenerate the JSON fixture corpus under fixtures/.

Fixtures:
  example_1_1_n3.json / example_1_1_n4.json -- golden-rule lambda with the
      unit 3-cycle kappa blocks (mu = (a=0, b=1, c=1)), p = 5.
  example_3_4.json -- the two-scalar deformation with m=1, m'=2, n=4, p=7,
      built from its defining relations (not via the classification).
  example_4_3.json -- the characteristic-2 matrix-group deformation of
      Z/2Z acting on F_2^2.
  golden_rule.json -- lambda(g, v_i) = (g(i)-i) g, kappa = 0, n=3, p=7.
  s8_n2_family.json -- the n=2 two-parameter family at (a,b) = (1,1), p=5.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dhecke import (  # noqa: E402
    AlgebraElement,
    FieldSpec,
    GroupTable,
    KappaParam,
    LambdaParam,
    MatrixElement,
    MuParams,
    Perm,
    build_H_mu,
    golden_rule,
    low_dim_family,
    params_to_json,
    symmetric_group,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def render(payload) -> str:
    """The bytes of a fixture file."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def unit_block_mu(fs: FieldSpec, n: int) -> MuParams:
    """mu = (a=0, b_k=1, c=1): golden-rule lambda with unit 3-cycle blocks."""
    return MuParams(fs, n, {}, (fs.one,) * (n - 1), fs.one)


def two_scalar_n4(fs: FieldSpec, m: int = 1, mp: int = 2):
    """The two-scalar n=4 deformation with scalars m and m', built from its defining relations."""
    n = 4
    group = symmetric_group(n)
    m, mp = fs(m), fs(mp)
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
            if val:
                lam_table[(g, i)] = val
    lam = LambdaParam(group, fs, lam_table)
    c123 = Perm.from_cycles(n, (1, 2, 3))
    c132 = Perm.from_cycles(n, (1, 3, 2))
    msq = m * m
    block = AlgebraElement(fs, {c132: msq, c123: -msq})
    kap = KappaParam(fs, n, {(1, 2): block, (2, 3): block, (1, 3): -block})
    return lam, kap


def char2_matrix_pair():
    """Z/2Z generated by [[1,1],[0,1]] over F_2: gw = vg + wg + 1, vw - wv = g."""
    fs = FieldSpec(2)
    g = MatrixElement(fs, [[fs.one, fs.one], [fs.zero, fs.one]])
    group = GroupTable([g])
    lam = LambdaParam(group, fs, {(g, 2): AlgebraElement.term(fs, group.identity)})
    kap = KappaParam(fs, 2, {(1, 2): AlgebraElement.term(fs, g)})
    return lam, kap


def fixtures() -> dict[str, dict]:
    """Each fixture file name with the parameter-file JSON it holds."""
    fs5, fs7 = FieldSpec(5), FieldSpec(7)
    return {
        "example_1_1_n3.json": params_to_json(*build_H_mu(unit_block_mu(fs5, 3))),
        "example_1_1_n4.json": params_to_json(*build_H_mu(unit_block_mu(fs5, 4))),
        "example_3_4.json": params_to_json(*two_scalar_n4(fs7)),
        "example_4_3.json": params_to_json(*char2_matrix_pair()),
        "golden_rule.json": params_to_json(*golden_rule(3, fs7)),
        "s8_n2_family.json": params_to_json(*low_dim_family(2, (fs5.one, fs5.one), fs5)),
    }


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name, payload in fixtures().items():
        path = FIXTURES / name
        path.write_text(render(payload), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
