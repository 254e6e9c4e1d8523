#!/usr/bin/env python3
"""Regenerate perfbench/expected/: the known normal forms of the ladder words.

    python3 perfbench/make_expected.py

Each file holds what `dhecke normal-form` prints for one (fixture, word) of
plans.LADDER and plans.TOY_LADDER.  The normal form is computed here with
the rightmost reduction strategy and must equal the leftmost one, which is
what the CLI uses; by the diamond lemma both are the unique normal form of
a confluent system.  Run this only when a change to dhecke is meant to
change these outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from dhecke import RewriteSystem, format_normal_form, params_from_json, parse_word_sum  # noqa: E402
from plans import LADDER, TOY_LADDER, expected_name  # noqa: E402


def main() -> int:
    out_dir = HERE / "expected"
    out_dir.mkdir(exist_ok=True)
    for fixture, word in LADDER + TOY_LADDER:
        data = json.loads((ROOT / "fixtures" / f"{fixture}.json").read_text(encoding="utf-8"))
        lam, kappa = params_from_json(data)
        rs = RewriteSystem(lam, kappa)
        x = parse_word_sum(word, lam.field, lam.n)
        rightmost = rs.normal_form(x, strategy="rightmost")
        if rightmost != rs.normal_form(x, strategy="leftmost"):
            print(f"{fixture} {word}: leftmost and rightmost normal forms differ", file=sys.stderr)
            return 1
        path = out_dir / expected_name(fixture, word)
        path.write_text(format_normal_form(rightmost) + "\n", encoding="utf-8")
        print(f"{path.name}: {len(rightmost)} terms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
