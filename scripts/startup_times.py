#!/usr/bin/env python3
"""Start-up times of `dhecke` commands, each run as a fresh process.

Runs every row of the README "Start-up" table --repeats times, each time in
a new interpreter with PYTHONDONTWRITEBYTECODE=1, so that every dhecke
module it loads is compiled from source.  Each repeat runs the rows in a new
shuffled order.  Prints a markdown table: per row, the dhecke modules it
loads beyond those every command loads, and the median wall time in ms.

With --against DIR (another checkout, e.g. one made with `git archive`), each
run of a row is paired with a run of the same row on DIR's src/, in random
order, and the table adds DIR's medians and the number of pairs this
checkout won.

Usage:
    python scripts/startup_times.py [--repeats 31] [--against DIR]
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Runs dhecke.cli.main on its arguments, or only imports dhecke without any.
RUN = """
import sys
if sys.argv[1:]:
    import dhecke.cli
    sys.exit(dhecke.cli.main(sys.argv[1:]))
import dhecke
"""
# The same, then prints the dhecke modules that were loaded.
LOADED = """
import sys
if sys.argv[1:]:
    import dhecke.cli
    assert dhecke.cli.main(sys.argv[1:]) == 0
else:
    import dhecke
print(" ".join(sorted(m.split(".")[1] for m in sys.modules if m.startswith("dhecke."))))
"""


def rows(mu: str) -> list[tuple[str, list[str]]]:
    """Each row's name and arguments; `build` reads `mu`, which `extract` writes from golden_rule."""
    n4 = str(FIXTURES / "example_1_1_n4.json")
    golden = str(FIXTURES / "golden_rule.json")
    return [
        ("`import dhecke` alone", []),
        ("`check --method conditions`", ["check", "--input", n4, "--method", "conditions"]),
        ("`check --method confluence`", ["check", "--input", n4, "--method", "confluence"]),
        ("`check` (both)", ["check", "--input", n4]),
        ("`normal-form`", ["normal-form", "--input", golden, "--word", "v3 v2 v1"]),
        ("`convert`", ["convert", "--input", golden]),
        ("`build`", ["build", "--mu", mu]),
        ("`extract`", ["extract", "--input", golden]),
        ("`crossval`", ["crossval", "--n", "3", "--char", "5", "--samples", "3"]),
    ]


def run(src: Path, code: str, argv: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv) or 'import dhecke'} failed on {src}: {proc.stderr.strip()}")
    return proc


def wall_ms(src: Path, argv: list[str]) -> float:
    t0 = time.perf_counter()
    run(src, RUN, argv)
    return (time.perf_counter() - t0) * 1000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=31, help="fresh processes per row (default 31)")
    parser.add_argument("--against", type=Path, help="another checkout to pair every run with")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    srcs = [ROOT / "src"]
    if args.against is not None:
        srcs.append(args.against.resolve() / "src")
        if not (srcs[1] / "dhecke").is_dir():
            parser.error(f"--against {str(args.against)!r} has no src/dhecke")

    with tempfile.TemporaryDirectory() as tmp:
        mu = str(Path(tmp) / "golden_rule.mu.json")
        run(srcs[0], RUN, ["extract", "--input", str(FIXTURES / "golden_rule.json"), "--out", mu])
        table = rows(mu)
        loaded = [set(run(srcs[0], LOADED, argv).stdout.splitlines()[-1].split()) for _, argv in table]
        times = {(i, src): [] for i in range(len(table)) for src in srcs}
        rng = random.Random(0)
        for _ in range(args.repeats):
            for i in rng.sample(range(len(table)), len(table)):
                for src in rng.sample(srcs, len(srcs)):
                    times[i, src].append(wall_ms(src, table[i][1]))

    common = set.intersection(*loaded[1:])
    print(f"Every command loads {', '.join(f'`{m}`' for m in sorted(common))}.")
    print(f"Median of {args.repeats} fresh processes, Python {sys.version.split()[0]}.\n")
    head = ["command", "also loads", "ms"]
    if args.against is not None:
        head += [f"ms at {args.against}", "faster in"]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for i, (name, _) in enumerate(table):
        extra = ", ".join(f"`{m}`" for m in sorted(loaded[i] - common)) or "—"
        cells = [name, extra, f"{statistics.median(times[i, srcs[0]]):.1f}"]
        if args.against is not None:
            ours, theirs = times[i, srcs[0]], times[i, srcs[1]]
            cells += [f"{statistics.median(theirs):.1f}", f"{sum(a < b for a, b in zip(ours, theirs))}/{args.repeats}"]
        print("| " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
