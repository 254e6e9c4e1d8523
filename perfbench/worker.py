"""One benchmark subprocess: input set-up, or one `dhecke` command.

    python3 perfbench/worker.py setup WORKLOAD SEED WORKDIR [--toy]
        Imports dhecke, writes the workload's inputs and plan.json to WORKDIR,
        and prints {"setup_s": ...}: the time from before the import to after
        the last file is written.
    python3 perfbench/worker.py cli [--trace FILE] -- ARGS...
        Runs dhecke.cli.main(ARGS) in this fresh process, as the `dhecke`
        command does, and exits with its code.  With --trace the dhecke
        modules are wrapped first and the trace is written to FILE.

Both put the checkout's src/ on sys.path, so nothing needs installing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def setup(args) -> int:
    t0 = time.perf_counter()
    import dhecke  # noqa: F401  (the import is part of the measured set-up)
    from plans import make_plan

    workdir = Path(args.workdir)
    plan = make_plan(args.workload, args.seed, args.toy, workdir, ROOT / "fixtures")
    (workdir / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def cli(args) -> int:
    import dhecke.cli

    if args.trace is None:
        return dhecke.cli.main(args.argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return dhecke.cli.main(args.argv)
    finally:
        tracer.dump(Path(args.trace))


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("workdir")
    p.add_argument("--toy", action="store_true")
    p.set_defaults(func=setup)
    p = sub.add_parser("cli")
    p.add_argument("--trace")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cli)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
