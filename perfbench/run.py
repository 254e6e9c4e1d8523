#!/usr/bin/env python3
"""The dhecke benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload verdict-s5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

A run builds its inputs from --seed in fresh set-up processes (five times;
setup_s is their median).  It then runs rounds of `dhecke` commands, each in
a fresh process as a user would, and checks every output against its known
answer.

- With --trace 0 it runs two rounds, and more while the next one is expected
  to end within --seconds, and reports the end-to-end metrics.
- With --trace 1 it runs the first round twice, plain and then with every
  dhecke module wrapped by tracer.py, and reports the per-layer metrics.  The
  work is fixed, so two traced runs give the same counts.  The spans of the
  traced processes are left in perfbench/_work/spans-WORKLOAD-SEED.json.

Every metric is printed as "name: value unit", and the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is 1 if
any operation failed, and 2 if the checkout has no dhecke sources.

--self-check runs every workload at toy size, plain and traced twice, and
checks that each metric in BENCHMARK.json is reported with its unit, that
nothing fails, and that the traced counts repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
from plans import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 2  # a median over two rounds, each on its own inputs, even when one round outlasts --seconds
RUN_LIMIT_S = 170.0  # a run must end within 180 s
LAST_ROUND_START_S = 120.0

LAYERS = ("cli", "scalars", "groups", "group_algebra", "linalg", "parameters", "pbw", "rewrite", "classify", "convert")
END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
# Per-command figures; each applies to one workload only.
COMMAND_UNITS = {
    "verdict_conditions_s": "s",
    "verdict_confluence_s": "s",
    "crossval_samples_per_s": "1/s",
    "reduce_ladder_s": "s",
    "certificate_s": "s",
}


def _per_layer_units() -> dict[str, str]:
    units = {
        "groups.products": "count",
        "groups.setup_s": "s",
        "group_algebra.calls": "count",
        "scalars.calls": "count",
        "linalg.calls": "count",
        "parameters.lookups": "count",
        "parameters.load_s": "s",
        "parameters.random_s": "s",
    }
    units.update({f"pbw.cond{k}_s": "s" for k in range(1, 6)})
    units.update(
        {
            "rewrite.overlaps": "count",
            "rewrite.confluence_s": "s",
            "rewrite.nf_calls": "count",
            "rewrite.nf_s": "s",
            "rewrite.nf_terms": "count",
            "classify.build_calls": "count",
            "classify.build_s": "s",
            "convert.gamma_s": "s",
            "convert.convert_s": "s",
            "convert.verify_s": "s",
        }
    )
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.overhead_s"] = "s"
    # Untraced command times of the traced round; 0 on workloads without that command.
    units.update(COMMAND_UNITS)
    return units


PER_LAYER = _per_layer_units()


# -- running commands ------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DHA_STEP_BUDGET", None)  # always the default step budget
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class Runner:
    """Runs commands in one work directory, counting attempts and failures."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def command(self, cmd: dict, trace_file: Path | None = None) -> float:
        """Run one planned dhecke command; return its wall time."""
        argv = [sys.executable, str(WORKER), "cli"]
        if trace_file is not None:
            argv += ["--trace", str(trace_file)]
        argv += ["--", *cmd["argv"]]
        out = cmd["expect"].get("out")
        if out:
            (self.workdir / out).unlink(missing_ok=True)
        self.attempted += 1
        timeout = max(1.0, self.deadline - time.perf_counter())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.workdir, env=self.env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.fail(f"{' '.join(cmd['argv'])}: timed out after {timeout:.0f} s")
            return time.perf_counter() - t0
        wall = time.perf_counter() - t0
        error = check_output(cmd, proc, self.workdir)
        if error:
            self.fail(f"{' '.join(cmd['argv'])}: {error}")
        return wall

    def round(self, cmds: list[dict], trace_dir: Path | None = None) -> list[float]:
        walls = []
        for i, cmd in enumerate(cmds):
            trace_file = trace_dir / f"trace{i:03d}.json" if trace_dir is not None else None
            walls.append(self.command(cmd, trace_file))
        return walls


def check_output(cmd: dict, proc: subprocess.CompletedProcess, workdir: Path) -> str | None:
    """Compare one command's result with its known answer; None if correct."""
    exp = cmd["expect"]
    if proc.returncode != exp["exit"]:
        last = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        return f"exit code {proc.returncode}, expected {exp['exit']}: {last[0]}"
    if "stdout" in exp and proc.stdout != (EXPECTED / exp["stdout"]).read_bytes():
        return f"normal form differs from expected/{exp['stdout']}"
    if "out" not in exp:
        return None
    try:
        data = json.loads((workdir / exp["out"]).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"unreadable output {exp['out']}: {exc}"
    kind = cmd["kind"]
    if kind.startswith("check_"):
        method = kind[len("check_"):]
        if data.get("pbw") is not exp["pbw"] or data.get(method, {}).get("pbw") is not exp["pbw"]:
            return f"verdict {data.get('pbw')}, known answer {exp['pbw']}"
    elif kind == "crossval":
        matrix = data.get("agreement_matrix", {})
        if data.get("all_agree") is not True or data.get("mismatches"):
            return f"engines disagree: {data.get('mismatches')}"
        if data.get("samples") != exp["samples"] or data.get("profiles") != exp["profiles"]:
            return f"sample counts {data.get('profiles')}, expected {exp['profiles']}"
        if matrix.get("true/true", 0) + matrix.get("false/false", 0) != exp["samples"]:
            return f"agreement matrix {matrix} does not cover {exp['samples']} samples"
        if matrix["true/true"] < exp["min_true"] or matrix["false/false"] < exp["min_false"]:
            return f"agreement matrix {matrix} contradicts the known mu-family/perturbed-mu answers"
    elif kind == "convert":
        if data.get("verified") is not True or not all(data.get("checks", {}).values()) or data.get("degree") != 3:
            return f"certificate not verified: {data.get('checks')}"
    return None


# -- set-up ------------------------------------------------------------------------


def _tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def setup(workload: str, seed: int, toy: bool, rundir: Path, repeats: int, runner: Runner) -> tuple[list[float], dict, Path]:
    """Make the inputs `repeats` times in fresh processes; return times, plan, work dir."""
    times = []
    trees = []
    for r in range(repeats):
        workdir = rundir / f"setup{r}"
        workdir.mkdir(parents=True)
        argv = [sys.executable, str(WORKER), "setup", workload, str(seed), str(workdir)]
        if toy:
            argv.append("--toy")
        runner.attempted += 1
        proc = subprocess.run(argv, env=runner.env, capture_output=True, timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed: {proc.stderr.decode('utf-8', 'replace').strip()}")
        times.append(json.loads(proc.stdout.decode("utf-8").splitlines()[-1])["setup_s"])
        trees.append(_tree(workdir))
        if trees[r] != trees[0]:
            runner.fail("set-up is not deterministic: inputs differ between repeats")
    workdir = rundir / "setup0"
    plan = json.loads((workdir / "plan.json").read_text(encoding="utf-8"))
    return times, plan, workdir


# -- metrics -------------------------------------------------------------------------


def command_metrics(done: list[tuple[list[dict], list[float]]]) -> dict[str, tuple[float, int]]:
    """Per-command figures of the rounds run, as (median, sample count) by name."""
    kinds: dict[str, list[list[float]]] = {}
    samples = 0
    for cmds, r_walls in done:
        per_kind: dict[str, list[float]] = {}
        for cmd, wall in zip(cmds, r_walls):
            per_kind.setdefault(cmd["kind"], []).append(wall)
            if cmd["kind"] == "crossval":
                samples = cmd["expect"]["samples"] * len(cmds)
        for kind, values in per_kind.items():
            kinds.setdefault(kind, []).append(values)

    def median(values) -> tuple[float, int]:
        values = list(values)
        return statistics.median(values), len(values)

    out = {}
    if "check_conditions" in kinds:
        out["verdict_conditions_s"] = median(v for r in kinds["check_conditions"] for v in r)
        out["verdict_confluence_s"] = median(v for r in kinds["check_confluence"] for v in r)
    if "crossval" in kinds:
        out["crossval_samples_per_s"] = median(samples / sum(r) for r in kinds["crossval"])
    if "normal_form" in kinds:
        out["reduce_ladder_s"] = median(sum(r) for r in kinds["normal_form"])
        out["certificate_s"] = median(v for r in kinds["convert"] for v in r)
    return out


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    calls: dict[str, list] = {}
    self_s: dict[str, float] = {}
    sizes: dict[str, int] = {}
    for tr in traces:
        for key, (count, total) in tr["calls"].items():
            cell = calls.setdefault(key, [0, 0.0])
            cell[0] += count
            cell[1] += total
        for layer, s in tr["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + s
        for name, n in tr["sizes"].items():
            sizes[name] = sizes.get(name, 0) + n

    def count(*keys: str) -> int:
        return sum(calls.get(k, [0, 0.0])[0] for k in keys)

    def secs(*keys: str) -> float:
        return sum(calls.get(k, [0, 0.0])[1] for k in keys)

    def layer_count(layer: str) -> int:
        return sum(c for k, (c, _) in calls.items() if k.startswith(layer + "."))

    nf = "rewrite.RewriteSystem.normal_form"
    m = {
        "groups.products": count(
            "groups.Perm.__mul__", "groups.MatrixElement.__mul__", "groups.GroupTable.product", "groups.product_table"
        ),
        "groups.setup_s": secs("groups.symmetric_group", "groups.enumerate_group", "groups.product_table"),
        "group_algebra.calls": layer_count("group_algebra"),
        "scalars.calls": layer_count("scalars"),
        "linalg.calls": layer_count("linalg"),
        "parameters.lookups": count(
            "parameters.LambdaParam.at", "parameters.KappaParam.at",
            "parameters.LambdaParam.coefficient", "parameters.KappaParam.coefficient",
        ),
        "parameters.load_s": secs("parameters.params_from_json"),
        "parameters.random_s": secs("parameters.random_params"),
        "rewrite.overlaps": sizes.get("rewrite.overlaps", 0),
        "rewrite.confluence_s": secs("rewrite.RewriteSystem.check_confluence"),
        "rewrite.nf_calls": count(nf),
        "rewrite.nf_s": secs(nf),
        "rewrite.nf_terms": sizes.get("rewrite.nf_terms", 0),
        "classify.build_calls": count("classify.build_H_mu"),
        "classify.build_s": secs("classify.build_H_mu"),
        "convert.gamma_s": secs("convert.gamma"),
        "convert.convert_s": secs("convert.convert"),
        "convert.verify_s": secs("convert.verify_isomorphism"),
    }
    m.update({f"pbw.cond{k}_s": secs(f"pbw.cond{k}") for k in range(1, 6)})
    m.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS})
    return m


# -- one run -------------------------------------------------------------------------


def _traced_run(runner: Runner, first_round: list[dict], rundir: Path, spans_file: Path) -> tuple[dict, dict]:
    """The first round plain, then traced: per-layer metrics and overhead.

    The spans of every traced process are kept in spans_file.
    """
    plain = runner.round(first_round)
    trace_dir = rundir / "trace"
    trace_dir.mkdir()
    t0 = time.perf_counter()
    runner.round(first_round, trace_dir)
    traced = time.perf_counter() - t0
    traced_cmds = [
        (cmd, json.loads(path.read_text(encoding="utf-8")))
        for i, cmd in enumerate(first_round)
        if (path := trace_dir / f"trace{i:03d}.json").is_file()  # a failed command may leave none
    ]
    traces = [tr for _, tr in traced_cmds]
    spans_file.write_text(
        json.dumps([{"argv": cmd["argv"], "spans": tr["spans"]} for cmd, tr in traced_cmds]) + "\n",
        encoding="utf-8",
    )
    metrics = layer_metrics(traces)
    metrics["trace.overhead_s"] = traced - sum(plain)
    commands = command_metrics([(first_round, plain)])
    for name in COMMAND_UNITS:
        metrics[name] = commands.get(name, (0.0, 0))[0]
    details = {
        "traced processes": len(traces),
        "untraced round s": f"{sum(plain):.4f}",
        "spans": f"{sum(len(tr['spans']) for tr in traces)} in {spans_file.relative_to(ROOT)}",
    }
    missing = sorted({k for tr in traces for k in tr["missing"]})
    if missing:
        details["names not found in dhecke"] = ", ".join(missing)
    return metrics, details


def _plain_run(runner: Runner, rounds: list[list[dict]], seconds: float, started: float) -> tuple[dict, dict]:
    """Whole rounds for about `seconds`: round_s and the per-command figures."""
    done: list[tuple[list[dict], list[float]]] = []
    t0 = time.perf_counter()
    while True:
        cmds = rounds[len(done) % len(rounds)]
        r_walls = runner.round(cmds)
        done.append((cmds, r_walls))
        elapsed = time.perf_counter() - t0
        if len(done) >= MIN_ROUNDS and elapsed + sum(r_walls) > seconds:
            break
        if time.perf_counter() - started > LAST_ROUND_START_S:
            break
    metrics = {"round_s": statistics.median(sum(r) for _, r in done)}
    details = {
        "rounds": len(done),
        "commands per round": len(rounds[0]),
        "round walls s": " ".join(f"{sum(r):.3f}" for _, r in done),
    }
    for name, (value, n) in command_metrics(done).items():
        details[name] = f"{value:.6g} {COMMAND_UNITS[name]} (median of {n})"
    return metrics, details


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """One benchmark run; returns the result object and prints every figure."""
    started = time.perf_counter()
    rundir = WORK / f"{workload}-{seed}-{'trace' if trace else 'plain'}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    runner = Runner(rundir, started + RUN_LIMIT_S)
    try:
        setup_times, plan, runner.workdir = setup(
            workload, seed, toy, rundir, 1 if trace else SETUP_REPEATS, runner
        )
        if trace:
            units = PER_LAYER
            spans_file = WORK / f"spans-{workload}-{seed}{'-toy' if toy else ''}.json"
            metrics, details = _traced_run(runner, plan["rounds"][0], rundir, spans_file)
        else:
            units = END_TO_END
            metrics, details = _plain_run(runner, plan["rounds"], seconds, started)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            details["set-up repeats"] = len(setup_times)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"# workload {workload}, seed {seed}, trace {int(trace)}{', toy size' if toy else ''}")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}" if unit != "count" else f"{name}: {metrics[name]} {unit}")
    print(f"failed_ratio: {ratio:.6g} ({runner.failed} of {runner.attempted} operations)")
    for key, value in details.items():
        print(f"  {key}: {value}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


# -- self-check ----------------------------------------------------------------------


COUNT_METRICS = tuple(name for name, unit in PER_LAYER.items() if unit == "count")


def self_check() -> int:
    """Every workload at toy size: metrics present and named, counts repeat."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from plans.WORKLOADS")
    for workload in WORKLOADS:
        plain = measure(workload, 1, 1, trace=False, toy=True)
        traced = [measure(workload, 1, 1, trace=True, toy=True) for _ in range(2)]
        for result, want in [(plain, want_e2e), (traced[0], want_layer), (traced[1], want_layer)]:
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload}: metrics {sorted(got.items())} differ from BENCHMARK.json")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload}: {result['failed']} of {result['attempted']} operations failed")
        for name in COUNT_METRICS:
            a, b = (t["metrics"][name]["value"] for t in traced)
            if a != b:
                problems.append(f"{workload}: count {name} does not repeat ({a} vs {b})")
        for name in want_e2e:
            if not plain["metrics"].get(name, {}).get("value", 0) > 0:
                problems.append(f"{workload}: {name} is not positive")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="toy-size run of every workload")
    args = parser.parse_args()
    if not (ROOT / "src" / "dhecke" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"no dhecke sources and fixtures under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required unless --self-check is given")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
