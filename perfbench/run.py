"""End-to-end benchmark of the okr CLI.

    python3 perfbench/run.py --workload remark1_baseline --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; okr is imported from ./src. The
benchmark generates the workload's inputs from --seed, then runs the okr
commands (fit, fit --iokr-only, predict with both bundles, evaluate, tune
--share-krr) one after another, each in its own child process with
--threads 2: a closed loop with one client, never two commands at once.

--trace 0 runs every command once, then repeats commands for --seconds
(see timed_run) and reports the end-to-end metrics: median wall time per
command, set-up time, bundle size, peak RSS and the result values.
--trace 1 runs one untraced pass, one traced pass (timing wrappers around
the okr layers, see tracer.py) and one traced pass of fit and predict with
a single BLAS thread, and reports the per-layer metrics of layers.py.

Every output is checked (checks.py); a command that exits non-zero or fails
a check is a failed operation. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A record of the
run, with the machine it ran on, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"

THREADS = 2
# Set-up runs SETUP_REPS times before the commands, then once more after each
# repeated command while the set-ups together have taken less than
# SETUP_BUDGET_S: spreading the samples over the run keeps a few seconds of a
# slow machine from deciding the median.
SETUP_REPS, SETUP_BUDGET_S = 3, 3.0
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# command name -> okr arguments, run from the pass directory
STEPS = {
    "fit": ["fit", "--config", "fit.cfg", "--out", "fit"],
    "fit_iokr": ["fit", "--iokr-only", "--config", "fit.cfg", "--out", "fit_iokr"],
    "predict": ["predict", "--config", "predict.cfg", "--out", "predict"],
    "predict_iokr": ["predict", "--config", "predict_iokr.cfg", "--out", "predict_iokr"],
    "evaluate": ["evaluate", "--config", "evaluate.cfg", "--out", "evaluate"],
    "tune": ["tune", "--share-krr", "--config", "tune.cfg", "--out", "tune"],
}

# the output of each command that must come out byte-identical whenever the
# command runs again on the same inputs with the same thread count
DETERMINISTIC = {"predict": "predict/rankings.tsv",
                 "predict_iokr": "predict_iokr/rankings.tsv",
                 "evaluate": "evaluate/metrics.tsv", "tune": "tune/tune_table.tsv"}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    bound: float
    better: str = "lower"


# Bounds: the share of the parent's median a metric may worsen by. Command
# times on a shared 2-vCPU machine move by 10-20% between runs of the same
# code (short commands most), so every time gets the largest bound allowed;
# the bundle size is exact, peak RSS and the result values barely move.
END_TO_END = [
    EndToEnd("setup_s", "s", 0.25),
    EndToEnd("pipeline_s", "s", 0.25),
    EndToEnd("fit_s", "s", 0.25),
    EndToEnd("fit_iokr_s", "s", 0.25),
    EndToEnd("predict_s", "s", 0.25),
    EndToEnd("predict_iokr_s", "s", 0.25),
    EndToEnd("evaluate_s", "s", 0.25),
    EndToEnd("tune_s", "s", 0.25),
    EndToEnd("bundle_mb", "MB", 0.05),
    EndToEnd("peak_rss_mb", "MB", 0.1),
    EndToEnd("rkhs_loss", "loss", 0.2),
    EndToEnd("tune_best_score", "mse", 0.25),
]


@dataclass
class Invocation:
    command: str
    threads: int
    traced: bool
    wall_s: float = math.nan
    exit_code: int | None = None
    rss_mb: float = 0.0
    trace: object = None
    errors: list = field(default_factory=list)


class Runner:
    """Starts the okr children, one at a time, and keeps every invocation."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.invocations: list[Invocation] = []

    @staticmethod
    def _env(threads: int) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                          env.get("PYTHONPATH")]))
        # --threads alone does not size the BLAS pool: importing okr loads
        # numpy before the CLI reads it
        env.update({var: str(threads) for var in THREAD_VARS})
        return env

    def warm_up(self, threads: int) -> None:
        """Import okr once in a child, untimed, so that the first timed command
        neither compiles okr's bytecode nor reads numpy and scipy from disk."""
        subprocess.run([sys.executable, "-c", "import okr.cli"], env=self._env(threads),
                       check=True, timeout=max(1.0, self.deadline - time.monotonic()))

    def invoke(self, command: str, cwd: Path, threads: int, traced: bool) -> Invocation:
        inv = Invocation(command, threads, traced)
        self.invocations.append(inv)
        trace_path = cwd / f"{command}.trace.json"
        argv = ([sys.executable, str(HERE / "child.py"), str(trace_path)] if traced
                else [sys.executable, "-m", "okr.cli"])
        argv += STEPS[command] + ["--threads", str(threads)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            inv.errors.append("not run: the run's time budget is spent")
            return inv
        stderr_path = cwd / f"{command}.stderr"
        with open(cwd / f"{command}.stdout", "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self._env(threads),
                                    stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            inv.wall_s = time.perf_counter() - start
        proc.returncode = inv.exit_code = os.waitstatus_to_exitcode(status)
        inv.rss_mb = usage.ru_maxrss * 1024 / 1e6     # ru_maxrss is in KiB on Linux
        if inv.exit_code != 0:
            tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
            inv.errors.append(f"exit code {inv.exit_code}: {' | '.join(tail)}")
        elif traced:
            from layers import CommandTrace

            inv.trace = CommandTrace(json.loads(trace_path.read_text()), inv.wall_s)
        return inv


@dataclass
class Pass:
    invocations: dict          # command -> Invocation
    values: dict               # checked result values
    digests: dict              # command -> sha256 of its DETERMINISTIC output
    bundle_bytes: int = 0
    tune_trials: int = 0


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_pass(ctx, pass_dir: Path, threads: int, traced: bool, commands) -> Pass:
    import checks
    from workloads import write_configs

    if not (pass_dir / "fit.cfg").exists():
        write_configs(ctx.inputs, ctx.seed, pass_dir,
                      os.path.relpath(ctx.inputs_dir, pass_dir))
    invs = {cmd: ctx.runner.invoke(cmd, pass_dir, threads, traced) for cmd in commands}
    ok = {cmd for cmd, inv in invs.items() if inv.exit_code == 0}
    inp = ctx.inputs
    result = Pass(invs, {}, {})

    truth_rank = None
    for cmd in ("predict", "predict_iokr"):
        if cmd in ok:
            errors, rank = checks.rankings(pass_dir / cmd / "rankings.tsv", inp.truth,
                                           inp.n_candidates, inp.k)
            invs[cmd].errors += errors
            truth_rank = rank if cmd == "predict" else truth_rank
    if "evaluate" in ok:
        errors, table = checks.metrics_table(pass_dir / "evaluate" / "metrics.tsv",
                                             truth_rank)
        invs["evaluate"].errors += errors
        result.values.update({k: table[k] for k in
                              ("rkhs_loss", "top1_accuracy", "top10_accuracy")
                              if k in table})
        invs["evaluate"].errors += checks.against_reference(
            ctx.reference, ctx.wl.name, ctx.seed, result.values, len(inp.truth))
    if "tune" in ok:
        errors, best, result.tune_trials = checks.tune_outputs(
            pass_dir / "tune", inp.grid_points, inp.tune_reps)
        invs["tune"].errors += errors
        result.values["tune_best_score"] = best
        invs["tune"].errors += checks.against_reference(
            ctx.reference, ctx.wl.name, ctx.seed, {"tune_best_score": best}, 1)
    if "fit" in ok:
        result.bundle_bytes = _dir_bytes(pass_dir / "fit" / "model")
    for cmd in ok & DETERMINISTIC.keys():
        path = pass_dir / DETERMINISTIC[cmd]
        if path.is_file():
            result.digests[cmd] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


def check_repeatable(first: Pass, later: Pass) -> None:
    """The same commands on the same inputs must write the same bytes."""
    for cmd, digest in later.digests.items():
        if cmd in first.digests and first.digests[cmd] != digest:
            later.invocations[cmd].errors.append(
                f"{DETERMINISTIC[cmd]} differs from the first run's")


@dataclass
class Context:
    wl: object
    seed: int
    runner: Runner
    reference: dict
    inputs_dir: Path
    inputs: object = None


def setup_once(ctx, inputs_dir: Path, pass_dir: Path):
    """Generate the inputs and the first pass's configs; returns
    (inputs, seconds)."""
    from workloads import make_inputs, write_configs

    for stale in (inputs_dir, pass_dir):
        shutil.rmtree(stale, ignore_errors=True)
    start = time.perf_counter()
    inputs = make_inputs(ctx.wl, ctx.seed, inputs_dir)
    write_configs(inputs, ctx.seed, pass_dir, os.path.relpath(inputs_dir, pass_dir))
    return inputs, time.perf_counter() - start


def setup(ctx, work: Path, reps: int) -> list[float]:
    """Set up `reps` times; the last set of inputs is kept. Returns the time
    of each repetition."""
    times = []
    for _ in range(reps):
        ctx.inputs, seconds = setup_once(ctx, ctx.inputs_dir, work / "pass0")
        times.append(seconds)
    return times


def timed_run(ctx, work: Path, seconds: float) -> tuple[dict, dict]:
    """Every command once, then repeats while the next one still fits in
    `seconds`, always the command that has run for the least time so far.
    Every command's median then covers a similar stretch of the run: long
    commands (remark1's fit, retrieval's predict) may keep one or two
    samples, short ones, whose times spread most, get many."""
    ctx.runner.warm_up(THREADS)
    setup_times = setup(ctx, work, SETUP_REPS)
    probe = work / "setup_probe"
    pass_dir = work / "pass0"
    start = time.perf_counter()
    first = run_pass(ctx, pass_dir, THREADS, False, STEPS)
    walls = {cmd: [inv.wall_s] for cmd, inv in first.invocations.items()}
    while True:
        elapsed = time.perf_counter() - start
        fits = [cmd for cmd in STEPS
                if elapsed + statistics.median(walls[cmd]) <= seconds
                and time.monotonic() + 2 * max(walls[cmd]) < ctx.runner.deadline]
        if not fits:
            break
        cmd = min(fits, key=lambda c: sum(walls[c]))
        again = run_pass(ctx, pass_dir, THREADS, False, [cmd])
        check_repeatable(first, again)
        walls[cmd].append(again.invocations[cmd].wall_s)
        if sum(setup_times) < SETUP_BUDGET_S:
            setup_times.append(setup_once(ctx, probe / "inputs", probe / "pass0")[1])

    metrics = {f"{cmd}_s": statistics.median(walls[cmd]) for cmd in STEPS}
    metrics.update({
        "setup_s": statistics.median(setup_times),
        "pipeline_s": sum(metrics[f"{cmd}_s"] for cmd in ("fit", "predict", "evaluate")),
        "bundle_mb": first.bundle_bytes / 1e6,
        "peak_rss_mb": max(inv.rss_mb for inv in ctx.runner.invocations),
        "rkhs_loss": first.values.get("rkhs_loss", math.nan),
        "tune_best_score": first.values.get("tune_best_score", math.nan),
    })
    samples = {"setup_s": setup_times, **{f"{cmd}_s": walls[cmd] for cmd in STEPS}}
    return metrics, samples


def traced_run(ctx, work: Path) -> tuple[dict, dict]:
    import layers

    ctx.runner.warm_up(THREADS)
    setup(ctx, work, 1)
    plain = run_pass(ctx, work / "pass0", THREADS, False, STEPS)
    traced = run_pass(ctx, work / "traced", THREADS, True, STEPS)
    check_repeatable(plain, traced)
    single = run_pass(ctx, work / "traced_1thread", 1, True, layers.SINGLE_THREAD_COMMANDS)
    runs = (plain, traced, single)
    if any(inv.errors for p in runs for inv in p.invocations.values()):
        return {}, {}
    run = layers.TracedRun(
        traced={c: inv.trace for c, inv in traced.invocations.items()},
        traced_1t={c: inv.trace for c, inv in single.invocations.items()},
        untraced_wall={c: inv.wall_s for c, inv in plain.invocations.items()},
        peak_rss_mb={c: inv.rss_mb for c, inv in plain.invocations.items()},
        bundle_bytes=plain.bundle_bytes, tune_trials=plain.tune_trials,
        values=plain.values)
    missing = sorted({name for inv in traced.invocations.values()
                      for name in inv.trace.missing})
    return layers.compute(run), {"missing_wrappers": missing}


def check_spec(bench: dict) -> list:
    """BENCHMARK.json and the metric tables here must name the same metrics."""
    import layers

    problems = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", layers.PER_LAYER)):
        listed = {(m["name"], m["unit"], m["better"]) for m in bench.get(key, [])}
        coded = {(m.name, m.unit, m.better) for m in table}
        if listed != coded:
            problems.append(f"BENCHMARK.json {key} differs from the code: "
                            f"{sorted(listed ^ coded)[:4]}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "okr" / "cli.py").is_file():
        print(f"perfbench: no okr sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import layers
    import machine
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    problems = check_spec(json.loads((ROOT / "BENCHMARK.json").read_text()))
    if problems:
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    ctx = Context(wl=WORKLOADS[args.workload], seed=args.seed, runner=Runner(deadline),
                  reference=checks.load_reference(), inputs_dir=work / "inputs")
    try:
        if args.trace:
            values, samples = traced_run(ctx, work)
            units = {m.name: m.unit for m in layers.PER_LAYER}
        else:
            values, samples = timed_run(ctx, work, args.seconds)
            units = {m.name: m.unit for m in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    invocations = ctx.runner.invocations
    failed = sum(1 for inv in invocations if inv.errors)
    complete = len(values) == len(units) and all(math.isfinite(v) for v in values.values())
    result = {"correct": failed == 0 and complete, "attempted": len(invocations),
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units if math.isfinite(values.get(name, math.nan))}}

    env = machine.record(THREADS)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, "samples": samples,
              "invocations": [{"command": inv.command, "threads": inv.threads,
                               "traced": inv.traced, "wall_s": inv.wall_s,
                               "exit_code": inv.exit_code, "rss_mb": inv.rss_mb,
                               "errors": inv.errors} for inv in invocations],
              "machine": env}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, threads {THREADS}, "
          f"{env['nproc']} cpus ({env['cpu_model']}), record in {out.relative_to(ROOT)}")
    for inv in invocations:
        for err in inv.errors:
            print(f"FAILED {inv.command} ({inv.threads} thread(s)): {err}")
    counts = {name: len(v) for name, v in samples.items() if isinstance(v, list)}
    for name, metric in result["metrics"].items():
        n = counts.get(name)
        note = f"  (median of {n})" if n else ""
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"failed/attempted: {failed}/{len(invocations)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
