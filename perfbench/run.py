#!/usr/bin/env python3
"""crashsim benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload {fit,energy,drops} --seed N \
        --seconds S --trace {0,1}

Run from the root of a crashsim checkout; crashsim is imported from its
`src/` directory, and working files go to `.perfbench/` there.

`--trace 0` runs whole cycles of the workload's operations until their timed
spans add up to `--seconds` of wall time, checks every operation's outputs
after its timed span, and reports the end-to-end metrics. The gated timings
(`setup_s`, `op_cpu_s_p50`, `ops_per_cpu_s`) are CPU time, which leaves out
the time a shared host's hypervisor steals from this machine; the wall-clock
`op_s_p50`, `op_s_p90` and `ops_per_s` are printed on the report line.
`--trace 1` replays the workload's
first `trace_cycles` cycles twice per operation, once plain and once with
spans around each layer's public functions, and reports the per-layer
totals of the traced pass plus the tracing overhead against the plain pass.
A fixed number of cycles keeps the counts exactly repeatable for a seed.

The last line of standard output is the result object; the line before it
is a report with the environment, the traffic profile and the metrics that
are not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Draws

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

# fresh-interpreter set-up probes per run, spread over the run so that a
# slow spell of the host moves only some of them
SETUP_PROBES = 15
# stop starting operations after this much wall time, so that a run of a much
# slower program still ends within its time limit
WALL_LIMIT_S = 120.0
P90_MIN_TAIL = 10  # a p90 needs this many operations beyond it

# The probe's set-up CPU time is its main thread's: the threads numpy's BLAS
# starts on import spin for a time that varies with the host's load.
SETUP_PROBE = """\
import time
start, cpu = time.perf_counter(), time.thread_time()
from crashsim import DropScenario, ImpactParams, simulate_contact
simulate_contact(ImpactParams(0.241, 46.0, 7040.0), DropScenario(1.0))
print(time.perf_counter() - start, time.thread_time() - cpu)
"""


def cpu_seconds() -> float:
    """CPU time of this process, its threads and the child processes it has
    waited for. Unlike wall time it leaves out time stolen by the host."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(BENCH), env.get("PYTHONPATH")]))
    return env


def measure_setup(count: int) -> list[tuple[float, float]]:
    """(wall, CPU) seconds for `count` fresh interpreters to import crashsim
    and finish their first simulate_contact."""
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}")
        wall, cpu = done.stdout.strip().splitlines()[-1].split()
        times.append((float(wall), float(cpu)))
    return times


def git_revision() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    try:
        from crashsim import _kernels
        numba_enabled = getattr(_kernels, "NUMBA_ENABLED", None)
    except ImportError:
        numba_enabled = None
    return {
        "numba_importable": numba_version is not None,
        "numba_version": numba_version,
        "crashsim_numba_enabled": numba_enabled,
        "CRASHSIM_NUMBA": os.environ.get("CRASHSIM_NUMBA"),
        "CRASHSIM_MAX_THREADS": os.environ.get("CRASHSIM_MAX_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(),
        "seed": seed,
    }


def run_cli(argv: list[str]) -> int:
    from crashsim import cli
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        return exc.code if isinstance(exc.code, int) else 2


class Checker:
    """Checks operations' outputs in a helper process, so that the peak RSS
    of the workload process is the program's alone. The helper is a plain
    child process that this one waits for, so none outlives the run."""

    def __enter__(self):
        self._process = subprocess.Popen(
            [sys.executable, "-c", "import workloads; workloads.serve_checks()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        self._receive()  # the helper's start-up must not overlap any timing
        return self

    def _receive(self):
        try:
            return pickle.load(self._process.stdout)
        except EOFError:
            fail("the output-check helper process ended early")

    def check(self, workload, op, out: Path) -> list[str]:
        pickle.dump((workload.name, op, str(out)), self._process.stdin)
        self._process.stdin.flush()
        problems, op.observed = self._receive()
        return problems

    def __exit__(self, *exc_info):
        with contextlib.suppress(OSError):
            self._process.stdin.close()  # end of requests: the helper returns
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


def execute(workload, op, tag: str, checker: Checker,
            tracer=None) -> tuple[float, float, list[str]]:
    """Run one operation; return its timed wall and CPU seconds and its
    problems."""
    out = WORK / "ops" / f"{op.id}{tag}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    for name, text in op.inputs.items():
        (out / name).write_text(text)
    commands = [[arg.replace("{dir}", str(out)) for arg in argv] for argv in op.commands]

    captured = io.StringIO()
    problems = []
    traced = tracer.installed() if tracer else contextlib.nullcontext()
    operation = tracer.operation(op.id + tag) if tracer else contextlib.nullcontext()
    with traced, operation, contextlib.redirect_stdout(captured), \
            contextlib.redirect_stderr(captured):
        start, cpu = time.perf_counter(), cpu_seconds()
        try:
            for argv in commands:
                code = run_cli(argv)
                if code != 0:
                    problems.append(f"exit code {code} from {argv[2:4]}")
                    break
        except Exception:  # an operation that raises is a failed operation
            problems.append(traceback.format_exc(limit=3))
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu

    if not problems:
        problems = checker.check(workload, op, out)
    if problems:
        print(f"perfbench: {op.id}{tag} failed: {'; '.join(problems)}\n"
              f"{captured.getvalue()[-2000:]}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return wall, cpu, problems


def operations(workload, seed: int):
    """The workload's operations, cycle after cycle, in a fixed order."""
    index = 0
    while True:
        yield index, workload.cycle(Draws(seed, index), index)
        index += 1


def percentile_report(times: list[float]) -> dict:
    """p90 only when at least P90_MIN_TAIL operations lie beyond it."""
    n = len(times)
    if n * 0.1 < P90_MIN_TAIL:
        return {"op_s_p90": None, "op_s_p90_samples": n}
    return {"op_s_p90": f"{np.percentile(times, 90):.6g} s", "op_s_p90_samples": n}


def warm_up() -> None:
    """Import the CLI and run one drop, so no operation pays for loading."""
    import crashsim.cli  # noqa: F401
    from crashsim import DropScenario, ImpactParams, simulate_contact
    simulate_contact(ImpactParams(0.241, 46.0, 7040.0), DropScenario(1.0))


def run_timed(workload, seed: int, seconds: float) -> dict:
    warm_up()

    setup, walls, cpus, ok, done = [], [], [], 0, []
    with Checker() as checker:
        began = time.perf_counter()
        for _, ops in operations(workload, seed):
            for op in ops:
                if time.perf_counter() - began > WALL_LIMIT_S:
                    break
                # catch the set-up probes up with the share of the run done
                due = math.ceil(SETUP_PROBES * min(1.0, sum(walls) / seconds))
                setup += measure_setup(max(due, 1) - len(setup))
                wall, cpu, problems = execute(workload, op, "", checker)
                walls.append(wall)
                cpus.append(cpu)
                ok += not problems
                done.append(op)
            if sum(walls) >= seconds or time.perf_counter() - began > WALL_LIMIT_S:
                break
    setup += measure_setup(SETUP_PROBES - len(setup))

    metrics = {
        "setup_s": (statistics.median(c for _, c in setup), "s"),
        "op_cpu_s_p50": (statistics.median(cpus), "s"),
        "ops_per_cpu_s": (ok / sum(cpus), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"op_s_p50": f"{statistics.median(walls):.6g} s",
             "ops_per_s": f"{ok / sum(walls):.6g} 1/s",
             "setup_wall_s": f"{statistics.median(w for w, _ in setup):.6g} s",
             "failed_share": f"{(len(walls) - ok) / len(walls):.6g} ratio",
             **percentile_report(walls),
             "cycles": len(walls) // workload.strata,
             "setup_samples_s": [[round(w, 4), round(c, 4)] for w, c in setup]}
    errors = [o.observed["damping_rel_err"] for o in done
              if o.params.get("noise") and "damping_rel_err" in o.observed]
    if errors:
        extra["damping_rel_err_p50"] = f"{statistics.median(errors):.6g} ratio"
        extra["damping_rel_err_samples"] = len(errors)
    return {"metrics": metrics, "extra": extra, "attempted": len(walls),
            "failed": len(walls) - ok, "ops": done}


def run_traced(workload, seed: int) -> dict:
    from spans import Tracer, layer_metrics, termination_mix
    warm_up()

    tracer = Tracer()
    plain, traced = {}, {}
    failed = 0
    done = []
    with Checker() as checker:
        began = time.perf_counter()
        for index, ops in operations(workload, seed):
            if index == workload.trace_cycles:
                break
            for n, op in enumerate(ops):
                if time.perf_counter() - began > WALL_LIMIT_S:
                    break
                # alternate which pass runs first so warm caches favour neither
                passes = [("", None), ("-traced", tracer)]
                for tag, t in passes if n % 2 == 0 else passes[::-1]:
                    wall, _, problems = execute(workload, op, tag, checker, t)
                    (traced if t else plain)[op.id + tag] = wall
                    failed += bool(problems)
                done.append(op)

    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{workload.name}-{seed}.jsonl")
    layers = layer_metrics(tracer.spans, traced)
    layers["parallel.threads_peak"] = tracer.threads_peak
    layers["trace.overhead_share"] = sum(traced.values()) / sum(plain.values()) - 1.0
    units = {"calls": "count", "samples": "count", "loss_evals": "count",
             "threshold_sims": "count", "threads_peak": "count", "bytes_written": "B",
             "us_per_sample": "us", "sims_per_eval": "count",
             "horizon_share": "ratio", "horizon_sample_share": "ratio",
             "overhead_share": "ratio"}
    metrics = {name: (value, units.get(name.split(".", 1)[1], "s"))
               for name, value in layers.items()}
    extra = {"traced_ops": len(done), "termination_mix": termination_mix(tracer.spans)}
    return {"metrics": metrics, "extra": extra, "attempted": 2 * len(done),
            "failed": failed, "ops": done}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "crashsim" / "__init__.py").is_file():
        fail(f"no crashsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.trace:
        result = run_traced(workload, args.seed)
    else:
        result = run_timed(workload, args.seed, args.seconds)
    shutil.rmtree(WORK / "ops", ignore_errors=True)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    report = {
        "workload": workload.name, "trace": args.trace,
        "environment": environment(args.seed),
        "metrics": {name: f"{m['value']:.6g} {m['unit']}" for name, m in metrics.items()},
        **result["extra"],
        "traffic": workload.profile(result["ops"]),
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
