"""One workload in one fresh process: a single closed-loop client.

Started by run.py with the BLAS thread count pinned and `src` on PYTHONPATH.
Runs one untimed warm-up task, then tasks back to back until --seconds have
passed (at least one), each through `sbcool.cli.main(argv)` in-process.  A
task is timed from its first command to its last; its output check runs
after the clock stops, and a failed task is counted but not timed.

With --trace 1 every task runs twice with the same parameters, untraced and
then traced, so the tracing overhead is measured on identical work.  Exact
counts come from the first traced task; times are means over traced tasks.
The spans are written to .bench_out/trace-<workload>-seed<seed>.json.

Prints one JSON object as its last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import sbcool.cli
from run import THREAD_VARS
from tracer import Tracer
from workloads import WORKLOADS, Task

OUT_DIR = Path(".bench_out")


def machine_info() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var, "") for var in THREAD_VARS},
    }


def run_task(task: Task, tracer: Tracer | None = None) -> tuple[float | None, str | None]:
    """(seconds, None) for a correct task, (None, reason) for a failed one."""
    outs = []
    token = tracer.begin() if tracer else None
    t0 = perf_counter()
    try:
        for argv in task.steps:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = sbcool.cli.main(list(argv))
                except SystemExit as exc:  # argparse rejects bad arguments this way
                    code = exc.code
            if code != 0:
                return None, f"{argv[0]} exited {code}: {err.getvalue().strip()}"
            outs.append(out.getvalue())
    except Exception:  # a crash in one task must not end the run
        return None, traceback.format_exc(limit=3)
    finally:
        if tracer:
            tracer.end("task", token)
    seconds = perf_counter() - t0
    try:
        problem = task.check(outs)
    except (OSError, ValueError, KeyError) as exc:
        problem = f"unreadable output: {exc!r}"
    return (seconds, None) if problem is None else (None, problem)


class Client:
    """Runs tasks of one workload and keeps the tally."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.make = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, k: int, tracer: Tracer | None = None) -> float | None:
        # A fresh directory per task: on ext4, replacing an existing file by
        # truncation forces a flush (~50 ms a file) that new files do not pay.
        work = self.work / f"task-{self.attempted}"
        work.mkdir()
        try:
            seconds, problem = run_task(self.make(self.seed, k, work), tracer)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.attempted += 1
        if problem is not None:
            self.errors.append(f"task {k}: {problem}")
        return seconds


def layer_metrics(tracer: Tracer, tasks: list[int], overhead: float) -> tuple[dict, list]:
    """Per-layer metrics: times ("s") as means per task, the rest, which are
    exact counts and ratios of counts, from tasks[0]."""
    selfs, durs = tracer.self_times(), tracer.durations()
    fit_solves = tracer.solves_under("thermometry.fit_nbar_spectra")
    counts = tracer.counts

    def calls(*names):
        return lambda k: sum(durs[k][n][0] for n in names)

    def secs(*names):
        return lambda k: sum(durs[k][n][1] for n in names)

    def self_s(name):
        return lambda k: selfs[k][name]

    def count(key):
        return lambda k: counts[k][key]

    def ratio(num, den):
        return lambda k: num(k) / den(k) if den(k) else 0.0

    hamiltonians = ("ion.effective_two_level_hamiltonian", "ion.build_dressed_rf_hamiltonian")
    density = "qcore.DensityMatrix.__post_init__"
    # name -> (unit, value for one task, spans it depends on)
    table = {
        "dynamics.rhs_evals": ("count", count("dynamics.rhs_evals"), ["dynamics.solve_ivp"]),
        "dynamics.rhs.s": ("s", count("dynamics.rhs.s"), ["dynamics.solve_ivp"]),
        "dynamics.rhs_evals_per_solve": (
            "ratio", ratio(count("dynamics.rhs_evals"), count("dynamics.solves")),
            ["dynamics.solve_ivp"]),
        "dynamics.solves": ("count", count("dynamics.solves"), ["dynamics.solve_ivp"]),
        "dynamics.evolve_lindblad.self_s": (
            "s", self_s("dynamics.evolve_lindblad"), ["dynamics.evolve_lindblad"]),
        "dynamics.simulate_scan.self_s": (
            "s", self_s("dynamics.simulate_scan"), ["dynamics.simulate_scan"]),
        "dynamics.simulate_flop.self_s": (
            "s", self_s("dynamics.simulate_flop"), ["dynamics.simulate_flop"]),
        "dynamics.max_dim": ("dim", count("dynamics.max_dim"), ["dynamics.evolve_lindblad"]),
        "thermometry.fit_nbar_spectra.self_s": (
            "s", self_s("thermometry.fit_nbar_spectra"), ["thermometry.fit_nbar_spectra"]),
        "thermometry.fit_evals": (
            "count", count("thermometry.fit_evals"), ["thermometry.fit_nbar_spectra"]),
        "thermometry.solves_per_fit_eval": (
            "ratio", ratio(lambda k: fit_solves[k], count("thermometry.fit_evals")),
            ["thermometry.fit_nbar_spectra", "dynamics.solve_ivp"]),
        "ion.hamiltonian.calls": ("count", calls(*hamiltonians), list(hamiltonians)),
        "ion.hamiltonian.s": ("s", secs(*hamiltonians), list(hamiltonians)),
        "qcore.density_checks": ("count", calls(density), [density]),
        "qcore.density_checks.s": ("s", secs(density), [density]),
        "cooling.simulate_cooling.self_s": (
            "s", self_s("cooling.simulate_cooling"), ["cooling.simulate_cooling"]),
        "cooling.pulses": ("count", count("cooling.pulses"), ["cooling.simulate_cooling"]),
        "cooling.heat_distribution.s": (
            "s", secs("cooling.heat_distribution"), ["cooling.heat_distribution"]),
        "runio.write_csv.s": ("s", secs("runio.write_csv"), ["runio.write_csv"]),
        "runio.write_manifest.s": (
            "s", secs("runio.write_manifest"), ["runio.write_manifest"]),
        "runio.read_csv.s": ("s", secs("runio.read_csv"), ["runio.read_csv"]),
        "runio.bytes_written": (
            "bytes", count("runio.bytes_written"),
            ["runio.write_csv", "runio.write_manifest"]),
        "cli.main.self_s": ("s", self_s("cli.main"), ["cli.main"]),
        "config.load_config.s": ("s", secs("config.load_config"), ["config.load_config"]),
    }
    metrics, absent = {}, []
    for name, (unit, value, needs) in table.items():
        if any(n in tracer.absent for n in needs):
            absent.append(name)
            continue
        v = statistics.fmean(value(k) for k in tasks) if unit == "s" else value(tasks[0])
        metrics[name] = {"value": v, "unit": unit}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    return metrics, absent


def write_trace(path: Path, tracer: Tracer, machine: dict) -> None:
    spans = [dict(zip(("id", "name", "start", "end", "parent", "task"), s))
             for s in tracer.spans if s is not None]
    payload = {"machine": machine, "absent": tracer.absent,
               "counts": {k: dict(v) for k, v in tracer.counts.items()}, "spans": spans}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    client = Client(args.workload, args.seed, work)
    result = {"machine": machine_info()}
    try:
        client.run(0)  # warm-up: lazy imports, allocator, page cache
        start = perf_counter()
        timed, k = [], 1
        if not args.trace:
            while True:
                seconds = client.run(k)
                if seconds is not None:
                    timed.append(seconds)
                k += 1
                if perf_counter() - start >= args.seconds:
                    break
        else:
            tracer, plain, traced, tasks = Tracer(), [], [], []
            while True:
                untraced_s = client.run(k)
                tracer.task = k
                tracer.install()
                try:
                    traced_s = client.run(k, tracer)
                finally:
                    tracer.uninstall()
                if untraced_s is not None and traced_s is not None:
                    plain.append(untraced_s)
                    traced.append(traced_s)
                    tasks.append(k)
                k += 1
                if perf_counter() - start >= args.seconds:
                    break
            if tasks:
                overhead = statistics.median(traced) / statistics.median(plain) - 1.0
                result["metrics"], result["absent"] = layer_metrics(tracer, tasks, overhead)
            write_trace(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                        tracer, result["machine"])
            timed = traced
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result.update(
        attempted=client.attempted,
        failed=len(client.errors),
        errors=client.errors[:5],
        task_seconds=timed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
