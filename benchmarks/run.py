"""sbcool benchmark: one seeded workload per invocation, run from the repo root.

    python3 benchmarks/run.py --workload thermometry --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): thermometry, flops, heatrate, cooling.

--trace 0 prints the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter that imports sbcool.cli
               and loads demos/reference.cfg (21 timed starts after one that
               compiles bytecode)
  task_s_p50   median seconds per task, after one untimed warm-up task
  tasks_per_s  tasks completed per second of busy time (mean-based)
  peak_rss_mb  peak resident memory of the workload process
Failed tasks (nonzero exit or failed output check) are reported as `failed`
against `attempted`, which includes the warm-up.

--trace 1 prints the per-layer metrics from a separate traced run (tracer.py)
and the tracing overhead.

The workload runs in its own fresh process (worker.py) with BLAS/OpenMP pinned
to one thread; nothing else runs meanwhile.  Files go to .bench_out/ in the
checkout.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Exits 2 without a result when the checkout
lacks the sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import CONFIG, WORKLOADS

HERE = Path(__file__).resolve().parent
NEEDED = ("src/sbcool/cli.py", CONFIG)
SETUP_CODE = ("import sbcool.cli\n"
              "from sbcool.config import load_config\n"
              f"load_config({CONFIG!r})\n")
SETUP_REPEATS = 21
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# a run must end within 180 s; the worker gets what the set-up leaves
DEADLINE_S = 170.0


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p)
    return env


def measure_setup(env: dict) -> float:
    # No timeout here: with one, subprocess polls the child with sleeps of up
    # to 50 ms, which would quantise the measurement.
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sbcool benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in NEEDED if not (root / p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = pinned_env(root)
    began = perf_counter()
    try:
        setup_s = None if args.trace else measure_setup(env)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env, capture_output=True, text=True,
            timeout=DEADLINE_S - (perf_counter() - began))
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up interpreter failed: {exc.stderr or exc}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {' '.join(exc.cmd)[:80]} exceeded its time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    machine = result["machine"]
    print(f"machine: {machine['cpu_model']}, nproc {machine['nproc']} "
          f"(usable {machine['usable_cpus']}); python {machine['python']}, "
          f"numpy {machine['numpy']}, scipy {machine['scipy']}, {machine['blas']}; "
          f"threads {machine['threads']}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: one closed-loop client, jobs=1")
    for error in result["errors"]:
        print(f"FAILED {error}")

    times = result["task_seconds"]
    if args.trace:
        metrics = result.get("metrics", {})
        if result.get("absent"):
            # left out of the metrics: the wrapped name they need no longer exists
            print(f"absent: {', '.join(result['absent'])}")
    else:
        if not times:
            print("error: no task completed correctly", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "task_s_p50": {"value": statistics.median(times), "unit": "s"},
            "tasks_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"timed tasks: {len(times)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"tasks_failed = {result['failed']} of {result['attempted']} attempted")
    print(json.dumps({"correct": result["failed"] == 0 and bool(metrics),
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
