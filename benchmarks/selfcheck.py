"""Check that the traced run's exact counts repeat exactly.

    python3 benchmarks/selfcheck.py [--seed 7] [workload ...]

Runs `run.py --trace 1` twice per workload (default: all four) with the same
seed and compares every per-layer metric that is not a time (counts, ratios
of counts, dimensions, bytes); those must repeat exactly.  Exits 1 on any
difference; raises on a run without a result or with a failed task.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

TIME_UNITS = ("s", "fraction")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: traced run reported failures:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in TIME_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", metavar="workload")
    args = parser.parse_args()
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    ok = True
    for workload in args.workloads or sorted(WORKLOADS):
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        differ = {k: (v, second.get(k)) for k, v in first.items() if second.get(k) != v}
        ok &= not differ
        print(f"{workload}: {'identical' if not differ else f'DIFFER {differ}'} {first}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
