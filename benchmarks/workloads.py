"""The benchmark's workloads: seeded parameters, CLI steps and output checks.

Each task is a fixed sequence of `sbcool` command lines run through
`sbcool.cli.main(argv)`.  Parameters come from `--seed` only: task k takes
point k of a Kronecker (R_d) low-discrepancy sequence whose offset is drawn
from the seed.  Only cooling gains from the sequence: a run holds dozens of
its tasks, spread evenly over the ranges, so the mix of task sizes is about
the same whatever the seed.  A 10 s run holds one to three timed tasks of
thermometry, heatrate and flops, so there the offset alone picks the
parameters, and the narrow ranges below keep task cost steady.

Ranges keep the fit bracket fixed and the Fock cutoff within a few levels
for every draw, which keeps task times homogeneous across seeds:

* thermometry: nbar in [0.05, 0.16].  Up to 0.16 the fit's bracket grid
  stays [0, 1] and a task costs the same at every nbar; above ~0.2 the grid
  widens, and a task at nbar 0.5 takes 3x longer.
* flops and heatrate: cost (and, for flops, peak memory) grows with the
  Fock cutoff 20 (nbar + ndot t + 1), so draws stay near the paper's values
  (nbar 0.13, 41 quanta/s) and the cutoff moves by at most two levels.
* cooling: tasks take 0.05-0.5 s, so a run holds dozens of them and the
  low-discrepancy draw covers the full ranges.

Every scan uses jobs=1, the plain single-process baseline.
"""

from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONFIG = "demos/reference.cfg"

# R_d sequence steps: powers of 1/g, g the real root of x^4 = x + 1.
_G = 1.2207440846057596
_STEPS = tuple(_G ** -(j + 1) for j in range(3))


@dataclass(frozen=True)
class Task:
    """Command lines for one task and a check over their captured stdout.

    check returns None when the outputs are right, else what is wrong.
    """

    steps: tuple[tuple[str, ...], ...]
    check: Callable[[list[str]], str | None]


def draw(seed: int, k: int, ranges: list[tuple[float, float]]) -> list[float]:
    """Point k of the seeded low-discrepancy sequence, scaled to ranges."""
    rng = random.Random(seed)
    return [lo + (hi - lo) * ((rng.random() + k * step) % 1.0)
            for (lo, hi), step in zip(ranges, _STEPS)]


def _column(path: Path, name: str) -> list[float]:
    with path.open(newline="", encoding="utf-8") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def _printed(stdout: str, label: str) -> float:
    match = re.search(rf"^{re.escape(label)} = (\S+)", stdout, re.MULTILINE)
    if match is None:
        raise ValueError(f"no '{label} =' line in output")
    return float(match.group(1))


def _cli(command: str, *args: str) -> tuple[str, ...]:
    return (command, "--config", CONFIG, *args)


def thermometry(seed: int, k: int, work: Path) -> Task:
    """Red and blue 11-point scans of a thermal state, then the integrate fit."""
    (nbar,) = draw(seed, k, [(0.05, 0.16)])
    nbar_arg = f"{nbar:.4f}"
    red, blue = work / "red.csv", work / "blue.csv"
    scan = ("--span", "4000", "--points", "11", "--shots", "inf", "--jobs", "1",
            "--nbar", nbar_arg)
    steps = (
        _cli("scan", "--sideband", "red", *scan, "--out", str(red)),
        _cli("scan", "--sideband", "blue", *scan, "--out", str(blue)),
        _cli("fit", str(red), str(blue), "--mode", "spectra", "--forward", "integrate"),
    )

    def check(outs: list[str]) -> str | None:
        fitted = _printed(outs[2], "nbar")
        if abs(fitted - float(nbar_arg)) > 0.005:
            return f"fitted nbar {fitted} is not within 0.005 of {nbar_arg}"
        return None

    return Task(steps, check)


def flops(seed: int, k: int, work: Path) -> Task:
    """10 ms effective flops on both sidebands, then a 2 ms full_dressed blue flop."""
    nbar, rate = draw(seed, k, [(0.11, 0.15), (36.0, 44.0)])
    params = ("--nbar", f"{nbar:.4f}",
              "--set", f"heating_rate_per_s={rate:.2f}", "--set", "sideband_rabi_hz=350")
    red, blue, dressed = work / "flop_red.csv", work / "flop_blue.csv", work / "flop_dressed.csv"
    steps = (
        _cli("flop", "--sideband", "red", "--tmax", "10e-3", "--points", "201",
             *params, "--out", str(red)),
        _cli("flop", "--sideband", "blue", "--tmax", "10e-3", "--points", "201",
             *params, "--out", str(blue)),
        _cli("flop", "--sideband", "blue", "--model", "full_dressed", "--tmax", "2e-3",
             "--points", "41", *params, "--out", str(dressed)),
    )

    def check(_outs: list[str]) -> str | None:
        t_eff, p_eff = _column(blue, "time_s"), _column(blue, "p_f1")
        t_full, p_full = _column(dressed, "time_s"), _column(dressed, "p_f1")
        if len(t_full) != 41 or any(not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)
                                    for a, b in zip(t_full, t_eff)):
            return "full_dressed grid is not the first 41 points of the effective grid"
        gap = max(abs(a - b) for a, b in zip(p_full, p_eff))
        if gap > 1e-3:
            return f"full_dressed differs from effective by {gap:.3g} > 1e-3"
        return None

    return Task(steps, check)


def heatrate(seed: int, k: int, work: Path) -> Task:
    """Closed-loop heating-rate measurement at three delays."""
    (rate,) = draw(seed, k, [(38.0, 44.0)])
    rate_arg = f"{rate:.2f}"
    steps = (
        _cli("heatrate", "--delays", "0,5e-3,10e-3", "--set",
             f"heating_rate_per_s={rate_arg}", "--out", str(work / "heatrate.csv")),
    )

    def check(outs: list[str]) -> str | None:
        recovered = _printed(outs[0], "heating rate")
        if abs(recovered - float(rate_arg)) > 0.1 * float(rate_arg):
            return f"recovered rate {recovered} is not within 10% of {rate_arg}"
        return None

    return Task(steps, check)


def cooling(seed: int, k: int, work: Path) -> Task:
    """One pulsed cooling run with the final distribution written out."""
    nstart, nbar0, rate = draw(seed, k, [(300.0, 600.0), (30.0, 65.0), (20.0, 100.0)])
    nbar0_arg = f"{nbar0:.2f}"
    dist = work / "dist.csv"
    steps = (
        _cli("cool", "--nstart", str(round(nstart)), "--nbar0", nbar0_arg,
             "--set", f"heating_rate_per_s={rate:.2f}",
             "--out", str(work / "cool.csv"), "--dist-out", str(dist)),
    )

    def check(_outs: list[str]) -> str | None:
        pops = _column(dist, "population")
        total = math.fsum(pops)
        if abs(total - 1.0) > 1e-9:
            return f"populations sum to {total!r}, not 1 within 1e-9"
        final = math.fsum(n * p for n, p in enumerate(pops))
        if not final < float(nbar0_arg):
            return f"final nbar {final} is not below nbar0 {nbar0_arg}"
        return None

    return Task(steps, check)


WORKLOADS: dict[str, Callable[[int, int, Path], Task]] = {
    "thermometry": thermometry,
    "flops": flops,
    "heatrate": heatrate,
    "cooling": cooling,
}
