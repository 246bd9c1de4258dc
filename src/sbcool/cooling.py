"""Pulsed sideband cooling: schedule construction and population-rate simulation.

The schedule walks the red sideband down from n_start, one pi-pulse per target
level (duration 1 / (2 f1 sqrt(n)) for sideband Rabi f1 at n = 1), each
followed by a repump cycle.  The rate map propagates classical Fock
populations: every level transfers down with its own sin^2 probability during
each pulse, and motional heating acts as a birth-death process over each
pulse's wall-clock duration.

Heating is propagated by uniformization (_heat).  The generator Q has exit
rates below L = 2 n_max + 1, so P = I + Q / L is column-stochastic and
tridiagonal, and exp(s Q) p = sum_k Pois(k; L s) P^k p: a sum of
non-negative terms, each one tridiagonal product.  The series stops at the
first k with k + 1 > L s and w_k L s / (k + 1 - L s) <= 1e-16, a bound on
the weight of every later term, and a window with L s > 500 is split so
that exp(-L s) cannot underflow.  Windows with nothing between them
compose, exp(aQ) exp(bQ) = exp((a+b)Q), so the rate map heats each stretch
of entries between two transfer (or recoil) steps with one series, and
reads every entry's state as one row of the weight matrix times the terms.
The top-bin guard (TOP_BIN_TOL) is checked after every schedule entry.

A master-equation twin (simulate_cooling_quantum) runs the same schedule on
the effective two-level model with projective repumping; it exists to
cross-validate the rate map and is exact for the same physics, so the two
agree to integrator tolerance when heating is off.  Each of its pulses may
clip at most CLIP_TOL of negative roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IntegrationError, TruncationError
from .dynamics import (
    HeatingChannel,
    LindbladModel,
    SidebandProbe,
    evolve_lindblad,
    heating_collapse_ops,
)
from .qcore import (
    FockDistribution,
    distribution_density,
    motional_populations,
)

__all__ = [
    "PulseSpec",
    "PulseSchedule",
    "RepumpModel",
    "CoolingResult",
    "build_schedule",
    "schedule_total_time",
    "heat_distribution",
    "simulate_cooling",
    "simulate_cooling_quantum",
]

# Population allowed in the top bin before the rate map refuses to continue.
TOP_BIN_TOL = 1e-4
# Negative probability a master-equation pulse of the twin may clip as roundoff.
CLIP_TOL = 1e-9
# Weight of the Poisson terms a heating series may drop.
POISSON_TAIL = 1e-16
# Largest L s one series takes; exp(-L s) underflows past about 745.
SPLIT_LS = 500.0

SIDEBAND_KIND = "red_sideband"
REPUMP_KIND = "repump"


@dataclass(frozen=True)
class PulseSpec:
    """One schedule entry: a red-sideband pulse aimed at target_n, or a repump."""

    kind: str
    duration_s: float
    target_n: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (SIDEBAND_KIND, REPUMP_KIND):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if not 0.0 <= self.duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and >= 0, got {self.duration_s!r}")
        if self.kind == SIDEBAND_KIND:
            if self.target_n is None or self.target_n < 1:
                raise ValueError("sideband pulses need target_n >= 1")
        elif self.target_n is not None:
            raise ValueError("repump pulses carry no target_n")


@dataclass(frozen=True)
class RepumpModel:
    """Spin reset bookkeeping: 2 swap pi-pulses plus a pump window per cycle.

    recoil_quanta is the mean motional gain per reset applied to the
    population that was actually transferred by the preceding pulse; the
    default 0 models recoil-free reset (sub-Lamb-Dicke regime).
    """

    pi_time_s: float = 14e-6
    pump_time_s: float = 6e-6
    extra_swaps: int = 2
    recoil_quanta: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.pi_time_s < math.inf and 0.0 <= self.pump_time_s < math.inf):
            raise ValueError(f"times must be finite and >= 0: {self.pi_time_s!r}, {self.pump_time_s!r}")
        if self.extra_swaps < 0:
            raise ValueError("extra_swaps must be >= 0")
        if self.recoil_quanta < 0:
            raise ValueError("recoil_quanta must be >= 0")

    @property
    def duration_s(self) -> float:
        return self.extra_swaps * self.pi_time_s + self.pump_time_s


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered pulse list produced by build_schedule.

    sideband_rabi_1_hz is the n = 1 red-sideband Rabi frequency the pi-times
    were computed from; the simulators reuse it for transfer probabilities.
    """

    pulses: tuple[PulseSpec, ...]
    n_start: int
    sideband_rabi_1_hz: float

    def __post_init__(self) -> None:
        pulses = tuple(self.pulses)
        if self.n_start < 1:
            raise ValueError("n_start must be >= 1")
        if self.sideband_rabi_1_hz <= 0:
            raise ValueError("sideband_rabi_1_hz must be > 0")
        targets = [p.target_n for p in pulses if p.kind == SIDEBAND_KIND]
        if targets and any(b >= a for a, b in zip(targets, targets[1:])):
            raise ValueError("sideband targets must strictly decrease")
        object.__setattr__(self, "pulses", pulses)


def build_schedule(n_start: int, sideband_rabi_1_hz: float,
                   repump: RepumpModel = RepumpModel()) -> PulseSchedule:
    """Pi-pulse staircase n_start, n_start-1, .., 1 with a repump after each.

    Pulse n lasts 1 / (2 f1 sqrt(n)), the pi-time at that level's sideband
    Rabi frequency.
    """
    if n_start < 1:
        raise ValueError("n_start must be >= 1")
    if sideband_rabi_1_hz <= 0:
        raise ValueError("sideband_rabi_1_hz must be > 0")
    pulses: list[PulseSpec] = []
    for n in range(n_start, 0, -1):
        t_n = 1.0 / (2.0 * sideband_rabi_1_hz * math.sqrt(n))
        pulses.append(PulseSpec(SIDEBAND_KIND, t_n, target_n=n))
        pulses.append(PulseSpec(REPUMP_KIND, repump.duration_s))
    return PulseSchedule(tuple(pulses), n_start, sideband_rabi_1_hz)


def schedule_total_time(schedule: PulseSchedule,
                        kinds: Sequence[str] | None = None) -> float:
    """Wall-clock total in seconds.  kinds filters the accounting, e.g.
    kinds=("red_sideband",) for drive-only time; default counts everything."""
    allowed = set(kinds) if kinds is not None else None
    return float(sum(p.duration_s for p in schedule.pulses
                     if allowed is None or p.kind in allowed))


# ---------------------------------------------------------------------------
# distribution-level heating


def _last_term(lam_s: float) -> int:
    """Index of the last Poisson(lam_s) term a heating series keeps.  Past
    k + 1 > lam_s the weights w_k fall at least geometrically, by lam_s / (k + 1),
    so w_k lam_s / (k + 1 - lam_s) bounds the weight of all later terms."""
    k, w = 0, math.exp(-lam_s)
    while k + 1 <= lam_s or w * lam_s > POISSON_TAIL * (k + 1 - lam_s):
        k += 1
        w *= lam_s / k
    return k


def _heat(p: np.ndarray, s: Sequence[float]) -> np.ndarray:
    """States exp(s_j Q) p, one row per entry of the non-decreasing s, the
    accumulated n_dot * t.  Q has up-rate n + 1 and down-rate n, and no birth
    out of the top bin.  Each row is sum_k Pois(k; L s_j) P^k p, P = I + Q / L,
    with L = 2 n_max + 1; the series is split past L s = SPLIT_LS."""
    s = np.asarray(s, dtype=float)
    lam = 2.0 * p.size - 1.0
    if not math.isfinite(lam * s[-1]):
        raise ValueError(f"heating n_dot * t = {s[-1]!r} is not finite")
    n = np.arange(p.size, dtype=float)
    stay = 1.0 - (2.0 * n + 1.0) / lam
    stay[-1] = 1.0 - n[-1] / lam
    hop = n[1:] / lam  # edge n-1 <-> n carries rate n either way

    def series(p, lam_s):
        terms = np.empty((_last_term(lam_s[-1]) + 1, p.size))
        terms[0] = p
        for x, y in zip(terms, terms[1:]):
            np.multiply(stay, x, out=y)
            y[1:] += hop * x[:-1]
            y[:-1] += hop * x[1:]
        ratios = lam_s[:, None] / np.arange(1.0, len(terms))
        weights = np.cumprod(np.column_stack([np.exp(-lam_s), ratios]), axis=1)
        return weights @ terms

    rows = []
    step = SPLIT_LS / lam
    while lam * s[-1] > SPLIT_LS:
        cut = int(np.searchsorted(s, step, side="right"))
        block = series(p, lam * np.append(s[:cut], step))
        rows.append(block[:-1])
        p, s = block[-1], s[cut:] - step
    rows.append(series(p, lam * s))
    return np.concatenate(rows)


def heat_distribution(dist: FockDistribution, n_dot: float, dt: float) -> FockDistribution:
    """Evolve a Fock distribution under motional heating for dt seconds.

    Exact propagation of the truncated birth-death process; the mean grows by
    ndot * dt while the top bin stays empty.
    """
    for name, value in (("n_dot", n_dot), ("dt", dt)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return FockDistribution(_heat(dist.populations, [n_dot * dt])[0],
                            truncation_loss=dist.truncation_loss)


@dataclass(frozen=True)
class CoolingResult:
    """Final distribution plus the n_bar trajectory, one row per sideband pulse.

    Row 0 is the initial state; row k holds n_bar right after the k-th
    sideband pulse, before its repump, and the elapsed time after both.
    """

    final: FockDistribution
    pulse_index: np.ndarray
    nbar: np.ndarray
    t_elapsed_s: np.ndarray

    def __post_init__(self) -> None:
        for name in ("pulse_index", "nbar", "t_elapsed_s"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _apply_transfer(p: np.ndarray, rabi_1_hz: float, duration_s: float) -> tuple[np.ndarray, np.ndarray]:
    """All levels transfer simultaneously, each with its own probability,
    computed from the pre-pulse populations.  Returns (new_p, transferred)."""
    n = np.arange(p.size)
    prob = np.sin(np.pi * rabi_1_hz * np.sqrt(n) * duration_s) ** 2
    prob[0] = 0.0
    moved = p * prob
    new_p = p - moved
    new_p[:-1] += moved[1:]
    return new_p, moved


def _apply_recoil(p: np.ndarray, transferred: float, recoil_quanta: float) -> np.ndarray:
    """Mean upward shift of recoil_quanta * transferred quanta, applied as a
    whole-bin shift plus a fractional one-bin shift; raises the mean by exactly
    that amount (up to top-bin truncation)."""
    shift = recoil_quanta * transferred
    if shift <= 0:
        return p
    whole = int(shift)
    frac = shift - whole
    out = p
    if whole:
        shifted = np.zeros_like(out)
        shifted[whole:] = out[:-whole]
        out = shifted
    if frac > 0:
        shifted = np.zeros_like(out)
        shifted[1:] = out[:-1]
        out = (1.0 - frac) * out + frac * shifted
    return out / out.sum()


def simulate_cooling(
    dist0: FockDistribution,
    schedule: PulseSchedule,
    heating: HeatingChannel | None = None,
    repump: RepumpModel = RepumpModel(),
    n_max: int | None = None,
) -> CoolingResult:
    """Rate-map cooling run.

    Each sideband pulse moves population down with per-level sin^2
    probabilities; heating acts over every pulse's wall-clock duration; the
    repump resets spin implicitly and applies recoil if configured.  The
    heating of each stretch between two transfer or recoil steps is one
    series (see the module docstring).  Raises TruncationError if the top bin
    holds more than 1e-4 after any schedule entry.
    """
    if n_max is None:
        n_max = max(schedule.n_start + 150, dist0.n_max)
    if n_max < max(schedule.n_start, dist0.n_max):
        raise ValueError("n_max must cover both n_start and the initial distribution")
    p = np.zeros(n_max + 1)
    p[: dist0.n_max + 1] = dist0.populations

    n_dot = heating.n_dot if heating is not None else 0.0
    rabi_1 = schedule.sideband_rabi_1_hz
    levels = np.arange(p.size)

    idx, nbars, elapsed = [0], [float(levels @ p)], [0.0]
    t, k, transferred = 0.0, 0, 0.0
    pulses = schedule.pulses
    # each stretch starts at a step that changes p, or at the first entry
    starts = [i for i, pulse in enumerate(pulses)
              if i == 0 or pulse.kind == SIDEBAND_KIND or repump.recoil_quanta > 0]

    for a, b in zip(starts, starts[1:] + [len(pulses)]):
        stretch = pulses[a:b]
        if stretch[0].kind == SIDEBAND_KIND:
            p, moved = _apply_transfer(p, rabi_1, stretch[0].duration_s)
            transferred = float(moved.sum())
        elif repump.recoil_quanta > 0:
            p = _apply_recoil(p, transferred, repump.recoil_quanta)
            transferred = 0.0
        rows = _heat(p, np.cumsum([n_dot * pulse.duration_s for pulse in stretch]))
        for pulse, row in zip(stretch, rows):
            t += pulse.duration_s
            if pulse.kind == SIDEBAND_KIND:
                k += 1
                idx.append(k)
                nbars.append(float(levels @ row))
                elapsed.append(t)
            else:
                # repump time counts toward the trajectory clock of the last row
                elapsed[-1] = t
            if row[-1] > TOP_BIN_TOL:
                raise TruncationError(
                    f"top bin population {row[-1]:.3e} > {TOP_BIN_TOL:.0e} at pulse {k}")
        p = rows[-1]

    final = FockDistribution(p / p.sum(), truncation_loss=dist0.truncation_loss)
    return CoolingResult(final, np.array(idx), np.array(nbars), np.array(elapsed))


def _clip_roundoff(p: np.ndarray, source: str) -> np.ndarray:
    """Clip negative roundoff from populations and renormalise; raises
    IntegrationError, naming source and the magnitude, when the clipped
    negative mass exceeds CLIP_TOL."""
    clipped = -float(p[p < 0.0].sum())
    if clipped > CLIP_TOL:
        raise IntegrationError(
            f"{source} left {clipped:.3e} negative probability "
            f"(> {CLIP_TOL:.0e} roundoff allowance)")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def simulate_cooling_quantum(
    dist0: FockDistribution,
    schedule: PulseSchedule,
    heating: HeatingChannel | None = None,
    n_max: int = 40,
) -> CoolingResult:
    """Master-equation twin of simulate_cooling on the effective model.

    Each sideband pulse evolves the density matrix under the resonant
    red-sideband Hamiltonian; the repump is projective (spin reset to |0'>,
    motional populations kept) with heating applied over its duration.
    """
    probe = SidebandProbe(schedule.sideband_rabi_1_hz)
    space = probe.space(n_max)
    h = probe.hamiltonian(space, probe.resonance_hz())
    collapse = ()
    n_dot = heating.n_dot if heating is not None else 0.0
    if n_dot > 0:
        collapse = tuple(heating_collapse_ops(heating, space))
    model = LindbladModel(h, collapse)

    pad = np.zeros(n_max + 1)
    pad[: dist0.n_max + 1] = dist0.populations
    pops = pad / pad.sum()

    idx = [0]
    nbars = [float(np.dot(np.arange(pops.size), pops))]
    elapsed = [0.0]
    t = 0.0
    k = 0

    for pulse in schedule.pulses:
        if pulse.kind == SIDEBAND_KIND:
            rho0 = distribution_density(FockDistribution(pops), space, "0'")
            state = evolve_lindblad(model, rho0, [pulse.duration_s])[-1]
            pops = _clip_roundoff(motional_populations(state), "master-equation pulse")
            t += pulse.duration_s
            k += 1
            idx.append(k)
            nbars.append(float(np.dot(np.arange(pops.size), pops)))
            elapsed.append(t)
        else:
            # projective repump; heating still runs on the motional register
            pops = _heat(pops, [n_dot * pulse.duration_s])[0]
            t += pulse.duration_s
            elapsed[-1] = t

    final = FockDistribution(pops, truncation_loss=dist0.truncation_loss)
    return CoolingResult(final, np.array(idx), np.array(nbars), np.array(elapsed))
