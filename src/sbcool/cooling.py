"""Pulsed sideband cooling: schedule construction and population-rate simulation.

The schedule walks the red sideband down from n_start, one pi-pulse per target
level (duration 1 / (2 f1 sqrt(n)) for sideband Rabi f1 at n = 1), each
followed by a repump cycle.  The rate map propagates classical Fock
populations: every level transfers down with its own sin^2 probability during
each pulse, and motional heating acts as a birth-death process over each
pulse's wall-clock duration.

Heating is propagated exactly in the eigenbasis of its symmetric tridiagonal
generator, from one eigh_tridiagonal per run, imported from scipy.linalg
when the propagator is built.  Windows with nothing between them are one
propagation, so heating is deferred: after each transfer the rate map keeps
the eigen-coordinates and sums the heating that follows, reads each n_bar row
and top-bin population from them, and forms the population vector only
before the next transfer, before a recoil step and at the end.
A recoil-free cycle therefore costs two D x D products.  The top-bin guard
(TOP_BIN_TOL) is checked after every schedule entry; the negative-roundoff
bound (CLIP_TOL) on every formed heated state and on every master-equation
pulse of the twin.

A master-equation twin (simulate_cooling_quantum) runs the same schedule on
the effective two-level model with projective repumping; it exists to
cross-validate the rate map and is exact for the same physics, so the two
agree to integrator tolerance when heating is off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IntegrationError, TruncationError
from .dynamics import (
    HeatingChannel,
    IntegratorConfig,
    LindbladModel,
    evolve_lindblad,
    heating_collapse_ops,
)
from .ion import effective_two_level_hamiltonian, two_level_space
from .qcore import (
    DensityMatrix,
    FockDistribution,
    distribution_density,
    mean_phonon,
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
# Negative probability the heating propagator may clip as roundoff.
CLIP_TOL = 1e-9

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
        if self.duration_s < 0:
            raise ValueError("duration_s must be >= 0")
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
        if self.pi_time_s < 0 or self.pump_time_s < 0:
            raise ValueError("times must be >= 0")
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


class _HeatingPropagator:
    """exp(ndot t Q) on population vectors for the birth-death generator Q with
    up-rate (n+1) and down-rate n, truncated reflectively at n_max.

    Q is symmetric tridiagonal (up element n+1 equals the down element across
    the same edge), so one eigh_tridiagonal per n_max, Q = V diag(lam) V^T,
    gives exact propagation p -> V (exp(lam ndot t) * V^T p); the dense Q is
    never built.  Heating windows with nothing between them compose,
    exp(aQ) exp(bQ) = exp((a+b)Q), so a caller may keep the eigen-coordinates
    c = V^T p, add up windows, and read n_bar and the top bin from
    readout @ weights(c, s) before forming the state once.  Columns of Q sum
    to zero: probability is conserved to roundoff.  form() clips negative
    roundoff and raises IntegrationError past CLIP_TOL.
    """

    def __init__(self, n_max: int) -> None:
        from scipy.linalg import eigh_tridiagonal
        n = np.arange(n_max + 1.0)
        diag = -(2.0 * n + 1.0)
        diag[-1] = -float(n_max)  # no birth out of the top bin
        # edge n-1 <-> n carries rate n
        self.evals, self.vecs = eigh_tridiagonal(diag, n[1:])
        # rows: n_bar and top-bin population of the state V w
        self.readout = np.vstack([n @ self.vecs, self.vecs[-1]])

    def weights(self, c: np.ndarray, n_dot_t: float) -> np.ndarray:
        return np.exp(self.evals * n_dot_t) * c

    def form(self, w: np.ndarray) -> np.ndarray:
        return _clip_roundoff(self.vecs @ w, "heating propagation")

    def apply(self, p: np.ndarray, n_dot_t: float) -> np.ndarray:
        if n_dot_t == 0.0:
            return p
        return self.form(self.weights(self.vecs.T @ p, n_dot_t))


def heat_distribution(dist: FockDistribution, n_dot: float, dt: float) -> FockDistribution:
    """Evolve a Fock distribution under motional heating for dt seconds.

    Exact propagation of the truncated birth-death process; the mean grows by
    ndot * dt while the top bin stays empty.
    """
    if n_dot < 0 or dt < 0:
        raise ValueError("n_dot and dt must be >= 0")
    if n_dot == 0.0 or dt == 0.0:
        return dist
    prop = _HeatingPropagator(dist.n_max)
    return FockDistribution(prop.apply(np.array(dist.populations), n_dot * dt),
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
    repump resets spin implicitly and applies recoil if configured.  Heating
    between transfers is deferred and propagated once (see the module
    docstring).  Raises TruncationError if the top bin holds more than 1e-4
    after any schedule entry.
    """
    if n_max is None:
        n_max = max(schedule.n_start + 150, dist0.n_max)
    if n_max < max(schedule.n_start, dist0.n_max):
        raise ValueError("n_max must cover both n_start and the initial distribution")
    p = np.zeros(n_max + 1)
    p[: dist0.n_max + 1] = dist0.populations

    n_dot = heating.n_dot if heating is not None else 0.0
    prop = _HeatingPropagator(n_max) if n_dot > 0 else None
    rabi_1 = schedule.sideband_rabi_1_hz
    levels = np.arange(p.size)

    idx = [0]
    nbars = [float(levels @ p)]
    elapsed = [0.0]
    t = 0.0
    k = 0
    pending_transfer = 0.0
    # heating since p last changed: c = V^T p, accumulated n_dot * time s
    c, s = None, 0.0

    for pulse in schedule.pulses:
        if pulse.kind == SIDEBAND_KIND or repump.recoil_quanta > 0:
            if c is not None:
                p, c = prop.form(prop.weights(c, s)), None
            if pulse.kind == SIDEBAND_KIND:
                p, moved = _apply_transfer(p, rabi_1, pulse.duration_s)
                pending_transfer = float(moved.sum())
            else:
                p = _apply_recoil(p, pending_transfer, repump.recoil_quanta)
                pending_transfer = 0.0
        if prop is not None:
            if c is None:
                c, s = prop.vecs.T @ p, 0.0
            s += n_dot * pulse.duration_s
            nbar, top = prop.readout @ prop.weights(c, s)
        else:
            nbar, top = levels @ p, p[-1]
        t += pulse.duration_s
        if pulse.kind == SIDEBAND_KIND:
            k += 1
            idx.append(k)
            nbars.append(float(nbar))
            elapsed.append(t)
        else:
            # repump time counts toward the trajectory clock of the last row
            elapsed[-1] = t
        if top > TOP_BIN_TOL:
            raise TruncationError(
                f"top bin population {top:.3e} > {TOP_BIN_TOL:.0e} at pulse {k}")

    if c is not None:
        p = prop.form(prop.weights(c, s))
    final = FockDistribution(p / p.sum(), truncation_loss=dist0.truncation_loss)
    return CoolingResult(final, np.array(idx), np.array(nbars), np.array(elapsed))


def simulate_cooling_quantum(
    dist0: FockDistribution,
    schedule: PulseSchedule,
    heating: HeatingChannel | None = None,
    n_max: int = 40,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> CoolingResult:
    """Master-equation twin of simulate_cooling on the effective model.

    Each sideband pulse evolves the density matrix under the resonant
    red-sideband Hamiltonian; the repump is projective (spin reset to |0'>,
    motional populations kept) with heating applied over its duration.
    """
    space = two_level_space(n_max)
    # resonant red sideband with unit carrier scale: eta * omega = f1
    h = effective_two_level_hamiltonian(
        eta=1.0, omega_hz=schedule.sideband_rabi_1_hz, nu_z_hz=1.0,
        delta_hz=-1.0, space=space, sideband="red")
    collapse = ()
    n_dot = heating.n_dot if heating is not None else 0.0
    if n_dot > 0:
        collapse = tuple(heating_collapse_ops(heating, space))
    model = LindbladModel(h, collapse)
    prop = _HeatingPropagator(n_max) if n_dot > 0 else None

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
            state = evolve_lindblad(model, rho0, [pulse.duration_s], cfg)[-1]
            pops = _clip_roundoff(motional_populations(state), "master-equation pulse")
            t += pulse.duration_s
            k += 1
            idx.append(k)
            nbars.append(float(np.dot(np.arange(pops.size), pops)))
            elapsed.append(t)
        else:
            # projective repump; heating still runs on the motional register
            if prop is not None and pulse.duration_s > 0:
                pops = prop.apply(pops, n_dot * pulse.duration_s)
            t += pulse.duration_s
            elapsed[-1] = t

    final = FockDistribution(pops, truncation_loss=dist0.truncation_loss)
    return CoolingResult(final, np.array(idx), np.array(nbars), np.array(elapsed))
