"""Physical model of a single trapped ion whose spin-motion coupling comes from
a static magnetic-field gradient rather than photon recoil.

Level structure (spin basis order, spin-major product indexing):

    |0>    ground hyperfine singlet
    |-1>   F=1, m = -1
    |0'>   F=1, m =  0
    |+1>   F=1, m = +1

Two resonant microwave fields dress |0> with |+1> and |-1>.  The null dressed
state |D> = (|+1> - |-1>)/sqrt(2) together with |0'> forms the protected
two-level system an RF probe drives; the field gradient attaches the motional
sideband coupling.

Conventions used everywhere in this module:

* All `_hz` quantities are cyclic frequencies (Hz).  Hamiltonian matrices are
  in angular units (rad/s, hbar = 1).
* `delta_hz` is the probe detuning from the |0'> <-> |D> carrier; red and blue
  sidebands sit at delta = -nu_z and +nu_z.
* With `keep_carrier=False` (default) builders return the time-independent
  sideband interaction frame: the motional phase is absorbed, only the
  addressed sideband coupling is retained (rotating-wave approximation), and
  the diagonal carries the detuning from that sideband.  With
  `keep_carrier=True` the probe rotating frame is returned instead, retaining
  nu * a'a and the off-resonant carrier term for fidelity studies.
* The probe Rabi frequency `probe_rabi_hz` is the carrier Rabi frequency of
  the dressed |0'> <-> |D> transition itself; the bare |0'> <-> |+1> matrix
  element is sqrt(2) larger, so that projecting onto |D> reproduces the
  quoted carrier and sideband couplings with no residual factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .qcore import (
    FockBasis,
    Operator,
    ProductSpace,
    SpinBasis,
    embed_op,
    lowering_op,
)

__all__ = [
    "PhysicalConstants",
    "CODATA",
    "TrapParams",
    "SPIN_LABELS",
    "EFFECTIVE_LABELS",
    "four_level_space",
    "two_level_space",
    "ground_state_extent",
    "lamb_dicke_eff",
    "sideband_rabi",
    "build_dressed_rf_hamiltonian",
    "effective_two_level_hamiltonian",
]

SPIN_LABELS = ("0", "-1", "0'", "+1")
EFFECTIVE_LABELS = ("0'", "D")

Sideband = Literal["red", "blue"]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2022 values used in derived quantities (SI), as literals.

    hbar    1.054572e-34 J s (exact: h / 2 pi, h = 6.62607015e-34 J s)
    mu_b    9.274010e-24 J/T
    e       1.602177e-19 C (exact)
    amu     1.660539e-27 kg
    """

    hbar: float = 6.62607015e-34 / (2 * math.pi)
    mu_b: float = 9.2740100657e-24
    e: float = 1.602176634e-19
    amu: float = 1.66053906892e-27


CODATA = PhysicalConstants()


@dataclass(frozen=True)
class TrapParams:
    """Trap and gradient parameters.

    mass_amu        ion mass in atomic mass units (171 for Yb+)
    nu_z_hz         axial secular frequency, cyclic (Hz)
    gradient_t_m    magnetic-field gradient along z (T/m)

    The static offset field only sets lab-frame transition frequencies, which
    the rotating-frame Hamiltonians never see, so it is not a parameter.
    """

    mass_amu: float = 171.0
    nu_z_hz: float = 426.7e3
    gradient_t_m: float = 23.6

    def __post_init__(self) -> None:
        if self.mass_amu <= 0:
            raise ValueError("mass_amu must be > 0")
        if self.nu_z_hz <= 0:
            raise ValueError("nu_z_hz must be > 0")
        if self.gradient_t_m < 0:
            raise ValueError("gradient_t_m must be >= 0")

    @property
    def mass_kg(self) -> float:
        return self.mass_amu * CODATA.amu

    @property
    def omega_z(self) -> float:
        """Angular secular frequency (rad/s)."""
        return 2.0 * math.pi * self.nu_z_hz


def four_level_space(n_max: int) -> ProductSpace:
    return ProductSpace(SpinBasis(SPIN_LABELS), FockBasis(n_max))


def two_level_space(n_max: int) -> ProductSpace:
    return ProductSpace(SpinBasis(EFFECTIVE_LABELS), FockBasis(n_max))


# ---------------------------------------------------------------------------
# derived quantities


def ground_state_extent(tp: TrapParams, constants: PhysicalConstants = CODATA) -> float:
    """Ground-state wavepacket size z0 = sqrt(hbar / (2 m omega_z)) in metres."""
    return math.sqrt(constants.hbar / (2.0 * tp.mass_kg * tp.omega_z))


def lamb_dicke_eff(tp: TrapParams, constants: PhysicalConstants = CODATA) -> float:
    """Effective Lamb-Dicke parameter of the gradient coupling.

    eta_eff = z0 * mu_B * dB/dz / (hbar * omega_z); dimensionless.  Scales as
    gradient^1 and nu_z^(-3/2).
    """
    z0 = ground_state_extent(tp, constants)
    return z0 * constants.mu_b * tp.gradient_t_m / (constants.hbar * tp.omega_z)


def sideband_rabi(n: int, sideband: Sideband, eta: float, omega_hz: float) -> float:
    """Sideband Rabi frequency (Hz, cyclic).

    Red (n -> n-1):  eta * omega * sqrt(n), zero for n = 0.
    Blue (n -> n+1): eta * omega * sqrt(n + 1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if sideband == "red":
        return eta * omega_hz * math.sqrt(n)
    if sideband == "blue":
        return eta * omega_hz * math.sqrt(n + 1)
    raise ValueError(f"sideband must be 'red' or 'blue', got {sideband!r}")


# ---------------------------------------------------------------------------
# Hamiltonian builders


def _transition_matrix(spin: SpinBasis, upper: str, lower: str) -> np.ndarray:
    mat = np.zeros((spin.dim, spin.dim), dtype=complex)
    mat[spin.index(upper), spin.index(lower)] = 1.0
    return mat


def _sideband_frame(sideband: Sideband, delta: float, nu: float,
                    a: np.ndarray) -> tuple[float, np.ndarray]:
    """Detuning from the addressed sideband and its motional operator."""
    if sideband == "red":
        return delta + nu, a
    if sideband == "blue":
        return delta - nu, a.conj().T
    raise ValueError(f"sideband must be 'red' or 'blue', got {sideband!r}")


def build_dressed_rf_hamiltonian(
    tp: TrapParams,
    dressing_rabi_hz: float,
    probe_rabi_hz: float,
    detuning_hz: float,
    space: ProductSpace,
    sideband: Sideband = "red",
    keep_carrier: bool = False,
) -> Operator:
    """Four-level dressed model with the gradient sideband coupling.

    Returns a Hermitian operator (rad/s) on the spin-major product space.  Two
    resonant microwave fields of Rabi frequency dressing_rabi_hz couple |0>
    to |+1> and to |-1>.  The probe, detuned by detuning_hz from the carrier,
    addresses |0'> <-> |+1>; probe_rabi_hz is the dressed |0'> <-> |D>
    carrier Rabi, so the bare matrix element is sqrt(2) larger.  The
    |0'> <-> |-1> leg of the same tone is non-secular at every sideband
    (offset by the second-order splitting) and carries no static term in
    either frame; see module docstring.

    keep_carrier=False: sideband interaction frame.  Static terms are the
    detuning-from-sideband on |0'>, the dressing couplings, and the addressed
    sideband coupling.  keep_carrier=True: probe rotating frame with
    nu * a'a, the carrier coupling, and both motional sideband components.
    """
    if tuple(space.spin.labels) != SPIN_LABELS:
        raise ValueError(f"space must use spin labels {SPIN_LABELS}")
    if dressing_rabi_hz < 0 or probe_rabi_hz < 0:
        raise ValueError("Rabi frequencies must be >= 0")

    spin = space.spin
    fock = space.fock
    nu = tp.omega_z
    delta = 2.0 * math.pi * detuning_hz
    omega_bare = 2.0 * math.pi * probe_rabi_hz * math.sqrt(2.0)
    eta = lamb_dicke_eff(tp)

    a = lowering_op(fock).matrix
    adag = a.conj().T
    eye_f = np.eye(fock.dim, dtype=complex)
    big_delta, side_f = _sideband_frame(sideband, delta, nu, a)

    up_dress = _transition_matrix(spin, "+1", "0") + _transition_matrix(spin, "-1", "0")
    probe_up = _transition_matrix(spin, "+1", "0'")
    proj_0p = _transition_matrix(spin, "0'", "0'")

    # resonant dressing, static in both frames
    dress = (2.0 * math.pi * dressing_rabi_hz / 2.0) * up_dress
    h = embed_op(space, dress + dress.conj().T, eye_f)

    if keep_carrier:
        # probe rotating frame: motion kept explicitly
        h += embed_op(space, proj_0p, eye_f) * delta
        h += np.kron(np.eye(spin.dim, dtype=complex), nu * (adag @ a))
        probe_x = probe_up + probe_up.conj().T
        h += embed_op(space, probe_x, eye_f + eta * (a + adag)) * (omega_bare / 2.0)
        return Operator(space, h)

    # sideband interaction frame
    h += embed_op(space, proj_0p, eye_f) * big_delta
    h += embed_op(space, probe_up, side_f) * (eta * omega_bare / 2.0)
    h += embed_op(space, probe_up.conj().T, side_f.conj().T) * (eta * omega_bare / 2.0)
    return Operator(space, h)


def effective_two_level_hamiltonian(
    eta: float,
    omega_hz: float,
    nu_z_hz: float,
    delta_hz: float,
    space: ProductSpace,
    sideband: Sideband = "red",
    keep_carrier: bool = False,
) -> Operator:
    """Reduced |0'> <-> |D> model with carrier and gradient sideband coupling.

    omega_hz is the |0'> <-> |D> carrier Rabi frequency (Hz); the sideband
    coupling strength is eta * omega.  Frames follow the same convention as
    the four-level builder: with keep_carrier=False the addressed sideband is
    static and the diagonal carries the detuning from it; with
    keep_carrier=True the probe frame with nu * a'a and the carrier term is
    returned.
    """
    if tuple(space.spin.labels) != EFFECTIVE_LABELS:
        raise ValueError(f"space must use spin labels {EFFECTIVE_LABELS}")
    spin = space.spin
    fock = space.fock
    nu = 2.0 * math.pi * nu_z_hz
    delta = 2.0 * math.pi * delta_hz
    omega = 2.0 * math.pi * omega_hz

    a = lowering_op(fock).matrix
    adag = a.conj().T
    eye_f = np.eye(fock.dim, dtype=complex)
    big_delta, side_f = _sideband_frame(sideband, delta, nu, a)

    up = _transition_matrix(spin, "D", "0'")
    proj_0p = _transition_matrix(spin, "0'", "0'")

    h = np.zeros((space.dim, space.dim), dtype=complex)

    if keep_carrier:
        h += embed_op(space, proj_0p, eye_f) * delta
        h += np.kron(np.eye(spin.dim, dtype=complex), nu * (adag @ a))
        h += embed_op(space, up + up.conj().T, eye_f) * (omega / 2.0)
        h += embed_op(space, up + up.conj().T, a + adag) * (eta * omega / 2.0)
        return Operator(space, h)

    h += embed_op(space, proj_0p, eye_f) * big_delta
    h += embed_op(space, up, side_f) * (eta * omega / 2.0)
    h += embed_op(space, up.conj().T, side_f.conj().T) * (eta * omega / 2.0)
    return Operator(space, h)
