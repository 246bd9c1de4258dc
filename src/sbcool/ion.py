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
* `detuning_hz` is the probe detuning from the |0'> <-> |D> carrier; red and
  blue sidebands sit at -nu_z and +nu_z.
* Builders return the time-independent sideband interaction frame: the
  motional phase is absorbed, only the addressed sideband coupling is
  retained (rotating-wave approximation), and the diagonal carries the
  detuning from that sideband.
* The coupling `sideband_rabi_hz` is the n = 1 sideband Rabi frequency
  eta * Omega of the dressed |0'> <-> |D> transition; the bare
  |0'> <-> |+1> matrix element is sqrt(2) larger, so that projecting onto
  |D> reproduces it with no residual factors.
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
        for name in ("mass_amu", "nu_z_hz"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        if not 0.0 <= self.gradient_t_m < math.inf:
            raise ValueError(f"gradient_t_m must be finite and >= 0, got {self.gradient_t_m!r}")

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


def _sideband_frame(sideband: Sideband, detuning_hz: float, nu_z_hz: float,
                    fock: FockBasis) -> tuple[float, np.ndarray]:
    """Angular detuning from the addressed sideband and its motional operator."""
    delta, nu = 2.0 * math.pi * detuning_hz, 2.0 * math.pi * nu_z_hz
    a = lowering_op(fock).matrix
    if sideband == "red":
        return delta + nu, a
    if sideband == "blue":
        return delta - nu, a.conj().T
    raise ValueError(f"sideband must be 'red' or 'blue', got {sideband!r}")


def build_dressed_rf_hamiltonian(
    dressing_rabi_hz: float,
    sideband_rabi_hz: float,
    nu_z_hz: float,
    detuning_hz: float,
    space: ProductSpace,
    sideband: Sideband = "red",
) -> Operator:
    """Four-level dressed model with the gradient sideband coupling.

    Returns a Hermitian operator (rad/s) on the spin-major product space.  Two
    resonant microwave fields of Rabi frequency dressing_rabi_hz couple |0>
    to |+1> and to |-1>.  The probe, detuned by detuning_hz from the carrier,
    addresses |0'> <-> |+1>; sideband_rabi_hz is the dressed |0'> <-> |D>
    n = 1 sideband Rabi, so the bare matrix element is sqrt(2) larger.  The
    |0'> <-> |-1> leg of the same tone is non-secular at every sideband
    (offset by the second-order splitting) and carries no static term.

    Static terms: the detuning from the sideband on |0'>, the dressing
    couplings, and the addressed sideband coupling.
    """
    if tuple(space.spin.labels) != SPIN_LABELS:
        raise ValueError(f"space must use spin labels {SPIN_LABELS}")
    if dressing_rabi_hz < 0 or sideband_rabi_hz < 0:
        raise ValueError("Rabi frequencies must be >= 0")

    spin = space.spin
    fock = space.fock
    eye_f = np.eye(fock.dim, dtype=complex)
    big_delta, side_f = _sideband_frame(sideband, detuning_hz, nu_z_hz, fock)
    coupling = 2.0 * math.pi * sideband_rabi_hz * math.sqrt(2.0) / 2.0

    up_dress = _transition_matrix(spin, "+1", "0") + _transition_matrix(spin, "-1", "0")
    probe_up = _transition_matrix(spin, "+1", "0'")
    proj_0p = _transition_matrix(spin, "0'", "0'")

    dress = (2.0 * math.pi * dressing_rabi_hz / 2.0) * up_dress
    h = embed_op(space, dress + dress.conj().T, eye_f)
    h += embed_op(space, proj_0p, eye_f) * big_delta
    h += embed_op(space, probe_up, side_f) * coupling
    h += embed_op(space, probe_up.conj().T, side_f.conj().T) * coupling
    return Operator(space, h)


def effective_two_level_hamiltonian(
    sideband_rabi_hz: float,
    nu_z_hz: float,
    detuning_hz: float,
    space: ProductSpace,
    sideband: Sideband = "red",
) -> Operator:
    """Reduced |0'> <-> |D> model with the gradient sideband coupling.

    sideband_rabi_hz is the n = 1 sideband Rabi frequency eta * Omega (Hz).
    As in the four-level builder, the addressed sideband is static and the
    diagonal carries the detuning from it.
    """
    if tuple(space.spin.labels) != EFFECTIVE_LABELS:
        raise ValueError(f"space must use spin labels {EFFECTIVE_LABELS}")
    spin = space.spin
    eye_f = np.eye(space.fock.dim, dtype=complex)
    big_delta, side_f = _sideband_frame(sideband, detuning_hz, nu_z_hz, space.fock)
    coupling = 2.0 * math.pi * sideband_rabi_hz / 2.0

    up = _transition_matrix(spin, "D", "0'")
    proj_0p = _transition_matrix(spin, "0'", "0'")

    h = embed_op(space, proj_0p, eye_f) * big_delta
    h += embed_op(space, up, side_f) * coupling
    h += embed_op(space, up.conj().T, side_f.conj().T) * coupling
    return Operator(space, h)
