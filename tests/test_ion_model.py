"""Trap and level-structure tests.

Oracles: z0 = sqrt(hbar/(2 m omega)) and eta = z0 mu_B dB/dz / (hbar omega)
evaluated from CODATA constants outside the package and frozen below.
"""

import math

import numpy as np
import pytest
import scipy.constants as sc

from sbcool import (
    PhysicalConstants,
    TrapParams,
    build_dressed_rf_hamiltonian,
    effective_two_level_hamiltonian,
    four_level_space,
    ground_state_extent,
    lamb_dicke_eff,
    sideband_rabi,
    two_level_space,
)

Z0_FROZEN = 8.322412214e-09
ETA_FROZEN = 6.442436053e-03


def default_trap() -> TrapParams:
    return TrapParams()


def test_physical_constants_are_the_installed_codata_values():
    # literals, so that importing the package loads no scipy module
    codata = PhysicalConstants()
    assert codata.hbar == sc.hbar
    assert codata.mu_b == sc.physical_constants["Bohr magneton"][0]
    assert codata.e == sc.elementary_charge
    assert codata.amu == sc.physical_constants["atomic mass constant"][0]


def test_ground_state_extent_frozen():
    assert ground_state_extent(default_trap()) == pytest.approx(Z0_FROZEN, rel=1e-9)


def test_lamb_dicke_frozen():
    assert lamb_dicke_eff(default_trap()) == pytest.approx(ETA_FROZEN, rel=1e-9)


def test_lamb_dicke_scalings():
    tp = default_trap()
    eta = lamb_dicke_eff(tp)
    # doubling the gradient doubles eta
    tp2 = TrapParams(gradient_t_m=2 * tp.gradient_t_m)
    assert lamb_dicke_eff(tp2) == pytest.approx(2 * eta, rel=1e-12)
    # eta ~ omega^(-3/2)
    tp3 = TrapParams(nu_z_hz=4 * tp.nu_z_hz)
    assert lamb_dicke_eff(tp3) == pytest.approx(eta / 8.0, rel=1e-12)


def test_sideband_rabi_ladder():
    eta, omega = 0.0064424, 61.2e3
    assert sideband_rabi(0, "red", eta, omega) == 0.0
    assert sideband_rabi(1, "red", eta, omega) == pytest.approx(eta * omega)
    assert sideband_rabi(4, "red", eta, omega) == pytest.approx(2 * eta * omega)
    assert sideband_rabi(0, "blue", eta, omega) == pytest.approx(eta * omega)
    assert sideband_rabi(3, "blue", eta, omega) == pytest.approx(2 * eta * omega)
    with pytest.raises(ValueError):
        sideband_rabi(-1, "red", eta, omega)
    with pytest.raises(ValueError):
        sideband_rabi(1, "green", eta, omega)


def _fields(detuning_hz=0.0):
    """Dressing Rabi, probe carrier Rabi and probe detuning (Hz)."""
    return 32e3, 61.2e3, detuning_hz


def test_four_level_hamiltonian_hermitian_and_coupling():
    space = four_level_space(4)
    h = build_dressed_rf_hamiltonian(default_trap(), *_fields(), space, sideband="red")
    assert h.is_hermitian(tol=1e-9)
    m = h.matrix
    i_up = space.index("+1", 0)
    i_lo = space.index("0'", 1)
    # quoted probe Rabi is the dressed carrier value; bare element is
    # sqrt(2) larger, sideband element carries eta sqrt(n)
    assert abs(m[i_up, i_lo]) == pytest.approx(1751.72694, rel=1e-6)
    i_up2 = space.index("+1", 1)
    i_lo2 = space.index("0'", 2)
    assert abs(m[i_up2, i_lo2]) == pytest.approx(1751.72694 * math.sqrt(2), rel=1e-6)
    # dressing block eigenvalues: 0 (twice incl. 0') and +-Omega_dr/sqrt(2)
    dress_block = build_dressed_rf_hamiltonian(
        default_trap(), 32e3, 0.0, -426.7e3, four_level_space(1), sideband="red")
    eigs = np.linalg.eigvalsh(dress_block.matrix)
    assert eigs.max() == pytest.approx(142172.254, rel=1e-6)
    assert eigs.min() == pytest.approx(-142172.254, rel=1e-6)


def test_keep_carrier_frame_contains_trap_term():
    space = four_level_space(3)
    h = build_dressed_rf_hamiltonian(default_trap(), *_fields(), space, keep_carrier=True)
    assert h.is_hermitian(tol=1e-9)
    m = h.matrix
    # motional ladder on a spectator spin level
    i2 = space.index("-1", 2)
    i1 = space.index("-1", 1)
    nu = 2 * math.pi * 426.7e3
    assert m[i2, i2].real - m[i1, i1].real == pytest.approx(nu, rel=1e-12)
    # bare carrier coupling Omega sqrt(2)/2
    assert abs(m[space.index("+1", 0), space.index("0'", 0)]) == pytest.approx(
        271904.4358, rel=1e-6)
    # the sideband is checked in both frames, so keep_carrier does not skip it
    with pytest.raises(ValueError, match="sideband"):
        build_dressed_rf_hamiltonian(default_trap(), *_fields(), space,
                                     sideband="green", keep_carrier=True)
    with pytest.raises(ValueError, match="sideband"):
        effective_two_level_hamiltonian(ETA_FROZEN, 61.2e3, 426.7e3, 0.0, two_level_space(3),
                                        sideband="green", keep_carrier=True)


def test_effective_hamiltonian_detuning_sign():
    space = two_level_space(3)
    # on resonance: delta = -nu for red leaves no static 0' energy
    h_res = effective_two_level_hamiltonian(ETA_FROZEN, 61.2e3, 426.7e3,
                                            -426.7e3, space, sideband="red")
    i = space.index("0'", 1)
    assert h_res.matrix[i, i] == pytest.approx(0.0, abs=1e-6)
    h_off = effective_two_level_hamiltonian(ETA_FROZEN, 61.2e3, 426.7e3,
                                            -426.7e3 + 100.0, space, sideband="red")
    assert h_off.matrix[i, i].real == pytest.approx(2 * math.pi * 100.0, rel=1e-9)


def test_trap_params_validation():
    with pytest.raises(ValueError):
        TrapParams(nu_z_hz=-1.0)
    with pytest.raises(ValueError):
        TrapParams(mass_amu=0.0)
    with pytest.raises(ValueError):
        TrapParams(gradient_t_m=-0.1)


def test_dressed_builder_rejects_negative_rabi():
    space = four_level_space(2)
    with pytest.raises(ValueError, match="Rabi"):
        build_dressed_rf_hamiltonian(default_trap(), -32e3, 61.2e3, 0.0, space)
    with pytest.raises(ValueError, match="Rabi"):
        build_dressed_rf_hamiltonian(default_trap(), 32e3, -1e3, 0.0, space)
