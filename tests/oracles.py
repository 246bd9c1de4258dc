"""Test oracles: independent or closed-form references that no command runs.

evolve_unitary is a dense-eigh check on the block-wise exact path of
evolve_lindblad; sideband_probability and sideband_scan_probability read
the closed-form line shape of a thermal (or explicit) Fock mixture;
thermal_density lifts a thermal distribution into one spin level;
op_add, op_sub and op_matmul combine two operators on the same space; and
heat_term_by_term is the rate map's heating series one tridiagonal product
per Poisson term, the reference for cooling._heat's banded blocks.
"""

from __future__ import annotations

import math
from typing import Literal, Sequence

import numpy as np

from sbcool.cooling import POISSON_TAIL, SPLIT_LS

from sbcool.qcore import (
    DensityMatrix,
    FockDistribution,
    Operator,
    ProductSpace,
    distribution_density,
    thermal_distribution,
)
from sbcool.thermometry import _auto_n_max, _line_shape


def _same_space(a: Operator, b: Operator):
    if a.space != b.space:
        raise ValueError("operator spaces differ")
    return a.space


def op_add(a: Operator, b: Operator) -> Operator:
    return Operator(_same_space(a, b), a.matrix + b.matrix)


def op_sub(a: Operator, b: Operator) -> Operator:
    return Operator(_same_space(a, b), a.matrix - b.matrix)


def op_matmul(a: Operator, b: Operator) -> Operator:
    return Operator(_same_space(a, b), a.matrix @ b.matrix)


def evolve_unitary(hamiltonian: Operator, rho0: DensityMatrix,
                   times: Sequence[float]) -> list[DensityMatrix]:
    """Closed-system evolution by one dense eigendecomposition of H.

    Oracle for the block-wise exact path that evolve_lindblad takes with no
    collapse operators; exact up to the eigensolver.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or np.any(t < 0):
        raise ValueError("times must be >= 0")
    evals, vecs = np.linalg.eigh(hamiltonian.matrix)
    rho_eig = vecs.conj().T @ rho0.matrix @ vecs
    out = []
    for ti in t:
        phase = np.exp(-1j * evals * ti)
        rho_t = (phase[:, None] * rho_eig) * phase.conj()[None, :]
        out.append(DensityMatrix(hamiltonian.space, vecs @ rho_t @ vecs.conj().T,
                                 herm_tol=1e-10, trace_tol=1e-9, psd_tol=1e-7))
    return out


def thermal_density(n_bar: float, space: ProductSpace, spin_label: str = "0'") -> DensityMatrix:
    """Diagonal state |spin_label><spin_label| (x) thermal(n_bar)."""
    dist = thermal_distribution(n_bar, space.fock.n_max)
    return distribution_density(dist, space, spin_label)


def _populations(state: float | FockDistribution, n_max: int | None) -> np.ndarray:
    if isinstance(state, FockDistribution):
        return np.asarray(state.populations)
    n_bar = float(state)
    if n_max is None:
        n_max = _auto_n_max(n_bar)
    return np.asarray(thermal_distribution(n_bar, n_max).populations)


def sideband_probability(
    t: float | np.ndarray,
    sideband: Literal["red", "blue"],
    state: float | FockDistribution,
    eta_omega_hz: float,
    n_max: int | None = None,
) -> np.ndarray:
    """Resonant sideband transfer of a thermal (or explicit) Fock mixture.

    P(t) = sum_n p_n sin^2(pi f1 sqrt(n or n+1) t) with f1 = eta_omega_hz.
    Vectorised over t; returns an array matching t's shape.
    """
    p = _populations(state, n_max)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = _line_shape(np.zeros(1), t_arr, sideband, eta_omega_hz, 0.0, p.size - 1) @ p
    return out if np.ndim(t) else float(out[0])


def sideband_scan_probability(
    detuning_hz: np.ndarray,
    sideband: Literal["red", "blue"],
    state: float | FockDistribution,
    eta_omega_hz: float,
    nu_z_hz: float,
    t_probe_s: float,
    n_max: int | None = None,
) -> np.ndarray:
    """Detuned generalisation of sideband_probability: the per-level detuned
    Rabi line shape summed over the population.

    detuning_hz is relative to the carrier; the addressed sideband resonance
    sits at -nu_z (red) or +nu_z (blue).  Equivalent to the master-equation
    scan of the effective model under the sideband rotating-wave approximation
    (no heating); tested against it.
    """
    p = _populations(state, n_max)
    return _line_shape(detuning_hz, np.array([t_probe_s]), sideband, eta_omega_hz,
                       nu_z_hz, p.size - 1) @ p


def last_term(lam_s: float) -> int:
    """Index of the last Poisson(lam_s) term a heating series keeps.  Past
    k + 1 > lam_s the weights w_k fall at least geometrically, by lam_s / (k + 1),
    so w_k lam_s / (k + 1 - lam_s) bounds the weight of all later terms."""
    k, w = 0, math.exp(-lam_s)
    while k + 1 <= lam_s or w * lam_s > POISSON_TAIL * (k + 1 - lam_s):
        k += 1
        w *= lam_s / k
    return k


def heat_term_by_term(p: np.ndarray, s: Sequence[float]) -> np.ndarray:
    """exp(s_j Q) p for the non-decreasing s, as cooling._heat, with every
    Poisson term P^k p one tridiagonal product and the rows one matmul of
    the weights with the terms."""
    s = np.asarray(s, dtype=float)
    lam = 2.0 * p.size - 1.0
    n = np.arange(p.size, dtype=float)
    stay = 1.0 - (2.0 * n + 1.0) / lam
    stay[-1] = 1.0 - n[-1] / lam
    hop = n[1:] / lam

    def series(p, lam_s):
        terms = np.empty((last_term(lam_s[-1]) + 1, p.size))
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
    while s[-1] > step:
        cut = int(np.searchsorted(s, step, side="right"))
        block = series(p, lam * np.append(s[:cut], step))
        rows.append(block[:-1])
        p, s = block[-1], s[cut:] - step
    rows.append(series(p, lam * s))
    return np.concatenate(rows)
