"""Motional thermometry: analytic sideband transfer sums, sideband-ratio
inversion, least-squares temperature and heating-rate fits, and the derived
noise-density / Doppler-limit quantities.

Fit recipe (documented contract): one-dimensional least squares over
n_bar >= 0 by coarse-grid bracketing plus golden-section refinement to 1e-6
relative tolerance; std_error comes from the curvature of the residual sum at
the minimum, scaled by the residual variance (so exact synthetic data reports
~0 uncertainty).  Shot noise enters only through the data; the forward models
are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .dynamics import ScanResponse, SidebandProbe, _closed_response, fock_cutoff_for_dynamics
from .errors import FitError
from .ion import CODATA
from .qcore import FockDistribution, thermal_distribution

__all__ = [
    "FitResult",
    "sideband_probability",
    "sideband_scan_probability",
    "ratio_to_nbar",
    "fit_nbar_spectra",
    "fit_nbar_flop",
    "fit_heating_rate",
    "noise_density",
    "doppler_limit",
]

GOLDEN_REL_TOL = 1e-6


@dataclass(frozen=True)
class FitResult:
    """Point estimate with curvature-based uncertainty.

    value          best-fit parameter
    std_error      sqrt(2 s^2 / RSS''), s^2 the residual variance; 0 for exact data
    residual_norm  sqrt of the residual sum of squares at the minimum
    n_evaluations  forward-model evaluations consumed
    """

    value: float
    std_error: float
    residual_norm: float
    n_evaluations: int


def _auto_n_max(n_bar: float) -> int:
    """20 (n_bar + 1) levels; the thermal tail beyond them is below e^-20."""
    return int(math.ceil(20.0 * (n_bar + 1.0)))


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


def _line_shape(
    detuning_hz: np.ndarray,
    times_s: np.ndarray,
    sideband: Literal["red", "blue"],
    eta_omega_hz: float,
    nu_z_hz: float,
    n_max: int,
) -> np.ndarray:
    """Detuned Rabi transfer L[i * len(times) + j, n] of |0', n> at detuning i
    and time j, rows ordered as in the closed engine's ScanResponse."""
    n = np.arange(n_max + 1)
    delta = np.asarray(detuning_hz, dtype=float)
    if sideband == "red":
        root, big_delta = np.sqrt(n), delta + nu_z_hz
    elif sideband == "blue":
        root, big_delta = np.sqrt(n + 1), delta - nu_z_hz
    else:
        raise ValueError("sideband must be 'red' or 'blue'")
    # angular coupling Omega_n = 2 pi f1 root_n; generalised flop at detuning
    f_n2 = (eta_omega_hz * root) ** 2  # cyclic coupling per level, squared
    w2 = f_n2[None, :] + big_delta[:, None] ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        weight = np.where(w2 > 0, f_n2[None, :] / np.where(w2 > 0, w2, 1.0), 0.0)
    amp = np.sin(np.pi * np.sqrt(w2)[:, None, :] * np.asarray(times_s)[None, :, None]) ** 2
    return (weight[:, None, :] * amp).reshape(-1, n_max + 1)


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


def _analytic_response(
    detuning_hz: np.ndarray,
    times_s: np.ndarray,
    sideband: Literal["red", "blue"],
    eta_omega_hz: float,
    nu_z_hz: float,
    n_max: int,
) -> ScanResponse:
    """The closed-form line shape as a ScanResponse.

    Each |0', n> exchanges population with |D, n - 1> (red) or |D, n + 1>
    (blue) only, so level n_max keeps 1 - L of |0', n_max> and, on the blue
    sideband, receives L of |0', n_max - 1>.
    """
    line = _line_shape(detuning_hz, times_s, sideband, eta_omega_hz, nu_z_hz, n_max)
    top = np.zeros_like(line)
    top[:, n_max] = 1.0 - line[:, n_max]
    if sideband == "blue":
        top[:, n_max - 1] = line[:, n_max - 1]
    return ScanResponse(line, top)


def ratio_to_nbar(ratio: float) -> float:
    """Invert the thermal sideband ratio r = P(red) / P(blue) = n_bar / (n_bar + 1);
    rejects r outside [0, 1) (r >= 1 is unphysical for a thermal state)."""
    r = float(ratio)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"ratio must be in [0, 1), got {r}")
    return r / (1.0 - r)


# ---------------------------------------------------------------------------
# 1-D least squares machinery


def _golden_refine(f: Callable[[float], float], lo: float, hi: float,
                   rel_tol: float = GOLDEN_REL_TOL) -> tuple[float, int]:
    """Golden-section minimum of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    n_eval = 2
    scale = max(abs(lo), abs(hi), 1e-12)
    while (b - a) > rel_tol * scale:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        n_eval += 1
        if n_eval > 500:
            raise FitError(f"golden section failed to converge on [{lo}, {hi}]")
    x = (a + b) / 2.0
    return x, n_eval


def _bracket_and_refine(f: Callable[[float], float], grid: np.ndarray) -> tuple[float, float, int]:
    """Coarse scan then golden refinement around the best grid point."""
    vals = [f(x) for x in grid]
    n_eval = len(vals)
    i = int(np.argmin(vals))
    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    if lo == hi:
        return float(grid[i]), float(vals[i]), n_eval
    x, extra = _golden_refine(f, float(lo), float(hi))
    return x, f(x), n_eval + extra + 1


def _curvature_std(f: Callable[[float], float], x: float, rss: float,
                   n_points: int) -> float:
    """Gauss-Newton style uncertainty from the RSS curvature at the minimum,
    in three evaluations of f.

    Second difference with (possibly) unequal steps when the lower point is
    clamped at the n_bar >= 0 boundary.  A curvature that is not > 0 (a
    residual flat in n_bar, as from one flop point at t = 0) raises FitError.
    """
    h = max(abs(x), 1e-3) * 1e-3
    lo = max(x - h, 0.0)
    hi = x + h
    h1 = x - lo
    h2 = hi - x
    f_lo, f_x, f_hi = f(lo), f(x), f(hi)
    if h1 == 0.0:
        d2 = 2.0 * (f_hi - f_x) / h2 ** 2  # one-sided, boundary minimum
    else:
        d2 = 2.0 * (h1 * f_hi + h2 * f_lo - (h1 + h2) * f_x) / (h1 * h2 * (h1 + h2))
    if not d2 > 0:
        raise FitError("residual is flat at the minimum; the data do not constrain n_bar")
    s2 = rss / max(n_points - 1, 1)
    return math.sqrt(max(2.0 * s2 / d2, 0.0))


def _fit_thermal(pairs: Sequence[tuple[ScanResponse, np.ndarray]], grid: np.ndarray,
                 n_max: int) -> FitResult:
    """Thermal n_bar >= 0 minimising the summed squared residuals of every
    (response, data) pair; a thermal state on levels 0..n_max is read out by
    each response, which raises TruncationError past TOP_LEVEL_TOL."""
    def rss(n_bar: float) -> float:
        p = thermal_distribution(n_bar, n_max).populations
        return float(sum(np.sum((response.p_f1(p) - data) ** 2) for response, data in pairs))

    x, rss_min, n_eval = _bracket_and_refine(rss, grid)
    x = max(x, 0.0)
    std = _curvature_std(rss, x, rss_min, sum(data.size for _, data in pairs))
    return FitResult(value=x, std_error=std, residual_norm=math.sqrt(max(rss_min, 0.0)),
                     n_evaluations=n_eval + 3)


def _nbar_grid(hint: float) -> np.ndarray:
    """Coarse bracket grid: dense near zero, geometric growth past the hint."""
    top = max(4.0 * (hint + 0.05), 1.0)
    lin = np.linspace(0.0, min(top, 2.0), 21)
    if top <= 2.0:
        return lin
    geo = np.geomspace(2.0, top, 24)
    return np.unique(np.concatenate([lin, geo]))


# ---------------------------------------------------------------------------
# fitters


def fit_nbar_spectra(
    red,
    blue,
    nu_z_hz: float,
    eta_omega_hz: float,
    omega_dr_hz: float,
    t_probe_s: float,
    model: Literal["effective", "full_dressed"] = "effective",
    forward: Literal["analytic", "integrate"] = "analytic",
) -> FitResult:
    """Single-parameter thermal fit to a red/blue scan pair.

    Minimises the summed squared residuals of both spectra over n_bar >= 0;
    eta_omega_hz is the probe's n = 1 sideband Rabi frequency.  Each
    spectrum is linear in the initial Fock populations, so its forward model
    is a ScanResponse built once per fit, at the Fock cutoff of the bracket
    grid's top; a residual evaluation is then two matrix-vector
    products, and raises TruncationError when the thermal state leaves more
    than TOP_LEVEL_TOL in the top Fock level.  forward="analytic" builds it from
    the closed-form detuned line shape (equivalent to the effective
    master-equation scan and fast enough for Monte-Carlo studies);
    forward="integrate", or model="full_dressed", builds it with the exact
    closed-system propagator of the probe Hamiltonian.  omega_dr_hz only
    enters the full_dressed forward.  Raises ValueError when t_probe_s <= 0
    or a spectrum is empty.
    """
    if not t_probe_s > 0:  # NaN included
        raise ValueError("t_probe_s must be > 0")
    red_x = np.asarray(red.x, dtype=float)
    blue_x = np.asarray(blue.x, dtype=float)
    red_p = np.asarray(red.p_f1, dtype=float)
    blue_p = np.asarray(blue.p_f1, dtype=float)
    if red_x.size == 0 or blue_x.size == 0:
        raise ValueError("red and blue spectra must be non-empty")

    # moment hint from the peak ratio when resolvable
    hint = 0.5
    try:
        r = float(red_p.max()) / float(blue_p.max())
        if 0.0 <= r < 0.99:
            hint = max(ratio_to_nbar(min(r, 0.98)), 0.05)
    except (ZeroDivisionError, ValueError):
        pass
    grid = _nbar_grid(hint)
    n_bar_top = float(grid[-1])
    t_probe = np.array([float(t_probe_s)])

    if forward == "analytic" and model == "effective":
        n_max = _auto_n_max(n_bar_top)

        def response(x: np.ndarray, sideband: str) -> ScanResponse:
            return _analytic_response(x, t_probe, sideband, eta_omega_hz, nu_z_hz, n_max)
    else:
        n_max = fock_cutoff_for_dynamics(n_bar_top, 0.0, t_probe_s)

        def response(x: np.ndarray, sideband: str) -> ScanResponse:
            probe = SidebandProbe(eta_omega_hz, nu_z_hz, omega_dr_hz, sideband, model)
            return _closed_response(probe, x, t_probe, n_max)
    return _fit_thermal([(response(red_x, "red"), red_p), (response(blue_x, "blue"), blue_p)],
                        grid, n_max)


def fit_nbar_flop(flop, eta_omega_hz: float) -> FitResult:
    """Thermal fit of a resonant red-sideband flop time series.

    The forward model is the analytic transfer sum, built once as a
    ScanResponse over the flop's times at the Fock cutoff of the bracket
    grid's top.  It is insensitive near n_bar = 0 on the red sideband of a
    pure ground state, so the fitter is normally fed hot-state data (e.g.
    before cooling).
    """
    t = np.asarray(flop.x, dtype=float)
    p = np.asarray(flop.p_f1, dtype=float)
    # crude scale hint: early-time transfer of a hot state ~ 1 - p0 = q
    hint = 1.0
    peak = float(p.max()) if p.size else 0.0
    if 0.0 < peak < 0.999:
        hint = max(ratio_to_nbar(min(peak, 0.99)), 0.1)
    grid = _nbar_grid(hint)
    n_max = _auto_n_max(float(grid[-1]))
    response = _analytic_response(np.zeros(1), t, "red", eta_omega_hz, 0.0, n_max)
    return _fit_thermal([(response, p)], grid, n_max)


def fit_heating_rate(
    delays_s: Sequence[float],
    nbars: Sequence[float],
    errors: Sequence[float] | None = None,
) -> FitResult:
    """Weighted linear regression of n_bar versus delay; slope is ndot (1/s).

    With per-point errors the weights are 1/err^2 and std_error comes from the
    weighted normal equations; without, uniform weights and the residual
    variance set the scale.  The slope is invariant under adding a constant to
    every n_bar.
    """
    t = np.asarray(delays_s, dtype=float)
    y = np.asarray(nbars, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("need matching 1-D arrays of delays and n_bar")
    if np.unique(t).size < 2:
        raise ValueError(f"need at least two distinct delays, got {t.tolist()}")
    if errors is not None:
        err = np.asarray(errors, dtype=float)
        if err.shape != t.shape or np.any(err <= 0):
            raise ValueError("errors must match delays and be > 0")
        w = 1.0 / err ** 2
    else:
        w = np.ones_like(t)

    sw = w.sum()
    swt = np.dot(w, t)
    swt2 = np.dot(w, t * t)
    swy = np.dot(w, y)
    swty = np.dot(w, t * y)
    det = sw * swt2 - swt ** 2
    if det <= 0:
        raise FitError("degenerate delay design: the delays are too close to fit a slope")
    slope = (sw * swty - swt * swy) / det
    intercept = (swt2 * swy - swt * swty) / det
    resid = y - (intercept + slope * t)
    rss = float(np.dot(w, resid ** 2))

    var_slope = sw / det
    if errors is None:
        dof = max(t.size - 2, 1)
        var_slope *= rss / dof
    return FitResult(value=float(slope), std_error=math.sqrt(max(var_slope, 0.0)),
                     residual_norm=math.sqrt(max(rss, 0.0)), n_evaluations=1)


# ---------------------------------------------------------------------------
# derived environmental quantities


def noise_density(n_dot: float, nu_z_hz: float, mass_amu: float) -> float:
    """Electric-field noise density nu S_E(nu) = 4 ndot hbar m omega^2 / e^2
    implied by a heating rate, in V^2 m^-2 (omega the angular trap frequency)."""
    if n_dot < 0 or nu_z_hz <= 0 or mass_amu <= 0:
        raise ValueError("n_dot >= 0 and positive nu_z, mass required")
    omega = 2.0 * math.pi * nu_z_hz
    mass = mass_amu * CODATA.amu
    return 4.0 * n_dot * CODATA.hbar * mass * omega ** 2 / CODATA.e ** 2


def doppler_limit(linewidth_hz: float, nu_z_hz: float) -> float:
    """Doppler-cooling limit n_bar = Gamma / (2 omega_z) - 1/2 (clamped at 0),
    with Gamma the angular natural linewidth of the cooling transition."""
    if linewidth_hz <= 0 or nu_z_hz <= 0:
        raise ValueError("linewidth and trap frequency must be > 0")
    return max(linewidth_hz / (2.0 * nu_z_hz) - 0.5, 0.0)
