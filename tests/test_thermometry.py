"""Lineshape and fitting tests.

Frozen oracles below were evaluated from the closed-form thermal lineshape
(geometric weights, Rabi terms sin^2(pi sqrt(f_n^2 + delta^2) t) with weight
f_n^2/(f_n^2 + delta^2)) independently of the package code.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from sbcool import (
    ExperimentConfig,
    FitError,
    ScanResult,
    TruncationError,
    doppler_limit,
    fit_heating_rate,
    fit_nbar_flop,
    fit_nbar_spectra,
    noise_density,
    ratio_to_nbar,
    simulate_scan,
    thermal_distribution,
)
from sbcool.dynamics import ScanResponse
from sbcool.thermometry import _auto_n_max

from oracles import sideband_probability, sideband_scan_probability

F1 = 394.2770864367975
NU = 426.7e3
T_PROBE = 1.27e-3


def test_sideband_probability_frozen_thermal_values():
    # thermal nbar=1, t=0.8 ms, n_max=40
    red = sideband_probability(0.8e-3, "red", thermal_distribution(1.0, 40), F1)
    blue = sideband_probability(0.8e-3, "blue", thermal_distribution(1.0, 40), F1)
    assert red == pytest.approx(0.3984283699, rel=1e-9)
    assert blue == pytest.approx(0.7968567399, rel=1e-9)
    # the pair encodes the ratio identity r = q = 1/2
    assert red / blue == pytest.approx(0.5, rel=1e-9)


def test_sideband_probability_vacuum_limits():
    t = np.linspace(0.0, 3e-3, 11)
    assert np.max(np.abs(sideband_probability(t, "red", 0.0, F1))) == 0.0
    blue = sideband_probability(t, "blue", 0.0, F1)
    assert np.allclose(blue, np.sin(np.pi * F1 * t) ** 2, atol=1e-12)


def test_scan_probability_frozen_detuned_value():
    val = sideband_scan_probability(np.array([-NU + 300.0]), "red",
                                    thermal_distribution(0.13, 30), F1, NU, 0.8e-3)
    assert val[0] == pytest.approx(0.0680951450, rel=1e-8)


def test_scan_probability_peaks_at_resonance():
    grid = np.linspace(-NU - 2000.0, -NU + 2000.0, 81)
    vals = sideband_scan_probability(grid, "red", 0.5, F1, NU, T_PROBE)
    assert abs(grid[np.argmax(vals)] + NU) <= 50.0 + 1e-9


def test_ratio_round_trip():
    for nbar in (0.05, 0.13, 2.0):
        r = nbar / (nbar + 1.0)
        assert ratio_to_nbar(r) == pytest.approx(nbar, rel=1e-12)
    for r in (1.0, -0.1):
        with pytest.raises(ValueError):
            ratio_to_nbar(r)


def _analytic_scan_pair(nbar: float, points: int = 41, span: float = 4000.0):
    grid_r = np.linspace(-NU - span / 2, -NU + span / 2, points)
    grid_b = np.linspace(NU - span / 2, NU + span / 2, points)
    red = ScanResult(grid_r, sideband_scan_probability(grid_r, "red", nbar, F1,
                                                       NU, T_PROBE))
    blue = ScanResult(grid_b, sideband_scan_probability(grid_b, "blue", nbar, F1,
                                                        NU, T_PROBE))
    return red, blue


def test_fit_nbar_spectra_round_trips():
    for nbar in (0.05, 0.13, 2.0):
        red, blue = _analytic_scan_pair(nbar)
        fit = fit_nbar_spectra(red, blue, NU, F1, 32e3, T_PROBE)
        assert fit.value == pytest.approx(nbar, abs=2e-4)
        assert fit.n_evaluations > 0
        assert fit.std_error >= 0.0
    # frozen values of both forwards; a change to the fit's arithmetic must keep them
    red, blue = _analytic_scan_pair(0.13)
    for forward, value, std_error in [("analytic", 0.1300000327340849, 3.6371207134666614e-09),
                                      ("integrate", 0.1300000327340849, 3.6371207023866967e-09)]:
        fit = fit_nbar_spectra(red, blue, NU, F1, 32e3, T_PROBE, forward=forward)
        assert fit.value == pytest.approx(value, rel=1e-12)
        assert fit.std_error == pytest.approx(std_error, rel=1e-12)
        assert fit.n_evaluations == 55
        for t_probe in (0.0, np.nan):
            with pytest.raises(ValueError, match="t_probe_s must be > 0"):
                fit_nbar_spectra(red, blue, NU, F1, 32e3, t_probe, forward=forward)
        empty = SimpleNamespace(x=np.array([]), p_f1=np.array([]))
        with pytest.raises(ValueError, match="non-empty"):
            fit_nbar_spectra(empty, empty, NU, F1, 32e3, T_PROBE, forward=forward)


def test_fit_nbar_spectra_full_dressed_forward():
    # noiseless full_dressed scans of the reference configuration at n_bar 0.13
    cfg = ExperimentConfig()
    scans = []
    for sideband in ("red", "blue"):
        probe = cfg.probe(sideband, model="full_dressed")
        grid = probe.resonance_hz() + np.linspace(-2000.0, 2000.0, 21)
        scans.append(simulate_scan(probe, grid, cfg.probe_time_s, 0.13))
    args = (cfg.nu_z_hz, cfg.sideband_rabi_1_hz(), cfg.dressing_rabi_hz, cfg.probe_time_s)
    full = fit_nbar_spectra(*scans, *args, model="full_dressed")
    effective = fit_nbar_spectra(*scans, *args)
    assert full.value == pytest.approx(0.13, abs=1e-6)
    # the effective forward misses the dressed model's shifts
    assert full.residual_norm < effective.residual_norm


def test_fit_nbar_spectra_vacuum_boundary():
    red, blue = _analytic_scan_pair(0.0)
    fit = fit_nbar_spectra(red, blue, NU, F1, 32e3, T_PROBE)
    assert fit.value == pytest.approx(0.0, abs=1e-4)
    assert np.isfinite(fit.std_error)


def test_fit_nbar_flop_round_trip():
    times = np.linspace(0.0, 6e-3, 121)
    # frozen value, std_error and evaluations of a fit whose thermal model is
    # cut at each n_bar's own level, as the curve is.  The fit cuts it at the
    # bracket top's level; on exact data std_error comes from a residual of
    # ~1e-7, so that tail difference moves it by 8.0e-6 (n_bar 1.2, tail
    # (1.2/2.2)^45) and 2.3e-11 (n_bar 0.3) relative.
    frozen = {0.3: (0.30000000876260163, 7.999123730270398e-10, 54, 1e-10),
              1.2: (1.1999996315985308, 3.3630274857903145e-08, 75, 1e-5)}
    for nbar, (value, std_error, n_evaluations, std_rel) in frozen.items():
        curve = sideband_probability(times, "red", nbar, F1)
        fit = fit_nbar_flop(ScanResult(times, curve), F1)
        assert fit.value == pytest.approx(nbar, abs=3e-3)
        assert fit.value == pytest.approx(value, rel=1e-12)
        assert fit.std_error == pytest.approx(std_error, rel=std_rel)
        assert fit.n_evaluations == n_evaluations


def test_fit_nbar_flop_guards_the_top_level(monkeypatch):
    times = np.linspace(0.0, 6e-3, 121)
    flop = ScanResult(times, sideband_probability(times, "red", 1.2, F1))
    # a cutoff of 3 levels leaves far more than 1e-6 of a hot state in the top one
    monkeypatch.setattr("sbcool.thermometry._auto_n_max", lambda n_bar: 3)
    with pytest.raises(TruncationError, match="top Fock level"):
        fit_nbar_flop(flop, F1)


def test_fit_nbar_spectra_rejects_a_flat_residual(monkeypatch):
    # a forward that reads P = 0 for every n_bar leaves the residual flat
    def flat(x, t, sideband, eta_omega, nu_z, n_max):
        return ScanResponse(np.zeros((x.size, n_max + 1)), np.zeros((x.size, n_max + 1)))

    monkeypatch.setattr("sbcool.thermometry._analytic_response", flat)
    red, blue = _analytic_scan_pair(0.13)
    with pytest.raises(FitError, match="do not constrain n_bar"):
        fit_nbar_spectra(red, blue, NU, F1, 32e3, T_PROBE)


def test_fit_heating_rate_exact_on_collinear_points():
    delays = [0.0, 5e-3, 10e-3]
    nbars = [0.1, 0.1 + 41.0 * 5e-3, 0.1 + 41.0 * 10e-3]
    fit = fit_heating_rate(delays, nbars)
    assert fit.value == pytest.approx(41.0, rel=1e-12)
    assert fit.residual_norm == pytest.approx(0.0, abs=1e-12)
    # zero slope case
    flat = fit_heating_rate(delays, [0.2, 0.2, 0.2])
    assert flat.value == pytest.approx(0.0, abs=1e-12)


def test_fit_heating_rate_weighted():
    delays = np.array([0.0, 2e-3, 4e-3, 8e-3])
    nbars = 0.05 + 37.0 * delays
    nbars[2] += 0.5  # outlier
    errs = np.array([1e-3, 1e-3, 1.0, 1e-3])  # outlier deweighted
    fit = fit_heating_rate(delays, nbars, errs)
    assert fit.value == pytest.approx(37.0, rel=1e-3)
    unweighted = fit_heating_rate(delays, nbars)
    assert abs(unweighted.value - 37.0) > 1.0


def test_fit_heating_rate_validation():
    with pytest.raises(ValueError):
        fit_heating_rate([1e-3], [0.1])
    with pytest.raises(ValueError, match=r"two distinct delays, got \[0.0, 0.0\]"):
        fit_heating_rate([0.0, 0.0], [0.1, 0.2])
    # distinct delays one ulp apart: their centred spread is below the floor
    with pytest.raises(FitError, match="degenerate delay design"):
        fit_heating_rate([0.005, np.nextafter(0.005, 1.0)], [0.1, 0.2])


@pytest.mark.parametrize("delays", [[1.0, 1.0000000000000002],
                                    [1000.0, 1000.0000000000001]])
def test_fit_heating_rate_rejects_delays_too_close_to_resolve(delays):
    # det rounds to a small positive value here, and the uncentred sums alone
    # give slope 0 with std_error 3.75e6 (at 1 s) or slope -2.4e-4 (at 1000 s)
    with pytest.raises(FitError, match="too close to fit a slope"):
        fit_heating_rate(delays, [0.1, 0.2])


def test_noise_density_frozen():
    assert noise_density(41.0, NU, 171.0) == pytest.approx(1.375148035e-06, rel=1e-8)
    assert noise_density(6700.0, NU, 171.0) == pytest.approx(2.247193130e-04, rel=1e-8)
    # linear in n_dot
    assert noise_density(82.0, NU, 171.0) == pytest.approx(
        2 * noise_density(41.0, NU, 171.0), rel=1e-12)


def test_doppler_limit_frozen_and_clamped():
    assert doppler_limit(19.6e6, NU) == pytest.approx(22.46695571, rel=1e-8)
    assert doppler_limit(NU * 0.5, NU) == pytest.approx(0.0, abs=1e-12)


def test_fit_reports_nonzero_error_on_noisy_data():
    rng = np.random.default_rng(7)
    red, blue = _analytic_scan_pair(0.13)
    noisy_red = ScanResult(red.x, np.clip(
        rng.binomial(100, red.p_f1) / 100.0, 0.0, 1.0))
    noisy_blue = ScanResult(blue.x, np.clip(
        rng.binomial(100, blue.p_f1) / 100.0, 0.0, 1.0))
    fit = fit_nbar_spectra(noisy_red, noisy_blue, NU, F1, 32e3, T_PROBE)
    assert fit.std_error > 1e-4
    assert abs(fit.value - 0.13) < 0.06


def test_auto_cutoff_leaves_thermal_tail_below_1e6():
    # the thermal weight beyond level N is q^(N + 1), q = nbar / (nbar + 1)
    nbars = np.geomspace(1e-3, 300.0, 2001)
    tails = [(nb / (nb + 1.0)) ** (_auto_n_max(nb) + 1) for nb in nbars]
    assert max(tails) < 1e-6
