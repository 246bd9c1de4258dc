"""Closed-loop heating-rate measurement.

Cool, wait, measure, repeat: the ion is cooled once, held for a variable
delay while ambient noise adds quanta at ndot, and each delayed state is
read out by fitting red/blue sideband spectra.  A weighted line through
nbar(delay) recovers the rate.  This demo shrinks the cooling ladder so the
whole loop runs in seconds; the CLI command at the bottom runs full size.
"""

import numpy as np

from sbcool import (
    ExperimentConfig,
    build_schedule,
    fit_heating_rate,
    fit_nbar_spectra,
    fock_cutoff_for_dynamics,
    heat_distribution,
    mean_phonon,
    simulate_cooling,
    simulate_scan,
    thermal_distribution,
    thermal_fock_cutoff,
)
from sbcool.cli import _trimmed

cfg = ExperimentConfig(**{**ExperimentConfig().as_dict(),
                          "n_start": 40, "doppler_nbar": 6.0})
f1 = cfg.sideband_rabi_1_hz()
ndot_true = cfg.heating_rate_per_s
delays = [0.0, 5e-3, 10e-3]

dist0 = thermal_distribution(cfg.doppler_nbar, thermal_fock_cutoff(cfg.doppler_nbar))
schedule = build_schedule(cfg.n_start, f1, cfg.repump())
cooled = simulate_cooling(dist0, schedule, cfg.heating(), cfg.repump()).final
print(f"cooled to nbar = {mean_phonon(cooled):.4f}")

# cut the long cooling-output support down to scan size (loss is recorded);
# pad past the heating diffusion so the truncation guard stays meaningful
n_support = fock_cutoff_for_dynamics(mean_phonon(cooled), ndot_true, max(delays))
sigma = np.sqrt(ndot_true * max(delays) * (2 * n_support + 1))
base = _trimmed(cooled, n_support, pad=8 + int(np.ceil(2 * sigma)))

span, points = 4e3, 31
nbars, errs = [], []
for delay in delays:
    dist = heat_distribution(base, ndot_true, delay)
    scans = {}
    for sideband in ("red", "blue"):
        probe = cfg.probe(sideband)
        center = probe.resonance_hz()
        grid = np.linspace(center - span / 2, center + span / 2, points)
        scans[sideband] = simulate_scan(probe, grid, cfg.probe_time_s, dist)
    fit = fit_nbar_spectra(scans["red"], scans["blue"], cfg.nu_z_hz, f1,
                           cfg.dressing_rabi_hz, cfg.probe_time_s)
    print(f"  delay {delay * 1e3:5.1f} ms -> fitted nbar = {fit.value:.4f}")
    nbars.append(fit.value)
    errs.append(fit.std_error)

rate = fit_heating_rate(delays, nbars, errs if all(e > 0 for e in errs) else None)
print(f"recovered ndot = {rate.value:.2f} +- {rate.std_error:.2f} /s "
      f"(true value {ndot_true})")

# Full-size pipeline with CSV + manifest output:
#   sbcool heatrate --delays 0,5e-3,10e-3 --out heatrate.csv
