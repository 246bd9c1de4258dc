"""Sideband-ratio thermometry on synthetic spectra.

Scans the probe across both motional sidebands of a thermal state, then fits
the mean phonon number back out.  The key identity: on resonance a thermal
state gives P_red / P_blue = nbar / (nbar + 1) at any probe time, because
each red term p_n sin^2(pi f1 sqrt(n) t) pairs with the blue term at n-1.
"""

import numpy as np

from sbcool import ExperimentConfig, fit_nbar_spectra, simulate_scan
from sbcool.runio import SCAN_HEADER, write_csv

cfg = ExperimentConfig()
nbar_true = 0.13
t_probe = cfg.probe_time_s

# 21 points spanning 3 kHz around each sideband; the lineshape width is set
# by the probe time (~1/t = 790 Hz), so this resolves the peak comfortably.
span, points = 3e3, 21
grid_red = np.linspace(-cfg.nu_z_hz - span / 2, -cfg.nu_z_hz + span / 2, points)
grid_blue = np.linspace(cfg.nu_z_hz - span / 2, cfg.nu_z_hz + span / 2, points)

print(f"scanning both sidebands of thermal(nbar = {nbar_true}) ...")
red = simulate_scan(cfg.probe("red"), grid_red, t_probe, nbar_true)
blue = simulate_scan(cfg.probe("blue"), grid_blue, t_probe, nbar_true)

peak_ratio = red.p_f1.max() / blue.p_f1.max()
print(f"peak ratio r = {peak_ratio:.4f}  (nbar/(nbar+1) = "
      f"{nbar_true / (nbar_true + 1):.4f})")

fit = fit_nbar_spectra(red, blue, cfg.nu_z_hz, cfg.sideband_rabi_1_hz(),
                       cfg.dressing_rabi_hz, t_probe)
print(f"fitted nbar = {fit.value:.4f} +- {fit.std_error:.1e} "
      f"({fit.n_evaluations} model evaluations)")

write_csv("scan_red.csv", SCAN_HEADER, [(d, p, 0) for d, p in zip(red.x, red.p_f1)])
write_csv("scan_blue.csv", SCAN_HEADER, [(d, p, 0) for d, p in zip(blue.x, blue.p_f1)])
print("wrote scan_red.csv, scan_blue.csv")

# The same thing from the command line, with binomial projection noise:
#   sbcool scan --sideband red  --shots 100 --out scan_red.csv
#   sbcool scan --sideband blue --shots 100 --out scan_blue.csv
#   sbcool fit scan_red.csv scan_blue.csv --mode spectra
