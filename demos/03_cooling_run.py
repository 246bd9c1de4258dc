"""Pulsed sideband cooling from the Doppler limit to the ground state.

The schedule walks a pi-pulse ladder downward: pulse k is timed as a pi-pulse
for Fock level n = n_start - k + 1 (duration 1/(2 f1 sqrt(n))), followed by a
repump cycle that resets the spin.  The rate map treats each pulse as a
per-level transfer probability sin^2(pi f1 sqrt(n) t); heating runs through
every pulse and repump window.
"""

from sbcool import (
    ExperimentConfig,
    build_schedule,
    mean_phonon,
    schedule_total_time,
    simulate_cooling,
    simulate_cooling_quantum,
    thermal_distribution,
    thermal_fock_cutoff,
)
from sbcool.runio import COOL_HEADER, write_csv

cfg = ExperimentConfig()
f1 = cfg.sideband_rabi_1_hz()

schedule = build_schedule(cfg.n_start, f1, cfg.repump())
drive = schedule_total_time(schedule, kinds=("red_sideband",))
total = schedule_total_time(schedule)
print(f"{cfg.n_start} pulses: {drive * 1e3:.1f} ms of sideband drive, "
      f"{total * 1e3:.1f} ms including repump cycles")

dist0 = thermal_distribution(cfg.doppler_nbar, thermal_fock_cutoff(cfg.doppler_nbar))
result = simulate_cooling(dist0, schedule, cfg.heating(), cfg.repump())
print(f"thermal({cfg.doppler_nbar}) cooled to nbar = "
      f"{mean_phonon(result.final):.4f}, p0 = {result.final.populations[0]:.4f}")

rows = list(zip(result.pulse_index, result.nbar, result.t_elapsed_s))
write_csv("cooling_trajectory.csv", COOL_HEADER, rows)
print("wrote cooling_trajectory.csv")

# Cross-check the rate map against the full master equation on a short
# ladder.  With ideal projective repump the two agree to integrator accuracy:
# each pulse couples |0', n> only to the spin-flipped level below it, so the
# density matrix stays block diagonal and the blocks reduce to the map.
small0 = thermal_distribution(1.5, 30)
small_sched = build_schedule(6, f1, cfg.repump())
rm = simulate_cooling(small0, small_sched, None, cfg.repump(), n_max=30)
qm = simulate_cooling_quantum(small0, small_sched, None, n_max=30)
print(f"short ladder, rate map: nbar = {mean_phonon(rm.final):.6f}")
print(f"short ladder, quantum:  nbar = {mean_phonon(qm.final):.6f}")
