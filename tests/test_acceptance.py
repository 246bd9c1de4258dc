"""Acceptance gate: eleven end-to-end criteria, one test (and one pass/fail
line under pytest -v) per criterion.  Each test prints the measured numbers
next to the asserted band so a failing run shows exactly what moved.
"""

import time

import numpy as np
import pytest

import sbcool as sb
from sbcool.cli import main as cli_main
from sbcool.runio import FLOP_HEADER, SCAN_HEADER, read_csv

from oracles import sideband_probability, thermal_density

CFG = sb.ExperimentConfig()
NU = CFG.nu_z_hz
F1 = CFG.sideband_rabi_1_hz()
T_PROBE = CFG.probe_time_s


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_01_effective_lamb_dicke():
    trap = CFG.trap()
    sb.lamb_dicke_eff(trap)  # warm path
    t0 = time.perf_counter()
    eta = sb.lamb_dicke_eff(trap)
    elapsed = time.perf_counter() - t0
    assert eta == pytest.approx(0.0064, abs=2e-4)
    assert elapsed < 1e-3
    _report("criterion 1", f"eta_eff = {eta:.7f} (band 0.0064 +- 0.0002), "
            f"{elapsed * 1e6:.0f} us")


def test_criterion_02_noise_density_conversion():
    s_low = sb.noise_density(41.0, NU, CFG.mass_amu)
    s_high = sb.noise_density(6700.0, NU, CFG.mass_amu)
    assert s_low == pytest.approx(1.4e-6, rel=0.05)
    assert s_high == pytest.approx(2.3e-4, rel=0.05)
    _report("criterion 2", f"S_E(41/s) = {s_low:.4e} vs 1.4e-6, "
            f"S_E(6700/s) = {s_high:.4e} vs 2.3e-4, both within 5%")


def test_criterion_03_master_equation_matches_closed_form():
    t0 = time.perf_counter()
    times = np.linspace(0.0, 10e-3, 101)
    worst = 0.0
    for nbar in (0.0, 0.13, 2.0):
        n_max = sb.fock_cutoff_for_dynamics(nbar, 0.0, times[-1])
        assert n_max <= 80
        for sideband in ("red", "blue"):
            run = sb.simulate_flop(CFG.probe(sideband), times, nbar)
            ana = sideband_probability(times, sideband, nbar, F1)
            worst = max(worst, float(np.max(np.abs(run.p_f1 - ana))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 30.0
    _report("criterion 3", f"max |master eq - closed form| = {worst:.2e} < 1e-4 "
            f"over nbar in (0, 0.13, 2), {elapsed:.1f} s")


def test_criterion_04_sideband_ratio_thermometry():
    t0 = time.perf_counter()
    grid_r = np.linspace(-NU - 2000.0, -NU + 2000.0, 41)
    grid_b = np.linspace(NU - 2000.0, NU + 2000.0, 41)
    red = sb.simulate_scan(CFG.probe("red"), grid_r, T_PROBE, 0.13)
    blue = sb.simulate_scan(CFG.probe("blue"), grid_b, T_PROBE, 0.13)

    noiseless = sb.fit_nbar_spectra(red, blue, NU, F1, CFG.dressing_rabi_hz, T_PROBE,
                                    forward="integrate")
    assert noiseless.value == pytest.approx(0.130, abs=0.005)
    analytic = sb.fit_nbar_spectra(red, blue, NU, F1, CFG.dressing_rabi_hz,
                                   T_PROBE, forward="analytic")
    assert abs(noiseless.value - analytic.value) < 1e-6

    rng = np.random.default_rng(CFG.seed)
    hits = 0
    for _ in range(50):
        pr = rng.binomial(100, np.clip(red.p_f1, 0.0, 1.0)) / 100.0
        pb = rng.binomial(100, np.clip(blue.p_f1, 0.0, 1.0)) / 100.0
        trial = sb.fit_nbar_spectra(sb.ScanResult(grid_r, pr),
                                    sb.ScanResult(grid_b, pb),
                                    NU, F1, CFG.dressing_rabi_hz, T_PROBE)
        if abs(trial.value - 0.13) <= 0.04:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 45  # 90% of 50
    assert elapsed < 300.0
    _report("criterion 4", f"noiseless fit = {noiseless.value:.4f} "
            f"(band 0.130 +- 0.005); {hits}/50 noisy trials within +-0.04 "
            f"(need 45); {elapsed:.0f} s")


def test_criterion_05_cooling_pipeline():
    t0 = time.perf_counter()
    sched = sb.build_schedule(CFG.n_start, F1, CFG.repump())
    dist0 = sb.thermal_distribution(CFG.doppler_nbar,
                                    sb.thermal_fock_cutoff(CFG.doppler_nbar))
    res = sb.simulate_cooling(dist0, sched, CFG.heating(), CFG.repump())
    elapsed = time.perf_counter() - t0
    nbar = sb.mean_phonon(res.final)
    p0 = float(res.final.populations[0])
    total = sb.schedule_total_time(sched)
    assert nbar <= 0.2
    assert p0 >= 0.85
    assert 55e-3 <= total <= 80e-3
    assert elapsed < 60.0
    _report("criterion 5", f"final nbar = {nbar:.4f} (<= 0.2), p0 = {p0:.4f} "
            f"(>= 0.85), schedule = {total * 1e3:.2f} ms (in [55, 80]), "
            f"{elapsed:.1f} s")


def test_criterion_06_rate_map_vs_quantum():
    t0 = time.perf_counter()
    sched = sb.build_schedule(8, F1, CFG.repump())
    dist0 = sb.thermal_distribution(1.5, 40)
    rm = sb.simulate_cooling(dist0, sched, None, CFG.repump(), n_max=40)
    qm = sb.simulate_cooling_quantum(dist0, sched, None, n_max=40)
    elapsed = time.perf_counter() - t0
    a, b = sb.mean_phonon(rm.final), sb.mean_phonon(qm.final)
    rel = abs(a - b) / a
    assert rel < 0.05
    assert elapsed < 600.0
    _report("criterion 6", f"rate map nbar = {a:.6f}, quantum nbar = {b:.6f}, "
            f"relative difference = {rel:.2e} < 0.05, {elapsed:.1f} s")


def test_criterion_07_heating_rate_closed_loop(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "heatrate.csv"
    code = cli_main(["heatrate", "--delays", "0,5e-3,10e-3", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    printed = capsys.readouterr().out
    rate_line = [l for l in printed.splitlines() if l.startswith("heating rate")][0]
    rate = float(rate_line.split("=")[1].split("+-")[0])
    assert rate == pytest.approx(41.0, abs=4.0)
    assert elapsed < 600.0
    _report("criterion 7", f"recovered ndot = {rate:.2f} /s (band 41 +- 4), "
            f"{elapsed:.0f} s")


def test_criterion_08_vacuum_heating_property():
    space = sb.two_level_space(30)
    h = sb.effective_two_level_hamiltonian(0.0, NU, -NU, space)
    ops = tuple(sb.heating_collapse_ops(sb.HeatingChannel(41.0), space))
    state = sb.evolve_lindblad(sb.LindbladModel(h, ops),
                               thermal_density(0.0, space), [10e-3])[-1]
    nbar = sb.mean_phonon(state)
    drift = abs(float(np.real(np.trace(state.matrix))) - 1.0)
    assert nbar == pytest.approx(0.41, rel=0.02)
    assert drift < 1e-8
    _report("criterion 8", f"<N>(10 ms) = {nbar:.6f} (0.41 +- 2%), "
            f"trace drift = {drift:.1e} < 1e-8")


def test_criterion_09_long_flop_properties():
    cfg = sb.ExperimentConfig(**{**CFG.as_dict(), "sideband_rabi_hz": 350.0})
    times = np.linspace(0.0, 10e-3, 201)
    blue = sb.simulate_flop(cfg.probe("blue"), times, 0.13, heating=cfg.heating()).p_f1
    red = sb.simulate_flop(cfg.probe("red"), times, 0.13, heating=cfg.heating()).p_f1
    interior = (blue[1:-1] > blue[:-2]) & (blue[1:-1] > blue[2:])
    first_max = float(blue[1:-1][interior][0])
    late = times >= 7e-3
    contrast = float(blue[late].max() - blue[late].min())
    red_initial = float(red[times <= 2e-3].max())
    assert first_max >= 0.85
    assert 0.3 <= contrast < first_max
    assert red_initial <= 0.15
    _report("criterion 9", f"blue first max = {first_max:.3f} (>= 0.85), "
            f"late contrast = {contrast:.3f} (>= 0.3 and reduced), "
            f"red initial transfer = {red_initial:.3f} (<= 0.15)")


def test_criterion_10_doppler_limit():
    nbar_d = sb.doppler_limit(CFG.doppler_linewidth_hz, NU)
    assert nbar_d == pytest.approx(23.0, abs=1.0)
    _report("criterion 10", f"Doppler limit nbar = {nbar_d:.3f} (band 23 +- 1)")


def test_criterion_11_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "--sideband", "red", "--points", "11", "--span", "2500"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_csv(a, SCAN_HEADER)
    assert np.all(rows["shots"] == CFG.shots_per_point)
    _report("criterion 11", "repeated cmd_scan output is byte-identical "
            f"({a.stat().st_size} bytes, {rows['detuning_hz'].size} points)")
