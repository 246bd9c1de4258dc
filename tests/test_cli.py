"""End-to-end command-line tests (in-process main())."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sbcool

from sbcool.cli import FIT_HEADER, RATE_HEADER, main
from sbcool.config import load_config
from sbcool.runio import FLOP_HEADER, HEATRATE_HEADER, SCAN_HEADER, read_csv


def run(argv):
    return main([str(a) for a in argv])


def test_constants_prints_derived_values(capsys):
    assert run(["constants"]) == 0
    out = capsys.readouterr().out
    assert "eta_eff" in out
    assert "0.00644" in out
    assert "doppler_limit_nbar" in out


def test_scan_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["scan", "--sideband", "red", "--points", "7", "--span", "2000",
                "--shots", "inf", "--out", out])
    assert code == 0
    cols = read_csv(out, SCAN_HEADER)
    assert cols["detuning_hz"].size == 7
    assert np.all(cols["shots"] == 0)
    man = json.loads((tmp_path / "scan.manifest.json").read_text())
    assert man["command"] == "scan"
    assert man["config"]["nu_z_hz"] == 426.7e3


def test_scan_determinism_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "--sideband", "blue", "--points", "5", "--span", "1500",
            "--shots", "50"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_probe_heating_runs_the_heated_scan(tmp_path):
    cfg = load_config(None)
    probe = cfg.probe("blue")
    grid = probe.resonance_hz() + np.array([-1000.0, 0.0, 1000.0])
    heated = sbcool.simulate_scan(probe, grid, cfg.probe_time_s, 0.13,
                                  heating=cfg.heating())
    closed = sbcool.simulate_scan(probe, grid, cfg.probe_time_s, 0.13)
    out = tmp_path / "heated.csv"
    assert run(["scan", "--sideband", "blue", "--points", "3", "--span", "2000",
                "--shots", "inf", "--probe-heating", "--out", out]) == 0
    cols = read_csv(out, SCAN_HEADER)
    assert np.array_equal(cols["detuning_hz"], grid)
    # the CSV holds 12 significant digits
    assert cols["p_f1"] == pytest.approx(heated.p_f1, rel=0, abs=1e-12)
    # heating during the 1.27 ms probe moves the resonant point by 0.0128
    assert abs(cols["p_f1"][1] - closed.p_f1[1]) > 0.01


def test_flop_and_fit_round_trip(tmp_path):
    out = tmp_path / "flop.csv"
    assert run(["flop", "--sideband", "red", "--tmax", "6e-3", "--points", "61",
                "--nbar", "0.3", "--no-heating", "--out", out]) == 0
    cols = read_csv(out, FLOP_HEADER)
    assert cols["time_s"].size == 61
    assert run(["fit", out, "--mode", "flop"]) == 0


def test_fit_rejects_a_flop_that_cannot_constrain_nbar(tmp_path, capsys):
    # every n_bar predicts P = 0 at t = 0, so the residual is flat there
    path = tmp_path / "one.csv"
    path.write_text("time_s,p_f1,shots\n0,0,0\n")
    assert run(["fit", path, "--mode", "flop"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the data do not constrain n_bar" in captured.err


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_1_and_points_stdout_at_devnull(tmp_path, monkeypatch, capsys):
    heat = tmp_path / "h.csv"
    heat.write_text("delay_s,nbar,nbar_err\n0,0.1,0.01\n0.005,0.305,0.01\n")
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert run(["fit", heat, "--mode", "heatrate"]) == 1
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def _scan_pair(*options):
    return [("scan", "--sideband", side, "--shots", "0", *options, "--out", f"{side}.csv")
            for side in ("red", "blue")]


_PINNED = ("--set", "sideband_rabi_hz=350")


def _printed_rate(out: str) -> str:
    """'41.05 +- 0.01' from heatrate's last rate line, or from fit's lines."""
    if "heating rate = " in out:
        return out.split("heating rate = ")[1].split(" quanta/s")[0]
    return f"{_printed(out, 'ndot_per_s'):.2f} +- {_printed(out, 'std_error'):.2f}"


# Closure: a generating command's noiseless output, fed to the matching fitter
# through cli.main, reads back the parameter it was generated with (n_bar 0.13,
# the scan and flop default), to within the bound.  The heatrate fit must
# reprint the rate and error heatrate printed.  Pairs that the fitters'
# closed forwards cannot read yet (a heated flop, scans with --probe-heating)
# are left out.
@pytest.mark.parametrize("steps, fit, bound", [
    *[pytest.param(_scan_pair(*pin), ("fit", "red.csv", "blue.csv", "--mode", "spectra",
                                      "--forward", forward, *pin), 1e-6,
                   id=f"spectra-{forward}{'-pinned' if pin else ''}")
      for forward in ("analytic", "integrate") for pin in ((), _PINNED)],
    pytest.param([("flop", "--sideband", "red", "--tmax", "10e-3", "--no-heating",
                   "--out", "flop.csv")], ("fit", "flop.csv", "--mode", "flop"), 1e-6,
                 id="flop"),
    pytest.param([("heatrate", "--delays", "0,5e-3,10e-3", "--out", "rate.csv")],
                 ("fit", "rate.csv", "--mode", "heatrate"), None, id="heatrate"),
])
def test_outputs_fit_back_to_their_inputs(tmp_path, capsys, monkeypatch, steps, fit, bound):
    monkeypatch.chdir(tmp_path)
    for step in steps:
        assert run(step) == 0
    generated = capsys.readouterr().out
    assert run(fit) == 0
    out = capsys.readouterr().out
    if bound is None:
        assert _printed_rate(out) == _printed_rate(generated)
    else:
        assert abs(_printed(out, "nbar") - 0.13) <= bound


def test_fit_heatrate_mode(tmp_path, capsys):
    path = tmp_path / "h.csv"
    path.write_text(
        "delay_s,nbar,nbar_err\n0,0.1,0.01\n0.005,0.305,0.01\n0.01,0.51,0.01\n")
    assert run(["fit", path, "--mode", "heatrate"]) == 0
    out = capsys.readouterr().out
    rate = float(out.splitlines()[0].split("=")[1])
    assert rate == pytest.approx(41.0, rel=1e-9)


def test_fit_heatrate_rejects_a_negative_error(tmp_path, capsys):
    # 0 marks a row without an error bar; a negative error is a data error
    path = tmp_path / "h.csv"
    path.write_text(
        "delay_s,nbar,nbar_err\n0,0.1,0.01\n0.005,0.305,-0.01\n0.01,0.51,0.01\n")
    assert run(["fit", path, "--mode", "heatrate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nbar_err must be >= 0 (0 = no error bar), got -0.01" in captured.err


@pytest.mark.parametrize("rows", [
    "0.005,0.3,0.01\n0.005,0.31,0.01\n",
    "0.005,0.3,0\n0.005,0.31,0\n0.005,0.32,0\n",
], ids=["two-weighted", "three-unweighted"])
def test_fit_heatrate_rejects_delays_that_are_all_equal(tmp_path, capsys, rows):
    # a bad data file, not a numerical failure, and never a fitted rate
    path = tmp_path / "h.csv"
    path.write_text("delay_s,nbar,nbar_err\n" + rows)
    assert run(["fit", path, "--mode", "heatrate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need at least two distinct delays, got [0.005, 0.005" in captured.err


def test_cool_writes_trajectory_and_distribution(tmp_path):
    out, dist = tmp_path / "cool.csv", tmp_path / "dist.csv"
    assert run(["cool", "--nstart", "20", "--nbar0", "2.0", "--out", out,
                "--dist-out", dist]) == 0
    cols = read_csv(out, ("pulse_index", "nbar", "t_elapsed_s"))
    assert cols["pulse_index"].size == 21
    assert cols["nbar"][-1] < cols["nbar"][0]
    dcols = read_csv(dist, ("n", "population"))
    assert dcols["population"].sum() == pytest.approx(1.0, abs=1e-9)


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wrong_key = 5\n")
    assert run(["constants", "--config", bad]) == 2
    assert "wrong_key" in capsys.readouterr().err
    assert run(["constants", "--set", "nu_z_hz=-2"]) == 2
    assert run(["constants", "--set", "zeeman_splitting_hz=1"]) == 2
    assert "unknown key 'zeeman_splitting_hz'" in capsys.readouterr().err
    assert run(["constants", "--set", "nonsense"]) == 2
    retired = (("integrator_method", "adaptive"), ("integrator_max_step_s", "0"),
               ("integrator_rel_tol", "1e-8"), ("integrator_abs_tol", "1e-11"))
    for key, value in retired:
        assert run(["constants", "--set", f"{key}={value}"]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
    assert run(["heatrate", "--delays", "0.005"]) == 2  # needs two delays


def test_exit_code_2_on_data_format_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert run(["fit", bad, bad, "--mode", "spectra"]) == 2
    err = capsys.readouterr().err
    assert "detuning_hz" in err


@pytest.mark.parametrize("column, row", [("p_f1", "-426600,nan,0"),
                                         ("detuning_hz", "nan,0.2,0")])
def test_exit_code_2_on_non_finite_data(tmp_path, capsys, column, row):
    bad = tmp_path / "red.csv"
    bad.write_text(f"detuning_hz,p_f1,shots\n-426700,0.1,0\n{row}\n")
    good = tmp_path / "blue.csv"
    good.write_text("detuning_hz,p_f1,shots\n426600,0.1,0\n426700,0.2,0\n")
    assert run(["fit", bad, good, "--mode", "spectra"]) == 2
    assert f"{bad}:3: column {column!r} has non-finite value 'nan'" in capsys.readouterr().err


def test_exit_code_3_on_numerical_failure(tmp_path, capsys):
    out = tmp_path / "flop.csv"
    # huge heating rate in a deliberately tiny space cannot stay truncated
    code = run(["flop", "--sideband", "blue", "--tmax", "20e-3", "--points",
                "5", "--nbar", "2.0", "--set", "heating_rate_per_s=5e4",
                "--out", out])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["flop", "--sideband", "red", "--tmax", "1e308"],
    ["heatrate", "--delays", "0,1e308", "--set", "n_start=5"],
    ["scan", "--sideband", "red", "--points", "3", "--probe-heating", "--probe-time", "1e308"],
], ids=["flop", "heatrate", "scan"])
def test_exit_code_3_when_the_cutoff_policy_overflows(tmp_path, capsys, argv):
    # the policy's n_max is inf here: too hot, like any n_max past the ceiling
    assert run(argv + ["--out", tmp_path / "out.csv"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "too hot" in err


@pytest.mark.parametrize("flag", ["--no-heating", None])
def test_exit_code_3_when_an_eigensolve_fails(tmp_path, capsys, monkeypatch, flag):
    # np.linalg.LinAlgError subclasses ValueError, the usage-error class
    import sbcool.dynamics as dynamics

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(dynamics.np.linalg, "eigh", fail)
    argv = ["flop", "--sideband", "red", "--tmax", "1e-3", "--points", "5",
            "--out", tmp_path / "flop.csv"]
    assert run(argv + ([flag] if flag else [])) == 3
    assert "numerical failure: Eigenvalues did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("flag, engine", [
    ("--no-heating", "_closed_response"),
    (None, "_heated_point"),
])
def test_exit_code_3_when_the_engine_reads_out_of_range(tmp_path, capsys, monkeypatch,
                                                        flag, engine):
    # a readout 1e-3 below 0 is a numerical failure, not a bad input
    import sbcool.dynamics as dynamics
    real = getattr(dynamics, engine)

    def shifted(*args):
        out = real(*args)
        if engine == "_closed_response":
            return dynamics.ScanResponse(out.f1 - 1e-3, out.top)
        return out - 1e-3
    monkeypatch.setattr(dynamics, engine, shifted)
    code = run(["flop", "--sideband", "red", "--tmax", "1e-3", "--points", "5",
                *([flag] if flag else []), "--out", tmp_path / "flop.csv"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "outside [0, 1]" in err


def test_exit_code_3_when_integrator_output_is_not_a_state(tmp_path, capsys, monkeypatch):
    # loose tolerances let the integrator return a non-positive state
    import sbcool.dynamics as dynamics
    monkeypatch.setattr(dynamics, "RK45_RTOL", 1e-1)
    monkeypatch.setattr(dynamics, "RK45_ATOL", 1e-1)
    code = run(["flop", "--sideband", "blue", "--tmax", "5e-3", "--points", "21",
                "--out", tmp_path / "flop.csv"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "not positive semidefinite" in err


@pytest.mark.parametrize("broken", ["non-unitary", "nan"])
def test_exit_code_3_when_the_closed_engine_loses_norm(tmp_path, capsys, monkeypatch, broken):
    real = np.linalg.eigh

    def bad_eigh(mat):
        w, v = real(mat)
        return w, v * 1.01 if broken == "non-unitary" else np.full_like(v, np.nan)
    monkeypatch.setattr(np.linalg, "eigh", bad_eigh)
    code = run(["scan", "--sideband", "red", "--points", "3", "--shots", "inf",
                "--out", tmp_path / "scan.csv"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "propagator column norm drifts" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_scan_rejects_jobs_below_one(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        run(["scan", "--sideband", "red", "--points", "3", "--jobs", jobs,
             "--out", tmp_path / "scan.csv"])
    assert exc.value.code == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("argv, named", [
    (["scan", "--sideband", "red", "--nbar", "inf", "--out", "out.csv"], "--nbar"),
    (["scan", "--sideband", "red", "--span", "nan", "--out", "out.csv"], "--span"),
    (["scan", "--sideband", "red", "--probe-heating", "--set", "heating_rate_per_s=inf",
      "--out", "out.csv"], "heating_rate_per_s"),
    (["constants", "--set", "probe_time_s=nan"], "probe_time_s"),
    (["flop", "--sideband", "red", "--tmax", "inf", "--out", "out.csv"], "--tmax"),
    (["cool", "--nbar0", "inf", "--out", "out.csv"], "--nbar0"),
    (["heatrate", "--delays", "inf,0", "--out", "out.csv"], "delays"),
    (["heatrate", "--delays=-1e-3,0", "--out", "out.csv"], "delays"),
    (["heatrate", "--delays", "0,0", "--out", "out.csv"], "delays"),
])
def test_exit_code_2_names_a_bad_number_where_it_enters(tmp_path, capsys, monkeypatch,
                                                        argv, named):
    monkeypatch.chdir(tmp_path)
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects a bad flag value
        code = exc.code
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_manifest_records_main_argv(tmp_path):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--sideband", "red", "--points", "3", "--shots", "inf",
            "--out", str(out)]
    assert main(argv) == 0
    man = json.loads((tmp_path / "scan.manifest.json").read_text())
    assert man["argv"] == ["sbcool", *argv]


def test_heatrate_command_writes_rows(tmp_path, capsys):
    out = tmp_path / "rate.csv"
    code = run(["heatrate", "--delays", "0,4e-3", "--set", "n_start=40",
                "--set", "doppler_nbar=6", "--out", out])
    assert code == 0
    cols = read_csv(out, HEATRATE_HEADER)
    assert cols["delay_s"].size == 2
    assert "heating rate" in capsys.readouterr().out


def test_repro_fig3_bundle(tmp_path):
    outdir = tmp_path / "fig3"
    assert run(["repro", "fig3", "--outdir", outdir]) == 0
    blue = read_csv(outdir / "flop_blue.csv", FLOP_HEADER)
    red = read_csv(outdir / "flop_red.csv", FLOP_HEADER)
    assert blue["p_f1"].max() >= 0.85
    assert red["p_f1"][0] <= 0.15
    assert (outdir / "flop_blue.manifest.json").exists()


def _printed(out: str, label: str) -> float:
    line = next(l for l in out.splitlines() if l.startswith(f"{label} = "))
    return float(line.split("=")[1])


def _assert_manifests(outdir):
    csvs = sorted(outdir.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert path.with_suffix(".manifest.json").exists(), path.name


SMALL_COOL = ["--set", "n_start=40", "--set", "doppler_nbar=6"]


def test_repro_fig1_bundle(tmp_path, capsys):
    outdir = tmp_path / "fig1"
    assert run(["repro", "fig1", "--outdir", outdir, *SMALL_COOL]) == 0
    _assert_manifests(outdir)
    for sideband in ("red", "blue"):
        cols = read_csv(outdir / f"scan_{sideband}.csv", SCAN_HEADER)
        assert cols["detuning_hz"].size == 41
        assert np.all(cols["shots"] == 0)
    report = read_csv(outdir / "fit_report.csv", FIT_HEADER)
    capsys.readouterr()
    assert run(["fit", outdir / "scan_red.csv", outdir / "scan_blue.csv",
                "--mode", "spectra"]) == 0
    nbar = _printed(capsys.readouterr().out, "nbar")
    assert nbar == pytest.approx(report["nbar"][0], rel=1e-5)


def test_repro_fig2_bundle(tmp_path, capsys):
    outdir = tmp_path / "fig2"
    assert run(["repro", "fig2", "--outdir", outdir, *SMALL_COOL]) == 0
    _assert_manifests(outdir)
    report = read_csv(outdir / "rate_report.csv", RATE_HEADER)
    capsys.readouterr()
    assert run(["fit", outdir / "heatrate.csv", "--mode", "heatrate"]) == 0
    rate = _printed(capsys.readouterr().out, "ndot_per_s")
    assert rate == pytest.approx(report["ndot_per_s"][0], rel=1e-5)
    assert rate == pytest.approx(41.0, abs=4.0)


# Runs in one fresh interpreter: every command through cli.main in turn, with
# the scipy modules loaded after each stage printed as the last line.
_IMPORT_BUDGET = """
import json, sys
import sbcool.cli
from sbcool.config import load_config

def run(command, *args):
    return sbcool.cli.main([command, "--config", sys.argv[1], *args])

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

load_config(sys.argv[1])
seen, codes = {"setup": scipy_modules()}, []
codes.append(run("scan", "--sideband", "red", "--points", "11", "--out", "red.csv"))
codes.append(run("scan", "--sideband", "blue", "--points", "11", "--out", "blue.csv"))
codes.append(run("fit", "red.csv", "blue.csv", "--mode", "spectra", "--forward", "integrate"))
codes.append(run("constants"))
seen["closed"] = scipy_modules()
codes.append(run("cool", "--out", "cool.csv"))
codes.append(run("heatrate", "--delays", "0,5e-3,10e-3", "--out", "rate.csv"))
seen["cooling"] = scipy_modules()
codes.append(run("flop", "--sideband", "blue", "--tmax", "1e-3", "--points", "11",
                 "--out", "flop.csv"))
seen["heated"] = scipy_modules()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_commands_import_scipy_only_on_the_paths_that_run_it(tmp_path):
    # Start-up is most of a short command's wall time, and importing scipy
    # would be most of it; a heated flop integrates with the in-package RK45
    # on numpy-only tiles, and the rate map heats by uniformization on numpy
    # alone.  No command loads any scipy module.
    root = Path(sbcool.__file__).resolve().parents[1]
    config = Path(__file__).resolve().parents[1] / "demos" / "reference.cfg"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET, str(config)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 7
    assert report["seen"]["setup"] == []
    assert report["seen"]["closed"] == []
    assert report["seen"]["cooling"] == []
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.spatial",
             "scipy.fft")
    assert [m for m in report["seen"]["heated"] if m.startswith(heavy)] == []
    assert report["seen"]["heated"] == []
