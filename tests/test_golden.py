"""Golden outputs: commands on demos/reference.cfg against committed CSVs and
stdout.

Each case runs through cli.main in its own directory, with relative output
paths so that stdout is the same wherever it runs, and must reproduce every
file under tests/golden/<case>/ (stdout.txt and the CSVs; manifests carry a
timestamp and are left out).  TOLERANCES is the one reviewed table of what
may move: a file not listed there must match byte for byte.  This checks
stability, not truth; the oracles in test_dynamics stay as they are.

Scans pass --shots 0, so a roundoff-sized move in P(F=1) stays
roundoff-sized instead of flipping a binomial draw.  The fit cases read
their input from the committed golden files of the generating cases, so they
check the fitters on fixed data.

    PYTHONPATH=src python tests/test_golden.py

rewrites the golden files from the working tree.
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from sbcool.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = Path(__file__).resolve().parents[1] / "demos" / "reference.cfg"

_SCAN = ("scan", "--points", "5", "--probe-heating", "--shots", "0")
HEATED = {
    "flop_red_effective": ("flop", "--sideband", "red", "--tmax", "10e-3",
                           "--out", "flop.csv"),
    "flop_blue_full_dressed": ("flop", "--sideband", "blue", "--tmax", "2e-3",
                               "--points", "41", "--model", "full_dressed",
                               "--out", "flop.csv"),
    **{f"scan_{side}_heated_jobs{jobs}": (*_SCAN, "--sideband", side, "--jobs", str(jobs),
                                          "--out", "scan.csv")
       for side in ("red", "blue") for jobs in (1, 2)},
    "repro_fig3": ("repro", "fig3", "--outdir", "fig3"),
}
_SPECTRA = ("fit", "--mode", "spectra", str(GOLDEN / "scan_red" / "scan.csv"),
            str(GOLDEN / "scan_blue" / "scan.csv"))
CLOSED = {
    "flop_red_effective_closed": ("flop", "--sideband", "red", "--tmax", "10e-3",
                                  "--no-heating", "--out", "flop.csv"),
    "flop_blue_full_dressed_closed": ("flop", "--sideband", "blue", "--tmax", "2e-3",
                                      "--points", "41", "--model", "full_dressed",
                                      "--no-heating", "--out", "flop.csv"),
    **{f"scan_{side}": ("scan", "--sideband", side, "--shots", "0", "--out", "scan.csv")
       for side in ("red", "blue")},
    "scan_red_full_dressed_350": ("scan", "--sideband", "red", "--model", "full_dressed",
                                  "--shots", "0", "--set", "sideband_rabi_hz=350",
                                  "--out", "scan.csv"),
    "cool": ("cool", "--out", "cool.csv", "--dist-out", "dist.csv"),
    "heatrate": ("heatrate", "--delays", "0,5e-3,10e-3", "--out", "heatrate.csv"),
    "fit_spectra_analytic": _SPECTRA,
    "fit_spectra_integrate": (*_SPECTRA, "--forward", "integrate"),
    "fit_flop": ("fit", "--mode", "flop", str(GOLDEN / "flop_red_effective" / "flop.csv")),
    "fit_heatrate": ("fit", "--mode", "heatrate", str(GOLDEN / "heatrate" / "heatrate.csv")),
    "repro_fig1": ("repro", "fig1", "--outdir", "fig1"),
    "repro_fig2": ("repro", "fig2", "--outdir", "fig2"),
}
CASES = {**HEATED, **CLOSED}

# Largest absolute difference allowed in any numeric CSV cell, per golden
# file; every other file, stdout included, must match byte for byte.  Each
# row names what moved it and by how much.  The tiled dissipator sums in
# another order than the sparse generator the goldens were written with;
# 2e-12 admits a flip in the last printed digit (%.12g of a probability).
TOLERANCES: dict[str, float] = {
    # t = 0 by 1.4e-18 (the tiled dissipator also moved one digit at t = 1 ms
    # by 1.0e-12; with the coupling passed as eta * Omega that digit is back)
    "flop_blue_full_dressed/flop.csv": 2e-12,
    # t = 0 reads 4.5e-18 instead of 0
    "repro_fig3/fig3/flop_blue.csv": 2e-12,
    # The sideband coupling enters the builders as eta * Omega itself rather
    # than as eta times a carrier Omega, which moves these by roundoff:
    # t = 0 reads 3.1e-33 instead of 4.4e-33
    "flop_blue_full_dressed_closed/flop.csv": 2e-12,
    # residual_norm by 1.0e-13 (its last printed digit)
    "repro_fig2/fig2/rate_report.csv": 2e-12,
}


def _run_case(name: str, workdir: Path) -> None:
    """Run one case in workdir and write its stdout there as stdout.txt."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main([*CASES[name], "--config", str(CONFIG)])
    finally:
        os.chdir(cwd)
    assert code == 0, f"{name} exited {code}"
    (workdir / "stdout.txt").write_text(out.getvalue(), encoding="utf-8")


def _outputs(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*")
                  if p.is_file() and not p.name.endswith(".manifest.json"))


def _max_deviation(got: Path, want: Path) -> float:
    """Largest absolute difference between two CSVs of the same shape."""
    rows = [ln.split(",") for ln in got.read_text(encoding="utf-8").splitlines()]
    ref = [ln.split(",") for ln in want.read_text(encoding="utf-8").splitlines()]
    assert rows[0] == ref[0] and len(rows) == len(ref), f"{want.name}: header or length differs"
    return float(np.max(np.abs(np.array(rows[1:], dtype=float)
                               - np.array(ref[1:], dtype=float)), initial=0.0))


def _assert_matches_golden(name: str, tmp_path: Path) -> None:
    _run_case(name, tmp_path)
    want = GOLDEN / name
    assert _outputs(tmp_path) == _outputs(want)
    for rel in _outputs(want):
        got, ref = tmp_path / rel, want / rel
        if got.read_bytes() == ref.read_bytes():
            continue
        key = f"{name}/{rel.as_posix()}"
        assert key in TOLERANCES, f"{key} differs from its golden file"
        assert _max_deviation(got, ref) <= TOLERANCES[key], key


@pytest.mark.parametrize("name", sorted(HEATED))
def test_heated_outputs_match_golden(name, tmp_path):
    _assert_matches_golden(name, tmp_path)


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_closed_outputs_match_golden(name, tmp_path):
    _assert_matches_golden(name, tmp_path)


if __name__ == "__main__":
    # the fit cases read the generating cases' golden files, so they go last
    for case in sorted(sys.argv[1:] or CASES, key=lambda c: c.startswith("fit_")):
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        _run_case(case, GOLDEN / case)
        for manifest in (GOLDEN / case).rglob("*.manifest.json"):
            manifest.unlink()
