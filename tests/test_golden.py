"""Golden outputs: heated commands on demos/reference.cfg against committed
CSVs and stdout.

Each case runs through cli.main in its own directory, with relative output
paths so that stdout is the same wherever it runs, and must reproduce every
file under tests/golden/<case>/ (stdout.txt and the CSVs; manifests carry a
timestamp and are left out).  TOLERANCES is the one reviewed table of what
may move: a file not listed there must match byte for byte.  This checks
stability, not truth; the oracles in test_dynamics stay as they are.

Scans pass --shots 0, so a roundoff-sized move in P(F=1) stays
roundoff-sized instead of flipping a binomial draw.

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
CASES = {
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

# Largest absolute difference allowed in any numeric CSV cell, per golden
# file; every other file, stdout included, must match byte for byte.  Each
# row names what moved it and by how much.  The tiled dissipator sums in
# another order than the sparse generator the goldens were written with;
# 2e-12 admits a flip in the last printed digit (%.12g of a probability).
TOLERANCES: dict[str, float] = {
    # one digit at t = 1 ms (1.0e-12), and t = 0 by 4.1e-19
    "flop_blue_full_dressed/flop.csv": 2e-12,
    # t = 0 reads 4.5e-18 instead of 0
    "repro_fig3/fig3/flop_blue.csv": 2e-12,
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_heated_outputs_match_golden(name, tmp_path):
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


if __name__ == "__main__":
    for case in sys.argv[1:] or sorted(CASES):
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        _run_case(case, GOLDEN / case)
        for manifest in (GOLDEN / case).rglob("*.manifest.json"):
            manifest.unlink()
