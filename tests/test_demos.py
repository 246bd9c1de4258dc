"""Every demo script runs to completion in-process."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # demos write their CSVs to the working directory
    runpy.run_path(str(path), run_name="__main__")
