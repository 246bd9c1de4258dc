"""Every demo script runs to completion in-process, and every public name
the package lists resolves."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # demos write their CSVs to the working directory
    runpy.run_path(str(path), run_name="__main__")


def test_every_listed_public_name_resolves():
    import sbcool
    modules = [sbcool] + [importlib.import_module(f"sbcool.{info.name}")
                          for info in pkgutil.iter_modules(sbcool.__path__)]
    for module in modules:
        listed = getattr(module, "__all__", [])
        assert len(listed) == len(set(listed)), module.__name__
        assert [name for name in listed if not hasattr(module, name)] == [], module.__name__
