"""Every demo script runs to completion in-process, and every public name
the package lists resolves."""

import importlib
import pkgutil
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # demos write their CSVs to the working directory
    runpy.run_path(str(path), run_name="__main__")


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    exec(compile(block, "README.md quick start", "exec"), {"__name__": "__main__"})
    # the block prints the cooled nbar, which it says is ~0.13
    assert float(capsys.readouterr().out) == pytest.approx(0.13, abs=0.01)


def test_every_listed_public_name_resolves():
    import sbcool
    modules = [sbcool] + [importlib.import_module(f"sbcool.{info.name}")
                          for info in pkgutil.iter_modules(sbcool.__path__)]
    for module in modules:
        listed = getattr(module, "__all__", [])
        assert len(listed) == len(set(listed)), module.__name__
        assert [name for name in listed if not hasattr(module, name)] == [], module.__name__
