"""Config parsing and CSV/manifest I/O tests."""

import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sbcool import ConfigError, DataFormatError, ExperimentConfig, load_config, parse_config_text
from sbcool.config import CONFIG_ENV_VAR
from sbcool.runio import (
    SCAN_HEADER,
    format_value,
    manifest_path_for,
    read_csv,
    sample_shots,
    write_csv,
    write_manifest,
)


def test_defaults_are_valid_and_frozen():
    cfg = ExperimentConfig()
    assert cfg.nu_z_hz == 426.7e3
    assert cfg.carrier_rabi_hz == 61.2e3
    assert cfg.n_start == 500
    d = cfg.as_dict()
    assert ExperimentConfig(**d) == cfg
    with pytest.raises(Exception):
        cfg.nu_z_hz = 1.0  # frozen dataclass


def test_reference_config_spells_out_the_defaults():
    # the benchmark reads this file; one stale key would fail every task
    path = Path(__file__).resolve().parents[1] / "demos" / "reference.cfg"
    assert load_config(path) == ExperimentConfig()
    keys = set(parse_config_text(path.read_text(encoding="utf-8"), source=str(path)))
    assert keys == {f.name for f in fields(ExperimentConfig)}


def test_parse_config_text_happy_path():
    text = """
    # comment line
    nu_z_hz = 400e3

    heating_rate_per_s = 10  # trailing comment
    n_start = 20
    integrator_rel_tol = 1e-9
    """
    cfg = ExperimentConfig(**parse_config_text(text, source="inline"))
    assert cfg.nu_z_hz == 400e3
    assert cfg.heating_rate_per_s == 10.0
    assert cfg.n_start == 20
    assert cfg.integrator_rel_tol == 1e-9
    # untouched keys keep defaults
    assert cfg.carrier_rabi_hz == 61.2e3


def test_parse_config_rejects_unknown_key_with_listing():
    with pytest.raises(ConfigError) as err:
        parse_config_text("not_a_key = 1", source="x.cfg")
    msg = str(err.value)
    assert "not_a_key" in msg
    assert "nu_z_hz" in msg  # names the valid keys


def test_parse_config_rejects_duplicates_and_bad_types():
    with pytest.raises(ConfigError):
        parse_config_text("nu_z_hz = 1e5\nnu_z_hz = 2e5")
    with pytest.raises(ConfigError):
        parse_config_text("nu_z_hz = fast")
    with pytest.raises(ConfigError):
        parse_config_text("n_start = 2.5")  # integer key
    with pytest.raises(ConfigError):
        parse_config_text("nu_z_hz")  # no '='


def test_config_validation_is_total():
    with pytest.raises(ConfigError):
        ExperimentConfig(nu_z_hz=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(probe_time_s=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(integrator_rel_tol=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(shots_per_point=-5)


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nu_z_hz = 300e3\nseed = 9\n")
    cfg = load_config(path)
    assert cfg.nu_z_hz == 300e3 and cfg.seed == 9
    cfg2 = load_config(path, {"seed": "11"})
    assert cfg2.seed == 11 and cfg2.nu_z_hz == 300e3
    # a bad override rejects the whole config, nothing partial survives
    with pytest.raises(ConfigError):
        load_config(path, {"seed": "11", "bogus": "1"})


def test_load_config_env_var(tmp_path, monkeypatch):
    path = tmp_path / "env.cfg"
    path.write_text("doppler_nbar = 50\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    cfg = load_config(None)
    assert cfg.doppler_nbar == 50.0
    monkeypatch.delenv(CONFIG_ENV_VAR)
    assert load_config(None).doppler_nbar == 65.0


def test_config_builders():
    cfg = ExperimentConfig()
    assert cfg.eta_eff() == pytest.approx(6.442436053e-03, rel=1e-9)
    assert cfg.sideband_rabi_1_hz() == pytest.approx(394.277086, rel=1e-8)
    over = ExperimentConfig(sideband_rabi_hz=350.0)
    assert over.sideband_rabi_1_hz() == pytest.approx(350.0)
    assert cfg.heating().n_dot == 41.0
    assert ExperimentConfig(heating_rate_per_s=0.0).heating() is None
    assert cfg.repump().duration_s == pytest.approx(34e-6)


def test_format_value():
    assert format_value(3) == "3"
    assert format_value(0.1) == "0.1"
    assert format_value(1.0 / 3.0) == "0.333333333333"
    assert format_value(426.7e3) == "426700"


def test_csv_round_trip_and_line_endings(tmp_path):
    path = tmp_path / "scan.csv"
    rows = [(-426700.0 + i, 1.0 / (3 + i), 100) for i in range(5)]
    write_csv(path, SCAN_HEADER, rows)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[0] == "detuning_hz,p_f1,shots"
    cols = read_csv(path, SCAN_HEADER)
    assert np.allclose(cols["detuning_hz"], [r[0] for r in rows])
    assert np.allclose(cols["p_f1"], [r[1] for r in rows], rtol=1e-11)
    assert np.allclose(cols["shots"], 100)


def test_read_csv_diagnostics(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(DataFormatError):
        read_csv(missing, SCAN_HEADER)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataFormatError):
        read_csv(empty, SCAN_HEADER)

    badhdr = tmp_path / "badhdr.csv"
    badhdr.write_text("time_s,p_f1,shots\n0,0.5,100\n")
    with pytest.raises(DataFormatError) as err:
        read_csv(badhdr, SCAN_HEADER)
    assert "detuning_hz" in str(err.value)

    short = tmp_path / "short.csv"
    short.write_text("detuning_hz,p_f1,shots\n0,0.5\n")
    with pytest.raises(DataFormatError):
        read_csv(short, SCAN_HEADER)

    word = tmp_path / "word.csv"
    word.write_text("detuning_hz,p_f1,shots\n0,fast,100\n")
    with pytest.raises(DataFormatError) as err:
        read_csv(word, SCAN_HEADER)
    assert "fast" in str(err.value) or "line" in str(err.value)


def test_read_csv_numbers_lines_as_in_the_file(tmp_path):
    # blank lines 2 and 4 are skipped but still counted
    blank = tmp_path / "blank.csv"
    blank.write_text("detuning_hz,p_f1,shots\n\n0,0.5,100\n\n1,nan,100\n")
    with pytest.raises(DataFormatError, match=r"blank\.csv:5: column 'p_f1'"):
        read_csv(blank, SCAN_HEADER)


def test_sample_shots_noiseless_and_seeded():
    p = np.array([0.0, 0.25, 0.5, 1.0])
    est, col = sample_shots(p, 0, np.random.default_rng(1))
    assert np.array_equal(est, p)
    assert col == 0
    a, _ = sample_shots(p, 200, np.random.default_rng(42))
    b, _ = sample_shots(p, 200, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a <= 1))
    assert np.all(np.abs(a - p) <= 0.15)


def test_manifest_written_alongside(tmp_path):
    out = tmp_path / "data" / "scan.csv"
    write_csv(out, SCAN_HEADER, [(0.0, 0.5, 0)])
    write_manifest(out, "scan", 12345, "0.1.0", {"nu_z_hz": 426.7e3},)
    man = manifest_path_for(out)
    assert man.name == "scan.manifest.json"
    doc = json.loads(man.read_text())
    assert doc["command"] == "scan"
    assert doc["seed"] == 12345
    assert doc["config"]["nu_z_hz"] == 426.7e3
    assert "timestamp" in doc
    assert doc["outputs"] == ["scan.csv"]
