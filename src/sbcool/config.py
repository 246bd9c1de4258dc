"""Flat key = value experiment configuration.

Files use one `key = value` per line with `#` comments; every key has a
default matching the reference parameter set, unknown keys are rejected with
the list of valid ones, and the whole file is validated before use (no
partially applied configs).  The SBCOOL_CONFIG environment variable supplies a
default path when the command line gives none.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .cooling import RepumpModel
from .dynamics import HeatingChannel, IntegratorConfig, SidebandProbe
from .errors import ConfigError
from .ion import TrapParams, lamb_dicke_eff

__all__ = ["ExperimentConfig", "parse_config_text", "load_config", "CONFIG_ENV_VAR"]

CONFIG_ENV_VAR = "SBCOOL_CONFIG"


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete parameter set for the simulation and analysis pipelines."""

    mass_amu: float = 171.0
    nu_z_hz: float = 426.7e3
    gradient_t_m: float = 23.6
    carrier_rabi_hz: float = 61.2e3
    dressing_rabi_hz: float = 32e3
    sideband_rabi_hz: float = 0.0  # 0 = derive eta_eff * carrier_rabi
    heating_rate_per_s: float = 41.0
    probe_time_s: float = 1.27e-3
    doppler_nbar: float = 65.0
    doppler_linewidth_hz: float = 19.6e6
    n_start: int = 500
    repump_pi_time_s: float = 14e-6
    repump_pump_time_s: float = 6e-6
    repump_extra_swaps: int = 2
    recoil_quanta: float = 0.0
    shots_per_point: int = 100
    seed: int = 12345
    integrator_rel_tol: float = 1e-8
    integrator_abs_tol: float = 1e-11

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        positive = ("mass_amu", "nu_z_hz", "carrier_rabi_hz", "probe_time_s",
                    "doppler_linewidth_hz", "integrator_rel_tol", "integrator_abs_tol")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        nonneg = ("gradient_t_m", "dressing_rabi_hz", "sideband_rabi_hz",
                  "heating_rate_per_s", "doppler_nbar", "repump_pi_time_s",
                  "repump_pump_time_s", "recoil_quanta")
        for name in nonneg:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_start < 1:
            raise ConfigError(f"n_start must be >= 1, got {self.n_start}")
        if self.repump_extra_swaps < 0:
            raise ConfigError("repump_extra_swaps must be >= 0")
        if self.shots_per_point < 1:
            raise ConfigError("shots_per_point must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    # -- constructors for the physics objects -------------------------------

    def trap(self) -> TrapParams:
        return TrapParams(self.mass_amu, self.nu_z_hz, self.gradient_t_m)

    def eta_eff(self) -> float:
        return lamb_dicke_eff(self.trap())

    def sideband_rabi_1_hz(self) -> float:
        """n = 1 red-sideband Rabi: explicit override or eta_eff * carrier."""
        if self.sideband_rabi_hz > 0:
            return self.sideband_rabi_hz
        return self.eta_eff() * self.carrier_rabi_hz

    def probe(self, sideband: str, model: str = "effective") -> SidebandProbe:
        return SidebandProbe(self.sideband_rabi_1_hz(), self.nu_z_hz, self.dressing_rabi_hz,
                             sideband, model)

    def repump(self) -> RepumpModel:
        return RepumpModel(self.repump_pi_time_s, self.repump_pump_time_s,
                           self.repump_extra_swaps, self.recoil_quanta)

    def heating(self) -> HeatingChannel | None:
        if self.heating_rate_per_s == 0:
            return None
        return HeatingChannel(self.heating_rate_per_s)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(self.integrator_rel_tol, self.integrator_abs_tol)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_INT_KEYS = {"n_start", "repump_extra_swaps", "shots_per_point", "seed"}


def _convert(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError:
        kind = "an integer" if key in _INT_KEYS else "a number"
        raise ConfigError(f"value for {key!r} must be {kind}, got {raw!r}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines into a typed dict; rejects unknown keys."""
    valid = sorted(_FIELD_TYPES)
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r}; valid keys: {', '.join(valid)}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = _convert(key, raw)
    return out


def load_config(path: str | os.PathLike | None = None,
                overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, optionally overlaid by a config file and explicit overrides.

    Falls back to the SBCOOL_CONFIG environment variable when path is None.
    """
    values: dict = {}
    if path is None:
        env_path = os.environ.get(CONFIG_ENV_VAR, "").strip()
        path = env_path or None
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        values.update(parse_config_text(p.read_text(encoding="utf-8"), source=str(p)))
    if overrides:
        for key, raw in overrides.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(
                    f"unknown key {key!r}; valid keys: {', '.join(sorted(_FIELD_TYPES))}")
            values[key] = _convert(key, str(raw))
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:  # pragma: no cover - guarded by key validation
        raise ConfigError(str(exc)) from None
