"""Deterministic file I/O: CSV schemas, run manifests, and shot sampling.

All CSV output is UTF-8 with LF line endings and a fixed `%.12g` float format,
so identical configuration and seed produce byte-identical files.  Every
output file gets a sibling manifest `<stem>.manifest.json` recording the full
config snapshot, toolkit version, command line, seed, and a timestamp (the
manifest timestamp is the only non-reproducible byte).

Column schemas:

    scan  (cmd_scan)      detuning_hz,p_f1,shots
    flop  (cmd_flop)      time_s,p_f1,shots
    cool  (cmd_cool)      pulse_index,nbar,t_elapsed_s
    dist                  n,population
    heatrate              delay_s,nbar,nbar_err

A shots value of 0 marks noiseless probabilities (--shots inf).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataFormatError

__all__ = [
    "SCAN_HEADER",
    "FLOP_HEADER",
    "COOL_HEADER",
    "DIST_HEADER",
    "HEATRATE_HEADER",
    "RunManifest",
    "format_value",
    "write_csv",
    "read_csv",
    "write_manifest",
    "manifest_path_for",
    "sample_shots",
]

SCAN_HEADER = ("detuning_hz", "p_f1", "shots")
FLOP_HEADER = ("time_s", "p_f1", "shots")
COOL_HEADER = ("pulse_index", "nbar", "t_elapsed_s")
DIST_HEADER = ("n", "population")
HEATRATE_HEADER = ("delay_s", "nbar", "nbar_err")


def format_value(value) -> str:
    """Stable text form: integers verbatim, floats as %.12g, strings as-is."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def write_csv(path, header: Sequence[str], rows) -> None:
    """UTF-8, LF-terminated CSV with the fixed float format."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    p.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv(path, expected_header: Sequence[str]) -> dict[str, np.ndarray]:
    """Strict reader: header must match the schema exactly; empty data and
    non-numeric or non-finite values error.

    Returns float arrays keyed by column name.
    """
    p = Path(path)
    if not p.is_file():
        raise DataFormatError(f"no such data file: {p}")
    text = p.read_text(encoding="utf-8")
    # (line number, text) of the non-blank lines, numbered as in the file
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise DataFormatError(f"{p}: file is empty")
    header = tuple(col.strip() for col in lines[0][1].split(","))
    expected = tuple(expected_header)
    if header != expected:
        missing = [c for c in expected if c not in header]
        extra = [c for c in header if c not in expected]
        detail = []
        if missing:
            detail.append(f"missing column(s) {missing}")
        if extra:
            detail.append(f"unexpected column(s) {extra}")
        if not detail:
            detail.append(f"column order must be {expected}")
        raise DataFormatError(f"{p}: malformed header: " + "; ".join(detail))
    if len(lines) == 1:
        raise DataFormatError(f"{p}: no data rows")
    cols = {name: [] for name in expected}
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(expected):
            raise DataFormatError(
                f"{p}:{lineno}: expected {len(expected)} fields, got {len(parts)}")
        for name, raw in zip(expected, parts):
            try:
                value = float(raw)
            except ValueError:
                raise DataFormatError(
                    f"{p}:{lineno}: column {name!r} has non-numeric value {raw!r}") from None
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{p}:{lineno}: column {name!r} has non-finite value {raw!r}")
            cols[name].append(value)
    return {name: np.asarray(vals, dtype=float) for name, vals in cols.items()}


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every output file."""

    command: str
    argv: tuple[str, ...]
    seed: int
    version: str
    config: dict
    outputs: tuple[str, ...]
    timestamp: str = field(default="")

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "argv": list(self.argv),
            "seed": self.seed,
            "version": self.version,
            "config": self.config,
            "outputs": list(self.outputs),
            "timestamp": self.timestamp or datetime.now(timezone.utc).isoformat(),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def manifest_path_for(output_path) -> Path:
    p = Path(output_path)
    return p.with_name(p.stem + ".manifest.json")


def write_manifest(output_path, command: str, seed: int, version: str,
                   config: dict, argv: Sequence[str] | None = None) -> Path:
    mp = manifest_path_for(output_path)
    manifest = RunManifest(
        command=command,
        argv=tuple(argv if argv is not None else sys.argv),
        seed=seed,
        version=version,
        config=config,
        outputs=(Path(output_path).name,),
    )
    mp.write_text(manifest.to_json(), encoding="utf-8", newline="\n")
    return mp


def sample_shots(probabilities: np.ndarray, shots: int | None,
                 rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Binomial shot sampling; shots None (or 0) passes probabilities through.

    Returns (estimates, shots_column_value) with 0 marking noiseless data.
    """
    p = np.asarray(probabilities, dtype=float)
    if shots is None or shots == 0:
        return p, 0
    if shots < 1:
        raise ValueError("shots must be >= 1 or None")
    counts = rng.binomial(shots, np.clip(p, 0.0, 1.0))
    return counts / float(shots), int(shots)
