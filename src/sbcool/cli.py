"""Command-line front end.

Exit codes: 0 success, 1 stdout closed by its reader, 2 configuration or
data-format error, 3 numerical failure (integration, truncation, or fit
breakdown).  Every run that writes a file also writes `<stem>.manifest.json`
beside it; CSV bytes are reproducible for a fixed config + seed, manifests
carry the only timestamp.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import CONFIG_ENV_VAR, ExperimentConfig, load_config
from .cooling import (
    build_schedule,
    heat_distribution,
    schedule_total_time,
    simulate_cooling,
)
from .dynamics import ScanResult, fock_cutoff_for_dynamics, simulate_flop, simulate_scan
from .errors import ConfigError, DataFormatError, FitError, IntegrationError, TruncationError
from .ion import ground_state_extent, lamb_dicke_eff, sideband_rabi
from .qcore import FockDistribution, mean_phonon, thermal_distribution, thermal_fock_cutoff
from .runio import (
    COOL_HEADER,
    DIST_HEADER,
    FLOP_HEADER,
    HEATRATE_HEADER,
    SCAN_HEADER,
    read_csv,
    sample_shots,
    write_csv,
    write_manifest,
)
from .thermometry import (
    FitResult,
    doppler_limit,
    fit_heating_rate,
    fit_nbar_flop,
    fit_nbar_spectra,
    noise_density,
)

FIT_HEADER = ("nbar", "nbar_err", "residual_norm", "n_evaluations")
RATE_HEADER = ("ndot_per_s", "ndot_err", "residual_norm")


def _shots_arg(raw: str) -> int:
    """--shots N|inf; inf (or 0) means noiseless probabilities."""
    if raw.lower() in ("inf", "none", "noiseless"):
        return 0
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError("shots must be >= 0 or 'inf'")
    return value


def _finite_arg(raw: str) -> float:
    """A number other than nan or inf."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _jobs_arg(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("jobs must be >= 1")
    return value


def _parse_overrides(pairs: list[str] | None) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def _load(args: argparse.Namespace) -> ExperimentConfig:
    return load_config(args.config, _parse_overrides(getattr(args, "set", None)))


def _manifest(output_path, args: argparse.Namespace, cfg: ExperimentConfig) -> None:
    write_manifest(output_path, args.command, cfg.seed, __version__, cfg.as_dict(),
                   argv=args.argv)


def _trimmed(dist: FockDistribution, n_support: int, pad: int = 8) -> FockDistribution:
    """Cut a long distribution to scan size; loss is recorded.

    Pulsed cooling leaves a flat residual tail of order 1e-6 per level, so
    the support is cut at n_support (renormalised) and pad zero levels are
    appended; the integrator's top-level guard then measures real spillover
    rather than the carried-in tail.
    """
    cut = min(dist.n_max, n_support)
    head = np.array(dist.populations[: cut + 1])
    loss = float(max(1.0 - head.sum(), 0.0))
    out = np.zeros(cut + 1 + pad)
    out[: cut + 1] = head / head.sum()
    return FockDistribution(out, truncation_loss=dist.truncation_loss + loss)


# ---------------------------------------------------------------------------
# commands


def cmd_constants(args: argparse.Namespace) -> int:
    cfg = _load(args)
    trap = cfg.trap()
    eta = lamb_dicke_eff(trap)
    rows = [
        ("z0_m", ground_state_extent(trap)),
        ("eta_eff", eta),
        ("sideband_rabi_n1_hz", cfg.sideband_rabi_1_hz()),
        ("sideband_rabi_derived_hz", sideband_rabi(1, "red", eta, cfg.carrier_rabi_hz)),
        ("doppler_limit_nbar", doppler_limit(cfg.doppler_linewidth_hz, cfg.nu_z_hz)),
        ("noise_density_v2_m2", noise_density(cfg.heating_rate_per_s, cfg.nu_z_hz,
                                              cfg.mass_amu)),
        ("heating_rate_per_s", cfg.heating_rate_per_s),
    ]
    for key, value in rows:
        print(f"{key} = {value:.6g}")
    return 0


def _scan_grid(center: float, span: float, points: int) -> np.ndarray:
    if span <= 0 or points < 2:
        raise ConfigError("span must be > 0 and points >= 2")
    return np.linspace(center - span / 2.0, center + span / 2.0, points)


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = _load(args)
    probe = cfg.probe(args.sideband, model=args.model)
    center = args.center if args.center is not None else probe.resonance_hz()
    detunings = _scan_grid(center, args.span, args.points)
    t_probe = args.probe_time if args.probe_time is not None else cfg.probe_time_s
    heating = cfg.heating() if args.probe_heating else None
    result = simulate_scan(probe, detunings, t_probe, args.nbar,
                           heating=heating, jobs=args.jobs)
    rng = np.random.default_rng(cfg.seed)
    shots = args.shots if args.shots is not None else cfg.shots_per_point
    p, shots_col = sample_shots(result.p_f1, shots, rng)
    rows = [(d, pv, shots_col) for d, pv in zip(result.x, p)]
    write_csv(args.out, SCAN_HEADER, rows)
    _manifest(args.out, args, cfg)
    print(f"wrote {args.out} ({len(rows)} points, sideband={args.sideband})")
    return 0


def cmd_flop(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if args.tmax <= 0 or args.points < 2:
        raise ConfigError("tmax must be > 0 and points >= 2")
    times = np.linspace(0.0, args.tmax, args.points)
    probe = cfg.probe(args.sideband, model=args.model)
    heating = cfg.heating() if not args.no_heating else None
    result = simulate_flop(probe, times, args.nbar, heating=heating)
    rng = np.random.default_rng(cfg.seed)
    shots = args.shots if args.shots is not None else 0
    p, shots_col = sample_shots(result.p_f1, shots, rng)
    rows = [(t, pv, shots_col) for t, pv in zip(result.x, p)]
    write_csv(args.out, FLOP_HEADER, rows)
    _manifest(args.out, args, cfg)
    print(f"wrote {args.out} ({len(rows)} points, sideband={args.sideband})")
    return 0


def cmd_cool(args: argparse.Namespace) -> int:
    cfg = _load(args)
    n_start = args.nstart if args.nstart is not None else cfg.n_start
    nbar0 = args.nbar0 if args.nbar0 is not None else cfg.doppler_nbar
    schedule = build_schedule(n_start, cfg.sideband_rabi_1_hz(), cfg.repump())
    dist0 = thermal_distribution(nbar0, thermal_fock_cutoff(nbar0))
    result = simulate_cooling(dist0, schedule, cfg.heating(), cfg.repump())
    rows = list(zip(result.pulse_index, result.nbar, result.t_elapsed_s))
    write_csv(args.out, COOL_HEADER, rows)
    _manifest(args.out, args, cfg)
    if args.dist_out:
        dist_rows = list(enumerate(result.final.populations))
        write_csv(args.dist_out, DIST_HEADER, dist_rows)
        _manifest(args.dist_out, args, cfg)
    total = schedule_total_time(schedule)
    drive = schedule_total_time(schedule, kinds=("red_sideband",))
    print(f"final nbar = {mean_phonon(result.final):.4f}")
    print(f"ground-state population = {result.final.populations[0]:.4f}")
    print(f"schedule time: {total * 1e3:.2f} ms total, {drive * 1e3:.2f} ms drive-only")
    print(f"wrote {args.out}")
    return 0


def _fit_pair(cfg: ExperimentConfig, red: ScanResult, blue: ScanResult,
              forward: str) -> FitResult:
    """Thermal nbar of a red/blue sideband scan pair taken with cfg's probe."""
    return fit_nbar_spectra(red, blue, cfg.nu_z_hz, cfg.sideband_rabi_1_hz(),
                            cfg.dressing_rabi_hz, cfg.probe_time_s, forward=forward)


def _fit_rate(delays, nbars, errors) -> FitResult:
    """Line through nbar(delay), weighted unless an error is zero (no error
    bar); a negative error raises DataFormatError."""
    if min(errors) < 0:
        raise DataFormatError(f"nbar_err must be >= 0 (0 = no error bar), got {min(errors):g}")
    use_err = all(e > 0 for e in errors)
    return fit_heating_rate(delays, nbars, errors if use_err else None)


def _read_out(cfg: ExperimentConfig, delays: list[float],
              probe_heating: bool) -> tuple[FockDistribution, list[tuple]]:
    """Cool once; for each delay heat, scan both sidebands and fit the pair.

    Returns the cooled distribution and one (delay, {sideband: scan}, fit)
    per delay.
    """
    schedule = build_schedule(cfg.n_start, cfg.sideband_rabi_1_hz(), cfg.repump())
    dist0 = thermal_distribution(cfg.doppler_nbar, thermal_fock_cutoff(cfg.doppler_nbar))
    cooled = simulate_cooling(dist0, schedule, cfg.heating(), cfg.repump()).final

    ndot = cfg.heating_rate_per_s
    max_delay = max(delays)
    n_support = fock_cutoff_for_dynamics(mean_phonon(cooled), ndot, max_delay)
    # the residual cooling tail diffuses by sigma = sqrt(ndot t (2n+1)) during
    # the delay; pad past 2 sigma so the top-level guard sees real spillover
    sigma = math.sqrt(max(ndot * max_delay, 0.0) * (2 * n_support + 1))
    base = _trimmed(cooled, n_support, pad=8 + math.ceil(2.0 * sigma))

    heating = cfg.heating() if probe_heating else None
    readouts = []
    for delay in delays:
        dist = heat_distribution(base, ndot, delay)
        scans = {}
        for sideband in ("red", "blue"):
            probe = cfg.probe(sideband)
            grid = _scan_grid(probe.resonance_hz(), 4000.0, 41)
            scans[sideband] = simulate_scan(probe, grid, cfg.probe_time_s, dist,
                                            heating=heating)
        fit = _fit_pair(cfg, scans["red"], scans["blue"], "analytic")
        readouts.append((delay, scans, fit))
    return cooled, readouts


def _heatrate(cfg: ExperimentConfig, delays: list[float],
              probe_heating: bool) -> tuple[list[tuple], FitResult]:
    """Heating-rate rows (delay, nbar, nbar_err) and the line through them."""
    _, readouts = _read_out(cfg, delays, probe_heating)
    rows = [(delay, fit.value, fit.std_error) for delay, _, fit in readouts]
    return rows, _fit_rate(*zip(*rows))


def cmd_heatrate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    delays = sorted(float(d) for d in args.delays.split(","))
    if not all(math.isfinite(d) and d >= 0 for d in delays):
        raise ConfigError(f"delays must be finite and >= 0, got {args.delays!r}")
    if len(set(delays)) < 2:
        raise ConfigError(f"need at least two distinct delays, got {args.delays!r}")
    rows, rate = _heatrate(cfg, delays, args.probe_heating)
    for delay, nbar, err in rows:
        print(f"delay {delay * 1e3:8.3f} ms: nbar = {nbar:.4f} +- {err:.4f}")
    print(f"heating rate = {rate.value:.2f} +- {rate.std_error:.2f} quanta/s")
    if args.out:
        write_csv(args.out, HEATRATE_HEADER, rows)
        _manifest(args.out, args, cfg)
        print(f"wrote {args.out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if args.mode == "spectra":
        if len(args.files) != 2:
            raise ConfigError("spectra mode needs two files: red.csv blue.csv")
        red_cols = read_csv(args.files[0], SCAN_HEADER)
        blue_cols = read_csv(args.files[1], SCAN_HEADER)
        red = ScanResult(red_cols["detuning_hz"], red_cols["p_f1"])
        blue = ScanResult(blue_cols["detuning_hz"], blue_cols["p_f1"])
        fit = _fit_pair(cfg, red, blue, args.forward)
        label = "nbar"
    elif args.mode == "flop":
        if len(args.files) != 1:
            raise ConfigError("flop mode needs one file")
        cols = read_csv(args.files[0], FLOP_HEADER)
        flop = ScanResult(cols["time_s"], cols["p_f1"])
        fit = fit_nbar_flop(flop, cfg.sideband_rabi_1_hz())
        label = "nbar"
    elif args.mode == "heatrate":
        if len(args.files) != 1:
            raise ConfigError("heatrate mode needs one file")
        cols = read_csv(args.files[0], HEATRATE_HEADER)
        fit = _fit_rate(cols["delay_s"], cols["nbar"], cols["nbar_err"])
        label = "ndot_per_s"
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown mode {args.mode!r}")
    print(f"{label} = {fit.value:.6g}")
    print(f"std_error = {fit.std_error:.6g}")
    print(f"residual_norm = {fit.residual_norm:.6g}")
    print(f"n_evaluations = {fit.n_evaluations}")
    return 0


def _repro_fig1(args: argparse.Namespace, cfg: ExperimentConfig,
                outdir: Path) -> None:
    """Sideband spectra of the cooled ion plus the thermal fit."""
    cooled, [(_, scans, fit)] = _read_out(cfg, [0.0], probe_heating=False)
    for sideband, scan in scans.items():
        out = outdir / f"scan_{sideband}.csv"
        write_csv(out, SCAN_HEADER, [(d, p, 0) for d, p in zip(scan.x, scan.p_f1)])
        _manifest(out, args, cfg)
    out = outdir / "fit_report.csv"
    write_csv(out, FIT_HEADER, [(fit.value, fit.std_error, fit.residual_norm,
                                 fit.n_evaluations)])
    _manifest(out, args, cfg)
    print(f"cooled nbar = {mean_phonon(cooled):.4f}; fitted nbar = {fit.value:.4f}")


def _repro_fig2(args: argparse.Namespace, cfg: ExperimentConfig,
                outdir: Path) -> None:
    """Heating-rate pipeline: cooled, delayed, scanned, fitted."""
    rows, rate = _heatrate(cfg, [0.0, 5e-3, 10e-3], probe_heating=False)
    out = outdir / "heatrate.csv"
    write_csv(out, HEATRATE_HEADER, rows)
    _manifest(out, args, cfg)
    out = outdir / "rate_report.csv"
    write_csv(out, RATE_HEADER, [(rate.value, rate.std_error, rate.residual_norm)])
    _manifest(out, args, cfg)
    print(f"fitted heating rate = {rate.value:.2f} +- {rate.std_error:.2f} quanta/s")


def _repro_fig3(args: argparse.Namespace, cfg: ExperimentConfig,
                outdir: Path) -> None:
    """Long sideband flops of the cooled ion with heating active.

    Uses the reproduction parameter set: sideband Rabi 350 Hz, initial
    n_bar 0.13, heating at the configured rate.
    """
    cfg = ExperimentConfig(**{**cfg.as_dict(), "sideband_rabi_hz": 350.0})
    times = np.linspace(0.0, 10e-3, 201)
    for sideband in ("red", "blue"):
        probe = cfg.probe(sideband)
        result = simulate_flop(probe, times, 0.13, heating=cfg.heating())
        out = outdir / f"flop_{sideband}.csv"
        rows = [(t, p, 0) for t, p in zip(result.x, result.p_f1)]
        write_csv(out, FLOP_HEADER, rows)
        _manifest(out, args, cfg)
        print(f"wrote {out}")


def cmd_repro(args: argparse.Namespace) -> int:
    cfg = _load(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.target == "fig1":
        _repro_fig1(args, cfg, outdir)
    elif args.target == "fig2":
        _repro_fig2(args, cfg, outdir)
    else:
        _repro_fig3(args, cfg, outdir)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help=f"config file path (default: ${CONFIG_ENV_VAR} if set)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")

    parser = argparse.ArgumentParser(
        prog="sbcool",
        description="Sideband cooling and motional thermometry toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("constants", parents=[common],
                   help="print derived quantities for the configuration")

    p = sub.add_parser("scan", parents=[common],
                       help="simulate a sideband spectrum and write CSV")
    p.add_argument("--sideband", choices=("red", "blue"), required=True)
    p.add_argument("--center", type=_finite_arg, default=None,
                   help="grid centre, Hz from carrier (default: sideband resonance)")
    p.add_argument("--span", type=_finite_arg, default=4000.0)
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--probe-time", type=_finite_arg, default=None)
    p.add_argument("--nbar", type=_finite_arg, default=0.13)
    p.add_argument("--shots", type=_shots_arg, default=None,
                   help="shots per point, or 'inf' for noiseless (default: config)")
    p.add_argument("--model", choices=("effective", "full_dressed"), default="effective")
    p.add_argument("--probe-heating", action="store_true",
                   help="include heating during the probe window")
    p.add_argument("--jobs", type=_jobs_arg, default=1,
                   help="processes for heated scan points, never more than the detunings; "
                        "a closed scan is one batched solve")
    p.add_argument("--out", required=True)

    p = sub.add_parser("flop", parents=[common],
                       help="simulate a resonant sideband flop and write CSV")
    p.add_argument("--sideband", choices=("red", "blue"), required=True)
    p.add_argument("--tmax", type=_finite_arg, required=True)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--nbar", type=_finite_arg, default=0.13)
    p.add_argument("--shots", type=_shots_arg, default=None,
                   help="shots per point, or 'inf' for noiseless (default: noiseless)")
    p.add_argument("--model", choices=("effective", "full_dressed"), default="effective")
    p.add_argument("--no-heating", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("cool", parents=[common],
                       help="run the pulsed cooling schedule (rate map)")
    p.add_argument("--nstart", type=int, default=None)
    p.add_argument("--nbar0", type=_finite_arg, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--dist-out", default=None,
                   help="also write the final Fock distribution")

    p = sub.add_parser("heatrate", parents=[common],
                       help="closed-loop heating-rate measurement")
    p.add_argument("--delays", required=True,
                   help="comma-separated delays in seconds, e.g. 0,5e-3,10e-3")
    p.add_argument("--probe-heating", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("fit", parents=[common],
                       help="fit recorded CSV data")
    p.add_argument("files", nargs="+",
                   help="spectra: exactly two scan files, red then blue; "
                        "flop: one red-sideband flop file; heatrate: one "
                        "delay/nbar file")
    p.add_argument("--mode", choices=("spectra", "flop", "heatrate"), required=True)
    p.add_argument("--forward", choices=("analytic", "integrate"), default="analytic",
                   help="forward model for spectra mode")

    p = sub.add_parser("repro", parents=[common],
                       help="write a reference reproduction bundle")
    p.add_argument("target", choices=("fig1", "fig2", "fig3"),
                   help="fig1: spectra+fit, fig2: heating rate, fig3: long flops")
    p.add_argument("--outdir", required=True)

    return parser


_DISPATCH = {
    "constants": cmd_constants,
    "scan": cmd_scan,
    "flop": cmd_flop,
    "cool": cmd_cool,
    "heatrate": cmd_heatrate,
    "fit": cmd_fit,
    "repro": cmd_repro,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    # manifests record this run's own command line, also when main is called in-process
    args.argv = (parser.prog, *argv)
    try:
        return _DISPATCH[args.command](args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (IntegrationError, TruncationError, FitError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DataFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send the rest to devnull, so the exit flush cannot raise
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
