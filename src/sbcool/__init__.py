"""Sideband cooling and motional thermometry for a static-gradient RF trap.

The package simulates ground-state cooling of a single trapped ion whose
motional sidebands are driven by long-wavelength radiation in a static
magnetic-field gradient, and provides the fitting tools used to read a mean
phonon number or a heating rate back out of the simulated (or recorded)
signals.
"""

__version__ = "0.1.0"

from .config import CONFIG_ENV_VAR, ExperimentConfig, load_config, parse_config_text
from .cooling import (
    CoolingResult,
    PulseSchedule,
    PulseSpec,
    RepumpModel,
    build_schedule,
    heat_distribution,
    schedule_total_time,
    simulate_cooling,
    simulate_cooling_quantum,
)
from .dynamics import (
    HeatingChannel,
    LindbladModel,
    ScanResponse,
    ScanResult,
    SidebandProbe,
    evolve_lindblad,
    evolve_unitary,
    fock_cutoff_for_dynamics,
    heating_collapse_ops,
    simulate_flop,
    simulate_scan,
)
from .errors import (
    ConfigError,
    DataFormatError,
    FitError,
    IntegrationError,
    TruncationError,
)
from .ion import (
    EFFECTIVE_LABELS,
    SPIN_LABELS,
    PhysicalConstants,
    TrapParams,
    build_dressed_rf_hamiltonian,
    effective_two_level_hamiltonian,
    four_level_space,
    ground_state_extent,
    lamb_dicke_eff,
    sideband_rabi,
    two_level_space,
)
from .qcore import (
    DensityMatrix,
    FockBasis,
    FockDistribution,
    Operator,
    ProductSpace,
    SpinBasis,
    embed_op,
    identity_op,
    lowering_op,
    mean_phonon,
    motional_populations,
    tensor,
    thermal_density,
    thermal_distribution,
    thermal_fock_cutoff,
)
from .thermometry import (
    FitResult,
    doppler_limit,
    fit_heating_rate,
    fit_nbar_flop,
    fit_nbar_spectra,
    noise_density,
    ratio_to_nbar,
    sideband_probability,
    sideband_scan_probability,
)

__all__ = [
    "__version__",
    # config
    "CONFIG_ENV_VAR", "ExperimentConfig", "load_config", "parse_config_text",
    # cooling
    "CoolingResult", "PulseSchedule", "PulseSpec", "RepumpModel",
    "build_schedule", "heat_distribution", "schedule_total_time",
    "simulate_cooling", "simulate_cooling_quantum",
    # dynamics
    "HeatingChannel", "LindbladModel", "ScanResponse",
    "ScanResult", "SidebandProbe", "evolve_lindblad", "evolve_unitary",
    "fock_cutoff_for_dynamics", "heating_collapse_ops", "simulate_flop",
    "simulate_scan",
    # errors
    "ConfigError", "DataFormatError", "FitError", "IntegrationError",
    "TruncationError",
    # ion
    "EFFECTIVE_LABELS", "SPIN_LABELS", "PhysicalConstants",
    "TrapParams", "build_dressed_rf_hamiltonian",
    "effective_two_level_hamiltonian", "four_level_space",
    "ground_state_extent", "lamb_dicke_eff", "sideband_rabi",
    "two_level_space",
    # qcore
    "DensityMatrix", "FockBasis", "FockDistribution", "Operator",
    "ProductSpace", "SpinBasis", "embed_op", "identity_op", "lowering_op",
    "mean_phonon", "motional_populations", "tensor", "thermal_density",
    "thermal_distribution", "thermal_fock_cutoff",
    # thermometry
    "FitResult", "doppler_limit", "fit_heating_rate", "fit_nbar_flop",
    "fit_nbar_spectra", "noise_density", "ratio_to_nbar",
    "sideband_probability", "sideband_scan_probability",
]
