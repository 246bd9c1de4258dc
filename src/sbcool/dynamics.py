"""Open-system dynamics: Lindblad integration, motional heating, and the
sideband flop / spectrum simulation drivers.

The heating channel is the infinite-temperature electric-field-noise limit:
jump operators sqrt(ndot) a' and sqrt(ndot) a with equal rates, which drives
d<N>/dt = ndot for any state.

Each evolve_lindblad call builds the generator once, as one sparse
superoperator on the row-major flattened density matrix.  Only the entries in
the connected components of its sparsity graph that hold rho0's nonzero
entries are integrated; no term couples them to any other entry, so every
other entry stays exactly zero.  For the sideband models with a diagonal rho0
that is the block of equal excitation number on both sides of rho.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Literal, Sequence, Union

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components

from .errors import IntegrationError, TruncationError
from .ion import (
    DriveField,
    IonLevels,
    TrapParams,
    build_dressed_rf_hamiltonian,
    effective_two_level_hamiltonian,
    four_level_space,
    two_level_space,
)
from .qcore import (
    DensityMatrix,
    FockBasis,
    FockDistribution,
    Operator,
    ProductSpace,
    distribution_density,
    identity_op,
    lowering_op,
    motional_populations,
    tensor,
    thermal_distribution,
)

__all__ = [
    "HeatingChannel",
    "IntegratorConfig",
    "LindbladModel",
    "FlopResult",
    "ScanResponse",
    "ScanResult",
    "SidebandProbe",
    "heating_collapse_ops",
    "evolve_lindblad",
    "evolve_unitary",
    "fock_cutoff_for_dynamics",
    "f1_projector",
    "scan_response",
    "simulate_flop",
    "simulate_scan",
]

# Population allowed in the top Fock level before results are rejected.
TOP_LEVEL_TOL = 1e-6
# Trace drift above this aborts with diagnostics; the contract at default
# tolerances is tighter (< 1e-8) and is asserted by tests.
TRACE_DRIFT_ABORT = 1e-6


@dataclass(frozen=True)
class HeatingChannel:
    """Motional heating at ndot quanta per second (infinite-T limit)."""

    n_dot: float

    def __post_init__(self) -> None:
        if self.n_dot < 0:
            raise ValueError("n_dot must be >= 0")


@dataclass(frozen=True)
class IntegratorConfig:
    """Integrator selection and tolerances.

    method      "adaptive" (RK45 via scipy) or "fixed_step_rk4"
    max_step_s  step bound; required (> 0) for the fixed-step method
    rel_tol     relative tolerance of the adaptive method
    abs_tol     absolute tolerance of the adaptive method
    """

    method: str = "adaptive"
    max_step_s: float = math.inf
    rel_tol: float = 1e-8
    abs_tol: float = 1e-11

    def __post_init__(self) -> None:
        if self.method not in ("adaptive", "fixed_step_rk4"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.max_step_s <= 0:
            raise ValueError("max_step_s must be > 0")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.method == "fixed_step_rk4" and not math.isfinite(self.max_step_s):
            raise ValueError("fixed_step_rk4 requires a finite max_step_s")


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian (rad/s) plus a list of collapse operators on one space."""

    hamiltonian: Operator
    collapse_ops: tuple[Operator, ...] = ()

    def __post_init__(self) -> None:
        if not self.hamiltonian.is_hermitian(1e-12):
            raise ValueError("hamiltonian is not Hermitian")
        for op in self.collapse_ops:
            if op.space.dim != self.hamiltonian.space.dim:
                raise ValueError("collapse operator dimension mismatch")
        object.__setattr__(self, "collapse_ops", tuple(self.collapse_ops))

    @property
    def space(self):
        return self.hamiltonian.space


def heating_collapse_ops(channel: HeatingChannel, space) -> list[Operator]:
    """[sqrt(ndot) a', sqrt(ndot) a] lifted to the given space.

    Rate zero returns two zero operators.
    """
    if isinstance(space, ProductSpace):
        a_op = tensor(identity_op(space.spin), lowering_op(space.fock))
    elif isinstance(space, FockBasis):
        a_op = lowering_op(space)
    else:
        raise TypeError("space must be a FockBasis or ProductSpace")
    root = math.sqrt(channel.n_dot)
    return [a_op.dagger() * root, a_op * root]


def _nonzero_ops(ops: Sequence[Operator]) -> list[np.ndarray]:
    return [op.matrix for op in ops if np.abs(op.matrix).max() > 0.0]


def _generator(h_mat: np.ndarray, l_mats: list[np.ndarray]) -> sp.csr_array:
    """-i[H, .] + sum_k D[L_k] as a sparse matrix on row-major vec(rho).

    Built from vec(A rho B) = (A kron B.T) vec(rho), every term literally
    (no rho = rho' shortcut): shortcuts of that kind make roundoff-sized
    Hermiticity errors grow exponentially under strong dissipation instead of
    staying contractive.
    """
    eye = sp.eye_array(h_mat.shape[0], dtype=complex, format="csr")
    h = sp.csr_array(h_mat)
    gen = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
    for l_mat in l_mats:
        l = sp.csr_array(l_mat)
        ldl = l.conj().T @ l
        gen = gen + sp.kron(l, l.conj()) - 0.5 * (sp.kron(ldl, eye) + sp.kron(eye, ldl.T))
    return sp.csr_array(gen)


def _rk4_fixed(rhs, y0: np.ndarray, times: np.ndarray, step: float) -> list[np.ndarray]:
    """Classical RK4 with a fixed step, landing exactly on each output time."""
    out = []
    y = y0.copy()
    t = times[0]
    out.append(y.copy())
    for target in times[1:]:
        while t < target - 1e-15:
            h = min(step, target - t)
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2.0, y + h / 2.0 * k1)
            k3 = rhs(t + h / 2.0, y + h / 2.0 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        out.append(y.copy())
        t = target
    return out


def evolve_lindblad(
    model: LindbladModel,
    rho0: DensityMatrix,
    times: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> list[DensityMatrix]:
    """Integrate drho/dt = -i[H, rho] + sum_k D[L_k] rho at the given times.

    times must be strictly increasing and start at >= 0; integration always
    starts from t = 0 with rho0.  Output states are validated (Hermitian,
    unit trace, positive) with tolerances appropriate for integrator output;
    a state that fails them, or a trace drift beyond 1e-6, raises
    IntegrationError.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("times must be a non-empty 1-D sequence")
    if t[0] < 0 or np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing and start at >= 0")
    if rho0.space.dim != model.space.dim:
        raise ValueError("initial state dimension does not match model")

    dim = model.space.dim
    gen = _generator(model.hamiltonian.matrix, _nonzero_ops(model.collapse_ops))
    rho0_vec = np.array(rho0.matrix, dtype=complex).reshape(-1)
    # Integrate only the weakly connected components that hold rho0's
    # nonzero entries: nothing feeds the rest, which stays exactly zero.
    _, labels = connected_components(gen != 0, directed=True, connection="weak")
    keep = np.flatnonzero(np.isin(labels, labels[rho0_vec != 0]))
    sub = gen[keep][:, keep]
    y0 = rho0_vec[keep]

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        return sub @ y

    eval_times = t if t[0] == 0.0 else np.concatenate([[0.0], t])

    if cfg.method == "fixed_step_rk4":
        ys = _rk4_fixed(rhs, y0, eval_times, cfg.max_step_s)
    else:
        if eval_times[-1] == 0.0:
            ys = [y0]
        else:
            sol = solve_ivp(
                rhs,
                (0.0, float(eval_times[-1])),
                y0,
                method="RK45",
                t_eval=eval_times,
                rtol=cfg.rel_tol,
                atol=cfg.abs_tol,
                max_step=cfg.max_step_s,
            )
            if not sol.success:
                raise IntegrationError(f"integrator failed: {sol.message}")
            ys = [sol.y[:, i] for i in range(sol.y.shape[1])]

    if t[0] != 0.0:
        ys = ys[1:]

    states = []
    for i, y in enumerate(ys):
        rho = np.zeros((dim, dim), dtype=complex)
        rho.flat[keep] = y
        drift = abs(rho.trace() - 1.0)
        if drift > TRACE_DRIFT_ABORT:
            raise IntegrationError(
                f"trace drift {drift:.3e} at t={t[i]:.6g} s exceeds {TRACE_DRIFT_ABORT:.0e}")
        rho = (rho + rho.conj().T) / 2.0  # remove roundoff-scale asymmetry only
        try:
            states.append(DensityMatrix(model.space, rho,
                                        herm_tol=1e-10, trace_tol=1e-6, psd_tol=1e-7))
        except ValueError as exc:
            raise IntegrationError(
                f"integrator output at t={t[i]:.6g} s is not a valid state: {exc}") from exc
    return states


def evolve_unitary(hamiltonian: Operator, rho0: DensityMatrix,
                   times: Sequence[float]) -> list[DensityMatrix]:
    """Closed-system evolution by eigendecomposition of a static Hamiltonian.

    Cross-check twin of evolve_lindblad with no collapse operators; exact up
    to the eigensolver, so it also serves keep_carrier studies where the ODE
    route would need prohibitively many steps.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or np.any(t < 0):
        raise ValueError("times must be >= 0")
    evals, vecs = np.linalg.eigh(hamiltonian.matrix)
    rho_eig = vecs.conj().T @ rho0.matrix @ vecs
    out = []
    for ti in t:
        phase = np.exp(-1j * evals * ti)
        rho_t = (phase[:, None] * rho_eig) * phase.conj()[None, :]
        rho = vecs @ rho_t @ vecs.conj().T
        rho = (rho + rho.conj().T) / 2.0
        out.append(DensityMatrix(hamiltonian.space, rho,
                                 herm_tol=1e-10, trace_tol=1e-9, psd_tol=1e-7))
    return out


FOCK_CUTOFF_CEILING = 1500


def fock_cutoff_for_dynamics(n_bar0: float, n_dot: float, t_max: float) -> int:
    """Truncation policy: n_max = max(20, ceil(20 (n_bar0 + ndot t_max + 1))).

    Raises TruncationError when the policy would ask for a space too large to
    hold a density matrix; pass n_max explicitly to override the ceiling.
    """
    n_max = max(20, int(math.ceil(20.0 * (n_bar0 + n_dot * t_max + 1.0))))
    if n_max > FOCK_CUTOFF_CEILING:
        raise TruncationError(
            f"cutoff policy wants n_max = {n_max} > ceiling {FOCK_CUTOFF_CEILING}; "
            f"the problem (n_bar0 = {n_bar0:g}, n_dot t = {n_dot * t_max:g}) is too "
            f"hot for a density-matrix run; pass n_max explicitly to override")
    return n_max


def _check_top(top: float) -> None:
    if top > TOP_LEVEL_TOL:
        raise TruncationError(
            f"top Fock level holds {top:.3e} > {TOP_LEVEL_TOL:.0e}; raise n_max")


def _check_top_level(state: DensityMatrix) -> None:
    _check_top(float(motional_populations(state)[-1]))


def f1_projector(space: ProductSpace) -> Operator:
    """Readout observable: probability NOT in |0'>.

    Ideal detection maps |0'> to the dark outcome and every other internal
    level to the bright (F=1) outcome, so P(F=1) = 1 - P(|0'>).
    """
    eye = np.eye(space.dim, dtype=complex)
    idx0 = space.spin.index("0'")
    fd = space.fock.dim
    proj_dark = np.zeros((space.dim, space.dim), dtype=complex)
    sl = slice(idx0 * fd, (idx0 + 1) * fd)
    proj_dark[sl, sl] = np.eye(fd)
    return Operator(space, eye - proj_dark)


@dataclass(frozen=True)
class FlopResult:
    """Time series of the F=1 population."""

    x: np.ndarray
    p_f1: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p_f1, dtype=float)
        _validate_series(x, p, "time")
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "p_f1", _freeze(np.clip(p, 0.0, 1.0)))


@dataclass(frozen=True)
class ScanResult:
    """F=1 population versus probe detuning from the carrier (Hz)."""

    x: np.ndarray
    p_f1: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p_f1, dtype=float)
        _validate_series(x, p, "detuning")
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "p_f1", _freeze(np.clip(p, 0.0, 1.0)))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _validate_series(x: np.ndarray, p: np.ndarray, what: str) -> None:
    if x.ndim != 1 or p.shape != x.shape:
        raise ValueError("x and p_f1 must be matching 1-D arrays")
    if np.any(np.diff(x) <= 0):
        raise ValueError(f"{what} grid must be strictly increasing")
    if p.min() < -1e-7 or p.max() > 1.0 + 1e-7:
        raise ValueError(f"probabilities outside [0, 1]: [{p.min()}, {p.max()}]")


@dataclass(frozen=True)
class SidebandProbe:
    """Everything needed to drive one sideband of the dressed transition.

    sideband_rabi_hz overrides the derived eta_eff * carrier product when set
    (> 0); the carrier Rabi is then back-computed so that full-model runs use
    a consistent coupling.
    """

    trap: TrapParams = TrapParams()
    levels: IonLevels = IonLevels()
    carrier_rabi_hz: float = 61.2e3
    dressing_rabi_hz: float = 32e3
    sideband: Literal["red", "blue"] = "red"
    sideband_rabi_hz: float = 0.0
    model: Literal["effective", "full_dressed"] = "effective"
    keep_carrier: bool = False

    def __post_init__(self) -> None:
        if self.carrier_rabi_hz <= 0:
            raise ValueError("carrier_rabi_hz must be > 0")
        if self.dressing_rabi_hz < 0:
            raise ValueError("dressing_rabi_hz must be >= 0")
        if self.sideband not in ("red", "blue"):
            raise ValueError("sideband must be 'red' or 'blue'")
        if self.model not in ("effective", "full_dressed"):
            raise ValueError("model must be 'effective' or 'full_dressed'")
        if self.sideband_rabi_hz < 0:
            raise ValueError("sideband_rabi_hz must be >= 0")

    @property
    def eta_eff(self) -> float:
        from .ion import lamb_dicke_eff
        return lamb_dicke_eff(self.trap)

    @property
    def effective_sideband_rabi_hz(self) -> float:
        """eta * Omega product actually driven, Hz (n = 1 red sideband Rabi)."""
        if self.sideband_rabi_hz > 0:
            return self.sideband_rabi_hz
        return self.eta_eff * self.carrier_rabi_hz

    @property
    def effective_carrier_rabi_hz(self) -> float:
        if self.sideband_rabi_hz > 0:
            return self.sideband_rabi_hz / self.eta_eff
        return self.carrier_rabi_hz

    def hamiltonian(self, space: ProductSpace, detuning_hz: float) -> Operator:
        if self.model == "effective":
            return effective_two_level_hamiltonian(
                self.eta_eff, self.effective_carrier_rabi_hz, self.trap.nu_z_hz,
                detuning_hz, space, sideband=self.sideband,
                keep_carrier=self.keep_carrier)
        dressing = (
            DriveField("microwave_dressing", self.dressing_rabi_hz,
                       target_transition=("0", "+1")),
            DriveField("microwave_dressing", self.dressing_rabi_hz,
                       target_transition=("0", "-1")),
        )
        probe = DriveField("rf_probe", self.effective_carrier_rabi_hz,
                           detuning_hz=detuning_hz, target_transition=("0'", "+1"))
        return build_dressed_rf_hamiltonian(
            self.trap, self.levels, dressing, probe, space,
            sideband=self.sideband, keep_carrier=self.keep_carrier)

    def space(self, n_max: int) -> ProductSpace:
        if self.model == "effective":
            return two_level_space(n_max)
        return four_level_space(n_max)

    def resonance_hz(self) -> float:
        return -self.trap.nu_z_hz if self.sideband == "red" else self.trap.nu_z_hz


InitialState = Union[float, FockDistribution]


def _initial_distribution(initial: InitialState, n_max: int) -> FockDistribution:
    if isinstance(initial, FockDistribution):
        if initial.n_max == n_max:
            return initial
        if initial.n_max > n_max:
            raise ValueError("initial distribution exceeds the chosen n_max")
        pad = np.zeros(n_max + 1)
        pad[: initial.n_max + 1] = initial.populations
        return FockDistribution(pad, truncation_loss=initial.truncation_loss)
    return thermal_distribution(float(initial), n_max)


def _pick_n_max(initial: InitialState, n_dot: float, t_max: float) -> int:
    n_bar0 = mean_of_initial(initial)
    n_max = fock_cutoff_for_dynamics(n_bar0, n_dot, t_max)
    if isinstance(initial, FockDistribution):
        n_max = max(n_max, initial.n_max)
    return n_max


def mean_of_initial(initial: InitialState) -> float:
    if isinstance(initial, FockDistribution):
        p = initial.populations
        return float(np.dot(np.arange(p.size), p))
    return float(initial)


def simulate_flop(
    probe: SidebandProbe,
    times: Sequence[float],
    initial: InitialState,
    heating: HeatingChannel | None = None,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_max: int | None = None,
) -> FlopResult:
    """Resonant sideband flop: P(F=1) versus probe duration.

    The probe sits exactly on the addressed sideband; the initial state is
    |0'> (x) thermal(n_bar) or an explicit Fock distribution.  Truncation is
    chosen by the documented cutoff policy and checked post hoc.
    """
    t = np.asarray(times, dtype=float)
    n_dot = heating.n_dot if heating is not None else 0.0
    if n_max is None:
        n_max = _pick_n_max(initial, n_dot, float(t[-1]))
    space = probe.space(n_max)
    dist0 = _initial_distribution(initial, n_max)
    rho0 = distribution_density(dist0, space, "0'")
    h = probe.hamiltonian(space, probe.resonance_hz())
    model = LindbladModel(h, _heating_ops(heating, space))
    states = evolve_lindblad(model, rho0, t, cfg)
    _check_top_level(states[-1])
    proj = f1_projector(space)
    p = np.array([float(np.real(np.sum(proj.matrix.T * s.matrix))) for s in states])
    return FlopResult(t, p)


def _heating_ops(heating: HeatingChannel | None, space) -> tuple[Operator, ...]:
    if heating is None or heating.n_dot == 0:
        return ()
    return tuple(heating_collapse_ops(heating, space))


def _scan_point(args) -> float:
    probe, delta_hz, t_probe, rho0_mat, space, collapse_mats, cfg = args
    h = probe.hamiltonian(space, delta_hz)
    collapse = tuple(Operator(space, m) for m in collapse_mats)
    model = LindbladModel(h, collapse)
    rho0 = DensityMatrix(space, rho0_mat)
    state = evolve_lindblad(model, rho0, [t_probe], cfg)[-1]
    _check_top_level(state)
    proj = f1_projector(space)
    return float(np.real(np.sum(proj.matrix.T * state.matrix)))


def _scan_grid(detunings_hz: Sequence[float], t_probe_s: float) -> np.ndarray:
    deltas = np.asarray(detunings_hz, dtype=float)
    if deltas.ndim != 1 or deltas.size < 1:
        raise ValueError("detunings must be a non-empty 1-D sequence")
    if t_probe_s <= 0:
        raise ValueError("t_probe_s must be > 0")
    return deltas


def simulate_scan(
    probe: SidebandProbe,
    detunings_hz: Sequence[float],
    t_probe_s: float,
    initial: InitialState,
    heating: HeatingChannel | None = None,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_max: int | None = None,
    jobs: int = 1,
) -> ScanResult:
    """Spectrum: master-equation evolution for t_probe at each detuning.

    detunings_hz are relative to the dressed carrier (so the addressed
    sideband peaks at -nu_z for red, +nu_z for blue).  Points are independent;
    jobs > 1 evaluates them in a process pool with output order fixed by the
    input grid regardless of parallelism.
    """
    deltas = _scan_grid(detunings_hz, t_probe_s)
    n_dot = heating.n_dot if heating is not None else 0.0
    if n_max is None:
        n_max = _pick_n_max(initial, n_dot, t_probe_s)
    space = probe.space(n_max)
    dist0 = _initial_distribution(initial, n_max)
    rho0 = distribution_density(dist0, space, "0'")
    collapse_mats = [op.matrix for op in _heating_ops(heating, space)]

    tasks = [(probe, float(d), float(t_probe_s), rho0.matrix, space, collapse_mats, cfg)
             for d in deltas]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            p = list(pool.map(_scan_point, tasks))
    else:
        p = [_scan_point(task) for task in tasks]
    return ScanResult(deltas, np.asarray(p))


@dataclass(frozen=True)
class ScanResponse:
    """A scan as a linear map of the initial Fock populations of |0'>.

    f1[i, n] is P(F=1) at scan point i for the initial state |0', n>, and
    top[i, n] is the population that state leaves in the top Fock level.  A
    diagonal initial state with populations p reads out f1 @ p.
    """

    f1: np.ndarray
    top: np.ndarray

    def p_f1(self, populations: np.ndarray) -> np.ndarray:
        """f1 @ p; raises TruncationError when top @ p exceeds TOP_LEVEL_TOL."""
        p = np.asarray(populations, dtype=float)
        _check_top(float(np.max(self.top @ p)))
        return self.f1 @ p


def scan_response(
    probe: SidebandProbe,
    detunings_hz: Sequence[float],
    t_probe_s: float,
    n_max: int,
    heating: HeatingChannel | None = None,
) -> ScanResponse:
    """Master-equation response of a scan to every initial level |0', n <= n_max>.

    Built in the Heisenberg picture, two evolve_lindblad calls per detuning
    instead of one per detuning and level: <O>(t) = Tr[O(t) rho0] with O(t)
    evolved by the adjoint generator.  The heating jump set {a', a} is closed
    under the adjoint, so the adjoint dissipator equals the forward one and
    the adjoint generator is the forward one with H -> -H.  Both observables
    are positive and trace-preserved, so they are evolved as the states
    P_dark / Tr and (P_dark + P_top) / Tr and validated like any other
    integrator output; the F=1 and top-level readouts of |0', n> are the
    diagonal entries on the |0'> rows, scaled back by the traces.
    """
    deltas = _scan_grid(detunings_hz, t_probe_s)
    space = probe.space(n_max)
    fd = space.fock.dim
    first = space.index("0'", 0)
    rows = slice(first, first + fd)
    dark = np.zeros(space.dim)
    dark[rows] = 1.0
    top = np.zeros(space.dim)
    top[fd - 1::fd] = 1.0  # level n_max of every spin state
    watched = []
    for obs in (dark, dark + top):
        norm = float(obs.sum())
        watched.append((norm, DensityMatrix(space, np.diag(obs / norm).astype(complex))))
    collapse = _heating_ops(heating, space)
    f1, top_rows = [], []
    for delta in deltas:
        model = LindbladModel(probe.hamiltonian(space, float(delta)) * -1.0, collapse)
        dark_t, both_t = (
            norm * evolve_lindblad(model, obs0, [t_probe_s])[-1].populations()[rows]
            for norm, obs0 in watched)
        f1.append(1.0 - dark_t)
        top_rows.append(both_t - dark_t)
    return ScanResponse(np.array(f1), np.array(top_rows))
