"""Open-system dynamics: Lindblad integration, motional heating, and the
sideband flop / spectrum simulation drivers.

The heating channel is the infinite-temperature electric-field-noise limit:
jump operators sqrt(ndot) a' and sqrt(ndot) a with equal rates, which drives
d<N>/dt = ndot for any state.

evolve_lindblad takes one of two paths, chosen from its input.  A closed
system (no nonzero collapse operator) is propagated exactly: H is split into
the connected components of its sparsity graph, each of which spans an
invariant subspace, and diagonalised block by block.  The effective model
splits into 2x2 blocks, full_dressed into blocks of at most 4.  keep_carrier
gives one block, still exact, where stepping would need prohibitively many
steps to resolve the trap frequency.  Every other run builds the generator
once, as one sparse superoperator on the row-major flattened density matrix,
and integrates with RK45 only the entries in the connected components of its
sparsity graph that hold rho0's nonzero entries; no term couples them to any
other entry, so every other entry stays exactly zero.  For the sideband
models with a diagonal rho0 that is the block of equal excitation number on
both sides of rho.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence, Union

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components

from .errors import IntegrationError, TruncationError
from .ion import (
    DriveField,
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
    mean_phonon,
    motional_populations,
    tensor,
    thermal_distribution,
)

__all__ = [
    "HeatingChannel",
    "IntegratorConfig",
    "LindbladModel",
    "ScanResponse",
    "ScanResult",
    "SidebandProbe",
    "heating_collapse_ops",
    "evolve_lindblad",
    "evolve_unitary",
    "fock_cutoff_for_dynamics",
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
    """RK45 tolerances for runs with dissipation.

    rel_tol     relative tolerance
    abs_tol     absolute tolerance

    A closed system (no nonzero collapse operator) is propagated exactly by
    eigendecomposition instead of stepped, so neither applies to it.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-11

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be > 0")


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


def _nonempty_1d(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    return arr


def evolve_lindblad(
    model: LindbladModel,
    rho0: DensityMatrix,
    times: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> list[DensityMatrix]:
    """Evolve drho/dt = -i[H, rho] + sum_k D[L_k] rho to the given times.

    times must be strictly increasing and start at >= 0; evolution always
    starts from t = 0 with rho0.  A closed system (no nonzero collapse
    operator) is propagated exactly, block by block of H; anything else is
    integrated with RK45 on the reachable entries of the generator.  Output
    states are validated (Hermitian, unit trace, positive) with tolerances
    appropriate for integrator output; a state that fails them, or a trace
    drift beyond 1e-6, raises IntegrationError.
    """
    t = _nonempty_1d(times, "times")
    if t[0] < 0 or np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing and start at >= 0")
    if rho0.space.dim != model.space.dim:
        raise ValueError("initial state dimension does not match model")

    l_mats = _nonzero_ops(model.collapse_ops)
    if not l_mats:
        rhos = _propagate_closed(model.hamiltonian.matrix, rho0.matrix, t)
    else:
        rhos = _integrate(model.hamiltonian.matrix, l_mats, rho0.matrix, t, cfg)
    return _validated(model.space, rhos, t)


def _propagate_closed(h_mat: np.ndarray, rho0_mat: np.ndarray,
                      t: np.ndarray) -> Iterator[np.ndarray]:
    """rho(t) = V (e^{-i Lambda t} . V' rho0 V . e^{i Lambda t}) V' exactly.

    Each connected component of the sparsity graph of H spans an invariant
    subspace, so H = V Lambda V' with V block-diagonal over the components.
    Components of equal size are diagonalised in one batched eigh.  rho0 may
    carry coherences between components.
    """
    _, labels = connected_components(sp.csr_array(h_mat != 0), directed=False)
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    evals = np.empty(h_mat.shape[0])
    blocks = []
    for size in np.unique(sizes):
        # idx[k] lists the indices of the k-th component of this size
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        w, v = np.linalg.eigh(h_mat[idx[:, :, None], idx[:, None, :]])
        evals[idx] = w
        blocks.append((idx, v))

    def left(mat: np.ndarray, adjoint: bool) -> np.ndarray:
        """V' @ mat if adjoint else V @ mat, one block of rows at a time."""
        out = np.empty_like(mat)
        for idx, v in blocks:
            out[idx] = (v.conj().swapaxes(1, 2) if adjoint else v) @ mat[idx]
        return out

    # M V = (V' M')', so both products are left products
    rho_eig = left(left(rho0_mat.conj().T, True).conj().T, True)
    for ti in t:
        phase = np.exp(-1j * evals * ti)
        rho_t = (phase[:, None] * rho_eig) * phase.conj()
        yield left(left(rho_t.conj().T, False).conj().T, False)


def _integrate(h_mat: np.ndarray, l_mats: list[np.ndarray], rho0_mat: np.ndarray,
               t: np.ndarray, cfg: IntegratorConfig) -> Iterator[np.ndarray]:
    """Integrate the generator on the entries reachable from rho0."""
    dim = h_mat.shape[0]
    gen = _generator(h_mat, l_mats)
    rho0_vec = np.array(rho0_mat, dtype=complex).reshape(-1)
    # Integrate only the weakly connected components that hold rho0's
    # nonzero entries: nothing feeds the rest, which stays exactly zero.
    _, labels = connected_components(gen != 0, directed=True, connection="weak")
    keep = np.flatnonzero(np.isin(labels, labels[rho0_vec != 0]))
    sub = gen[keep][:, keep]
    y0 = rho0_vec[keep]

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        return sub @ y

    if t[-1] == 0.0:
        ys = [y0]
    else:
        sol = solve_ivp(rhs, (0.0, float(t[-1])), y0, method="RK45", t_eval=t,
                        rtol=cfg.rel_tol, atol=cfg.abs_tol)
        if not sol.success:
            raise IntegrationError(f"integrator failed: {sol.message}")
        ys = sol.y.T

    for y in ys:
        rho = np.zeros((dim, dim), dtype=complex)
        rho.flat[keep] = y
        yield rho


def _validated(space, rhos: Iterable[np.ndarray], t: np.ndarray) -> list[DensityMatrix]:
    """Trace-drift abort, hermitise and state check, shared by both paths."""
    states = []
    for ti, rho in zip(t, rhos):
        drift = abs(rho.trace() - 1.0)
        if drift > TRACE_DRIFT_ABORT:
            raise IntegrationError(
                f"trace drift {drift:.3e} at t={ti:.6g} s exceeds {TRACE_DRIFT_ABORT:.0e}")
        rho = (rho + rho.conj().T) / 2.0  # remove roundoff-scale asymmetry only
        try:
            states.append(DensityMatrix(space, rho,
                                        herm_tol=1e-10, trace_tol=1e-6, psd_tol=1e-7))
        except ValueError as exc:
            raise IntegrationError(
                f"integrator output at t={ti:.6g} s is not a valid state: {exc}") from exc
    return states


def evolve_unitary(hamiltonian: Operator, rho0: DensityMatrix,
                   times: Sequence[float]) -> list[DensityMatrix]:
    """Closed-system evolution by one dense eigendecomposition of H.

    Test oracle for the block-wise exact path that evolve_lindblad takes with
    no collapse operators; exact up to the eigensolver.
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


def _dark_rows(space: ProductSpace) -> slice:
    """Indices of the |0'> rows: the dark outcome of the F=1 readout."""
    first = space.index("0'", 0)
    return slice(first, first + space.fock.dim)


def _p_f1(state: DensityMatrix) -> float:
    """P(F=1) = 1 - P(|0'>): the diagonal outside the |0'> rows.

    Ideal detection maps |0'> to the dark outcome and every other internal
    level to the bright (F=1) outcome.
    """
    return float(np.delete(state.populations(), _dark_rows(state.space)).sum())


@dataclass(frozen=True)
class ScanResult:
    """F=1 population versus x: the probe duration (s) of a flop or the
    probe detuning from the carrier (Hz) of a spectrum."""

    x: np.ndarray
    p_f1: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)  # a copy: the caller's arrays stay writable
        p = np.array(self.p_f1, dtype=float)
        if x.ndim != 1 or p.shape != x.shape:
            raise ValueError("x and p_f1 must be matching 1-D arrays")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x grid must be strictly increasing")
        if p.min() < -1e-7 or p.max() > 1.0 + 1e-7:
            raise ValueError(f"probabilities outside [0, 1]: [{p.min()}, {p.max()}]")
        p = np.clip(p, 0.0, 1.0)
        x.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p_f1", p)


@dataclass(frozen=True)
class SidebandProbe:
    """Everything needed to drive one sideband of the dressed transition.

    sideband_rabi_hz overrides the derived eta_eff * carrier product when set
    (> 0); the carrier Rabi is then back-computed so that full-model runs use
    a consistent coupling.
    """

    trap: TrapParams = TrapParams()
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
            self.trap, dressing, probe, space,
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
    if isinstance(initial, FockDistribution):
        return max(fock_cutoff_for_dynamics(mean_phonon(initial), n_dot, t_max),
                   initial.n_max)
    return fock_cutoff_for_dynamics(float(initial), n_dot, t_max)


def simulate_flop(
    probe: SidebandProbe,
    times: Sequence[float],
    initial: InitialState,
    heating: HeatingChannel | None = None,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_max: int | None = None,
) -> ScanResult:
    """Resonant sideband flop: P(F=1) versus probe duration.

    The probe sits exactly on the addressed sideband; the initial state is
    |0'> (x) thermal(n_bar) or an explicit Fock distribution.  Truncation is
    chosen by the documented cutoff policy and checked post hoc.
    """
    t = _nonempty_1d(times, "times")
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
    return ScanResult(t, np.array([_p_f1(s) for s in states]))


def _heating_ops(heating: HeatingChannel | None, space) -> tuple[Operator, ...]:
    if heating is None or heating.n_dot == 0:
        return ()
    return tuple(heating_collapse_ops(heating, space))


def _scan_point(args) -> float:
    probe, delta_hz, t_probe, rho0, collapse, cfg = args
    model = LindbladModel(probe.hamiltonian(rho0.space, delta_hz), collapse)
    state = evolve_lindblad(model, rho0, [t_probe], cfg)[-1]
    _check_top_level(state)
    return _p_f1(state)


def _scan_grid(detunings_hz: Sequence[float], t_probe_s: float) -> np.ndarray:
    deltas = _nonempty_1d(detunings_hz, "detunings")
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
    collapse = _heating_ops(heating, space)

    tasks = [(probe, float(d), float(t_probe_s), rho0, collapse, cfg) for d in deltas]
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
    rows = _dark_rows(space)
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
