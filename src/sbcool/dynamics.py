"""Open-system dynamics: Lindblad integration, motional heating, and the
sideband flop / spectrum simulation drivers.

The heating channel is the infinite-temperature electric-field-noise limit:
jump operators sqrt(ndot) a' and sqrt(ndot) a with equal rates, which drives
d<N>/dt = ndot for any state.

Both propagation paths start from one eigendecomposition of H, block by
block: 2x2 blocks for the effective model, at most 4 for full_dressed, one
with keep_carrier.  A closed system (no nonzero collapse operator) is
propagated exactly; closed scans, flops and the spectrum fit's integrate
forward share one engine, _closed_response, which reads every initial
|0', n> at once from |U|^2.  A heated run steps RK45 in the interaction
picture of H, where the right-hand side is the dissipator alone, on the
entries of rho reachable from rho0 (_reachable); every other entry stays
exactly zero.

Only heated runs import scipy (sparse, csgraph, integrate) and, with jobs > 1,
concurrent.futures; closed runs and fits need numpy alone, since _components
labels H's blocks in csgraph's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Literal, Sequence, Union

import numpy as np

from .errors import IntegrationError, TruncationError
from .ion import (
    TrapParams,
    build_dressed_rf_hamiltonian,
    effective_two_level_hamiltonian,
    four_level_space,
    lamb_dicke_eff,
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

if TYPE_CHECKING:
    import scipy.sparse as sp

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

    They govern the interaction-picture state e^{iHt} rho e^{-iHt}, moved by
    the dissipator alone; H's rotation, and any closed system, is exact.
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


def _generator(h_mat: np.ndarray, l_mats: list,
               keep: np.ndarray | None = None) -> sp.csr_array:
    """-i[H, .] + sum_k D[L_k] as a sparse matrix on row-major vec(rho), on
    the flat indices keep (all by default).  Every term is built literally
    (no rho = rho' shortcut): shortcuts of that kind make roundoff-sized
    Hermiticity errors grow exponentially under strong dissipation."""
    import scipy.sparse as sp
    dim = h_mat.shape[0]
    eye = sp.eye_array(dim, dtype=complex, format="csr")
    h = sp.csr_array(h_mat)
    terms = [(-1j * h, eye), (eye, 1j * h)]
    for l_mat in l_mats:
        l = sp.csr_array(l_mat)
        ldl = l.conj().T @ l
        terms += [(l, l.conj().T), (-0.5 * ldl, eye), (eye, -0.5 * ldl)]
    return _superop(terms, np.arange(dim * dim) if keep is None else keep)


def _superop(terms: list, keep: np.ndarray) -> sp.csr_array:
    """sum of rho -> A rho B over terms (A, B) as a sparse matrix on the flat
    indices keep, formed on those alone: (k, l) feeds (i, j) by A[i, k] B[l, j]."""
    import scipy.sparse as sp
    dim = terms[0][0].shape[0]
    pos = np.full(dim * dim, -1)
    pos[keep] = np.arange(keep.size)
    k, l = np.divmod(keep, dim)
    parts = []
    for a, b in terms:
        a, b = sp.csc_array(a), sp.csr_array(b)
        nb = np.diff(b.indptr)[l]
        count = np.diff(a.indptr)[k] * nb
        col = np.repeat(np.arange(keep.size), count)
        off = np.arange(col.size) - np.repeat(np.cumsum(count) - count, count)
        ia = a.indptr[k][col] + off // nb[col]
        jb = b.indptr[l][col] + off % nb[col]
        # keep is closed under every term, so no row falls off it (pos -1)
        parts.append((a.data[ia] * b.data[jb], pos[a.indices[ia] * dim + b.indices[jb]], col))
    vals, rows, cols = map(np.concatenate, zip(*parts))
    return sp.csr_array((vals, (rows, cols)), shape=(keep.size, keep.size))


def _nonempty_1d(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    return arr


def _time_grid(times: Sequence[float]) -> np.ndarray:
    t = _nonempty_1d(times, "times")
    if t[0] < 0 or np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing and start at >= 0")
    return t


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
    integrated with RK45 on the entries reachable from rho0 in the
    interaction picture of H.  Output states are validated (finite,
    Hermitian, unit trace, positive) with tolerances appropriate for
    integrator output; a state that fails them, or a trace drift beyond
    1e-6, raises IntegrationError.
    """
    t = _time_grid(times)
    if rho0.space.dim != model.space.dim:
        raise ValueError("initial state dimension does not match model")

    l_mats = _nonzero_ops(model.collapse_ops)
    if not l_mats:
        rhos = _propagate_closed(model.hamiltonian.matrix, rho0.matrix, t)
    else:
        rhos = _integrate(model.hamiltonian.matrix, l_mats, rho0.matrix, t, cfg)
    return _validated(model.space, rhos, t)


def _components(linked: np.ndarray) -> tuple[int, np.ndarray]:
    """(count, labels) of the connected components of the undirected graph
    with an edge wherever the boolean matrix linked is true, numbered in order
    of their lowest node as scipy.sparse.csgraph.connected_components numbers
    them.  Union-find whose every root is the lowest node of its set."""
    root = list(range(linked.shape[0]))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]  # path halving
        return i

    for i, j in zip(*(a.tolist() for a in np.nonzero(np.triu(linked | linked.T, 1)))):
        a, b = find(i), find(j)
        root[max(a, b)] = min(a, b)
    lowest, labels = np.unique([find(i) for i in range(len(root))], return_inverse=True)
    return lowest.size, labels


def _blocks(h_mat: np.ndarray) -> list[np.ndarray]:
    """The invariant blocks of H, the connected components of its sparsity
    graph: one index array per size, whose row k is the k-th such block."""
    _, labels = _components(h_mat != 0)
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return [order[starts[sizes == size][:, None] + np.arange(size)]
            for size in np.unique(sizes)]


def _eig_blocks(h_mat: np.ndarray) -> tuple[np.ndarray, list]:
    """H = V Lambda V' with V block-diagonal over _blocks(H): the eigenvalues,
    and per block size its index rows with one batched eigh's eigenvectors."""
    evals = np.empty(h_mat.shape[0])
    blocks = []
    for idx in _blocks(h_mat):
        w, v = np.linalg.eigh(h_mat[idx[:, :, None], idx[:, None, :]])
        evals[idx] = w
        blocks.append((idx, v))
    return evals, blocks


def _propagate_closed(h_mat: np.ndarray, rho0_mat: np.ndarray,
                      t: np.ndarray) -> Iterator[np.ndarray]:
    """rho(t) = V (e^{-i Lambda t} . V' rho0 V . e^{i Lambda t}) V' exactly;
    rho0 may couple blocks."""
    evals, blocks = _eig_blocks(h_mat)

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


def _reachable(h_mat: np.ndarray, l_mats: list[np.ndarray],
               rho0_mat: np.ndarray) -> np.ndarray:
    """Sorted flat indices of the entries of rho reachable from rho0's, from
    sparsity alone.  H links each rectangle (block P) x (block Q) of its
    blocks within itself; with each block lumped into one level, the set is
    the weak components of the generator's graph that hold rho0's entries."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    n, labels = _components(h_mat != 0)
    eye, terms = sp.eye_array(n), []
    for l_mat in l_mats:
        rows, cols = np.nonzero(l_mat)
        l = sp.csr_array((np.ones(rows.size), (labels[rows], labels[cols])), shape=(n, n))
        # positive weights: no two terms can cancel a link
        terms += [(l, l.T), (l.T @ l, eye), (eye, l.T @ l)]
    _, comp = connected_components(_superop(terms, np.arange(n * n)), directed=False)
    rows, cols = np.nonzero(rho0_mat)
    kept = np.isin(comp, comp[labels[rows] * n + labels[cols]])
    return np.flatnonzero(kept[labels[:, None] * n + labels[None, :]])


def _integrate(h_mat: np.ndarray, l_mats: list[np.ndarray], rho0_mat: np.ndarray,
               t: np.ndarray, cfg: IntegratorConfig) -> Iterator[np.ndarray]:
    """RK45 on the reachable entries in the interaction picture of H: in H's
    eigenbasis rho_ab = phi_ab y_ab, phi_ab = e^{-i (lambda_a - lambda_b) t},
    and dy/dt = conj(phi) (D~ (phi y)) with D~ = sum_k D[V' L_k V], the
    dissipator alone.  V maps each reachable rectangle to itself.  D~ and V
    act as sparse matrices on the m kept entries, or, for blocks of s levels
    with m s^2 > D^3, as dense products on the full matrix."""
    import scipy.sparse as sp
    dim = h_mat.shape[0]
    evals, blocks = _eig_blocks(h_mat)
    vd = np.zeros_like(h_mat)
    for idx, vb in blocks:
        vd[idx[:, :, None], idx[:, None, :]] = vb
    v = sp.csr_array(vd)
    vh = v.conj().T
    keep = _reachable(h_mat, l_mats, rho0_mat)
    rate = -1j * (evals[:, None] - evals).reshape(-1)[keep]
    ls = [vh @ sp.csr_array(l) @ v for l in l_mats]

    def full(x: np.ndarray) -> np.ndarray:
        mat = np.zeros((dim, dim), dtype=complex)
        mat.flat[keep] = x
        return mat

    s = max(idx.shape[1] for idx, _ in blocks)
    if keep.size * s * s <= dim ** 3:  # about m s^2 entries each
        dis = _generator(sp.csr_array(h_mat.shape, dtype=complex), ls, keep).__matmul__
        back = _superop([(v, vh)], keep).__matmul__
    else:  # large blocks would fill both (up to m^2 entries): dense products
        pairs = [(l.toarray(), l.conj().T.toarray()) for l in ls]
        drain = sum(-0.5 * lh @ l for l, lh in pairs)

        def dis(x: np.ndarray) -> np.ndarray:
            mat = full(x)
            out = drain @ mat + mat @ drain + sum(l @ mat @ lh for l, lh in pairs)
            return out.reshape(-1)[keep]

        def back(x: np.ndarray) -> np.ndarray:
            return (vd @ full(x) @ vd.conj().T).reshape(-1)[keep]

    def rhs(ti: float, y: np.ndarray) -> np.ndarray:
        phase = np.exp(rate * ti)
        return phase.conj() * dis(phase * y)

    ys = (vh @ np.asarray(rho0_mat, dtype=complex) @ v).reshape(-1)[keep][:, None]
    if t[-1] > 0.0:
        sol = solve_ivp(rhs, (0.0, float(t[-1])), ys[:, 0], method="RK45", t_eval=t,
                        rtol=cfg.rel_tol, atol=cfg.abs_tol)
        if not sol.success:
            raise IntegrationError(f"integrator failed: {sol.message}")
        ys = sol.y
    for ti, y in zip(t, ys.T):
        yield full(back(np.exp(rate * ti) * y))


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first heated run."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def _validated(space, rhos: Iterable[np.ndarray], t: np.ndarray) -> list[DensityMatrix]:
    """Trace-drift abort and state check, shared by both paths."""
    states = []
    for ti, rho in zip(t, rhos):
        drift = abs(rho.trace() - 1.0)
        if not drift <= TRACE_DRIFT_ABORT:  # NaN trips it too
            raise IntegrationError(
                f"trace drift {drift:.3e} at t={ti:.6g} s exceeds {TRACE_DRIFT_ABORT:.0e}")
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
        out.append(DensityMatrix(hamiltonian.space, vecs @ rho_t @ vecs.conj().T,
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


def _dark_rows(space: ProductSpace) -> slice:
    """Indices of the |0'> rows: the dark outcome of the F=1 readout."""
    first = space.index("0'", 0)
    return slice(first, first + space.fock.dim)


def _p_f1(state: DensityMatrix) -> float:
    """P(F=1) = 1 - P(|0'>), the diagonal outside the |0'> rows: ideal detection
    reads |0'> as dark and every other internal level as bright (F=1)."""
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
        return build_dressed_rf_hamiltonian(
            self.trap, self.dressing_rabi_hz, self.effective_carrier_rabi_hz, detuning_hz,
            space, sideband=self.sideband, keep_carrier=self.keep_carrier)

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
    chosen by the documented cutoff policy and checked post hoc: at every
    time of a closed flop, at the last time of a heated one.
    """
    t = _time_grid(times)
    return ScanResult(t, _read_f1(probe, np.array([probe.resonance_hz()]), t,
                                  initial, heating, cfg, n_max, jobs=1))


def _read_f1(probe: SidebandProbe, deltas: np.ndarray, times: np.ndarray,
             initial: InitialState, heating: HeatingChannel | None,
             cfg: IntegratorConfig, n_max: int | None, jobs: int) -> np.ndarray:
    """P(F=1) at every (detuning, time) pair, detuning-major: the closed
    engine, or one RK45 run per detuning (in a pool when jobs > 1) if heated."""
    n_dot = heating.n_dot if heating is not None else 0.0
    if n_max is None:
        n_max = _pick_n_max(initial, n_dot, float(times[-1]))
    dist0 = _initial_distribution(initial, n_max)
    if n_dot == 0.0:
        return _closed_response(probe, deltas, times, n_max).p_f1(dist0.populations)
    rho0 = distribution_density(dist0, probe.space(n_max), "0'")
    collapse = tuple(heating_collapse_ops(heating, rho0.space))
    tasks = [(probe, float(d), times, rho0, collapse, cfg) for d in deltas]
    if jobs == 1:
        return np.concatenate([_heated_point(task) for task in tasks])
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return np.concatenate(list(pool.map(_heated_point, tasks)))


def _heated_point(args) -> np.ndarray:
    """P(F=1) at one detuning and every time; checks the last state's top level."""
    probe, delta_hz, times, rho0, collapse, cfg = args
    h = probe.hamiltonian(rho0.space, delta_hz)
    states = evolve_lindblad(LindbladModel(h, collapse), rho0, times, cfg)
    _check_top(float(motional_populations(states[-1])[-1]))
    return np.array([_p_f1(s) for s in states])


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
    """Spectrum: P(F=1) after t_probe at each detuning.

    detunings_hz are relative to the dressed carrier (so the addressed
    sideband peaks at -nu_z for red, +nu_z for blue).  A closed scan is one
    batched exact solve; a heated scan integrates each detuning, in a pool of
    jobs processes when jobs > 1, with output order fixed by the input grid.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    deltas = _nonempty_1d(detunings_hz, "detunings")
    if not t_probe_s > 0:  # NaN included
        raise ValueError("t_probe_s must be > 0")
    return ScanResult(deltas, _read_f1(probe, deltas, np.array([float(t_probe_s)]),
                                       initial, heating, cfg, n_max, jobs))


@dataclass(frozen=True)
class ScanResponse:
    """A scan or flop as a linear map of the initial Fock populations of |0'>.

    f1[i, n] is P(F=1) at point i (a detuning or a time) for the initial
    state |0', n>, and top[i, n] is the population that state leaves in the
    top Fock level.  A diagonal initial state with populations p reads out
    f1 @ p.
    """

    f1: np.ndarray
    top: np.ndarray

    def p_f1(self, populations: np.ndarray) -> np.ndarray:
        """f1 @ p; raises TruncationError when top @ p exceeds TOP_LEVEL_TOL."""
        p = np.asarray(populations, dtype=float)
        _check_top(float(np.max(self.top @ p)))
        return self.f1 @ p


def _closed_response(probe: SidebandProbe, deltas: np.ndarray, times: np.ndarray,
                     n_max: int) -> ScanResponse:
    """Exact closed response; row i * len(times) + j is deltas[i] at times[j].

    Both Hamiltonian builders put the detuning only on the |0'><0'| (x) I
    diagonal, so H(delta) = H(deltas[0]) + 2 pi (delta - deltas[0]) there and
    H is built once.  The blocks of one size are diagonalised in one batched
    eigh over (detuning, block).  |0', n> is a basis vector, so its readouts
    are sums over its column of |U|^2 = |V e^{-i Lambda t} V'|^2; a column
    sum off 1 by more than TRACE_DRIFT_ABORT raises IntegrationError.
    """
    space = probe.space(n_max)
    h = LindbladModel(probe.hamiltonian(space, float(deltas[0]))).hamiltonian.matrix
    fd, rows = space.fock.dim, _dark_rows(space)
    dark = np.zeros(space.dim, dtype=bool)
    dark[rows] = True
    top = np.arange(space.dim) % fd == fd - 1  # level n_max of every spin state
    f1 = np.empty((deltas.size, times.size, fd))
    top_rows = np.empty_like(f1)
    for idx in _blocks(h):
        is_dark = dark[idx]
        cols = np.flatnonzero(is_dark.any(axis=0))  # local columns to read
        k, a = np.nonzero(is_dark)
        hb = np.repeat(h[idx[:, :, None], idx[:, None, :]][None], deltas.size, axis=0)
        hb[:, k, a, a] += 2.0 * math.pi * (deltas - deltas[0])[:, None]
        w, v = np.linalg.eigh(hb)
        vh_cols = v.conj().swapaxes(-1, -2)[..., cols]
        read = is_dark[:, cols]
        levels = idx[:, cols][read] - rows.start
        for j, tj in enumerate(times):
            u2 = np.abs(v @ (np.exp(-1j * w * tj)[..., None] * vh_cols)) ** 2
            drift = np.max(np.abs(u2.sum(axis=-2)[:, read] - 1.0), initial=0.0)
            if not drift <= TRACE_DRIFT_ABORT:  # NaN trips it too
                raise IntegrationError(
                    f"propagator column norm drifts by {drift:.3e} at t={tj:.6g} s, "
                    f"beyond {TRACE_DRIFT_ABORT:.0e}")
            f1[:, j, levels] = np.einsum("dkbc,kb->dkc", u2, ~is_dark)[:, read]
            top_rows[:, j, levels] = np.einsum("dkbc,kb->dkc", u2, top[idx])[:, read]
    return ScanResponse(f1.reshape(-1, fd), top_rows.reshape(-1, fd))
