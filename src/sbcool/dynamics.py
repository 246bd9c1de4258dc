"""Open-system dynamics: Lindblad integration, motional heating, and the
sideband flop / spectrum simulation drivers.

The heating channel is the infinite-temperature electric-field-noise limit:
jump operators sqrt(ndot) a' and sqrt(ndot) a with equal rates, which drives
d<N>/dt = ndot for any state.

Both propagation paths start from one eigendecomposition of H, block by
block: 2x2 blocks for the effective model, at most 4 for full_dressed.
Closed scans, flops and the spectrum fit's integrate forward share one
engine, _closed_response, which reads every initial |0', n> at once from
|U|^2.  Every other run goes through _integrate, in the interaction
picture of H, on the entries of rho reachable from rho0; every other entry
stays exactly zero.  Those entries form tiles (block P) x (block Q) of H's
blocks.  A closed system is exact there; a heated one steps the in-package
RK45 (solve_ivp, scipy's RK45 step for step) with the dissipator alone as
the right-hand side, applied as dense superoperator tiles by one batched
matmul.  Heated flops and scans read P(F=1) from the
kept entries, checked block by block (_kept_populations), and build no
D x D state; evolve_lindblad builds and validates the full states.

Every path runs on numpy alone (heated scans with jobs > 1 add
concurrent.futures); _components labels blocks in csgraph's order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Literal, Sequence, Union

import numpy as np

from .errors import IntegrationError, TruncationError
from .ion import (
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
    tensor,
    thermal_distribution,
)

__all__ = [
    "HeatingChannel",
    "LindbladModel",
    "ScanResponse",
    "ScanResult",
    "SidebandProbe",
    "heating_collapse_ops",
    "evolve_lindblad",
    "fock_cutoff_for_dynamics",
    "simulate_flop",
    "simulate_scan",
]

# Population allowed in the top Fock level before results are rejected.
TOP_LEVEL_TOL = 1e-6
# Trace drift above this aborts with diagnostics; the contract at the RK45
# tolerances below is tighter (< 1e-8) and is asserted by tests.
TRACE_DRIFT_ABORT = 1e-6
# Slack outside [0, 1] that ScanResult clips; past it a readout is an error.
_P_SLACK = 1e-7
# DensityMatrix's tolerances for integrator output.
_STATE_TOLS = dict(herm_tol=1e-10, trace_tol=1e-6, psd_tol=1e-7)
# Tolerances of the in-package RK45 (solve_ivp) for runs with dissipation.
# They govern the interaction-picture state e^{iHt} rho e^{-iHt}, moved by
# the dissipator alone; H's rotation, and any closed system, is exact.
RK45_RTOL, RK45_ATOL = 1e-8, 1e-11


@dataclass(frozen=True)
class HeatingChannel:
    """Motional heating at ndot quanta per second (infinite-T limit)."""

    n_dot: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.n_dot < math.inf:
            raise ValueError(f"n_dot must be finite and >= 0, got {self.n_dot!r}")


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
) -> list[DensityMatrix]:
    """Evolve drho/dt = -i[H, rho] + sum_k D[L_k] rho to the given times.

    times must be strictly increasing and start at >= 0; evolution always
    starts from t = 0 with rho0.  A closed system (no nonzero collapse
    operator) is propagated exactly, tile by tile of H's blocks; anything
    else is integrated with RK45, at tolerances RK45_RTOL and RK45_ATOL, on
    the entries reachable from rho0 in the interaction picture of H.  Each
    full state is built from those entries.
    The dissipator is held as s^2 x s^2 superoperator tiles, so memory grows
    as s^4 per tile, s the largest block of H; sbcool's builders give s <= 4
    (2 effective, 4 full_dressed), and no guard checks other Hamiltonians.
    Output states are validated (finite, Hermitian, unit trace, positive)
    with tolerances appropriate for integrator output; a state that fails
    them, or a trace drift beyond 1e-6, raises IntegrationError.  Heated
    flops and scans read the same integrator output without this function.
    """
    t = _time_grid(times)
    if rho0.space.dim != model.space.dim:
        raise ValueError("initial state dimension does not match model")

    keep, x = _integrate(model.hamiltonian.matrix, _nonzero_ops(model.collapse_ops),
                         rho0.matrix, t)
    return _validated(model.space, (_full(model.space.dim, keep, col) for col in x.T), t)


def _components(n: int, i: np.ndarray, j: np.ndarray) -> tuple[int, np.ndarray]:
    """(count, labels) of the connected components of the undirected graph on
    n nodes with edges (i[k], j[k]), numbered in order of their lowest node as
    scipy.sparse.csgraph.connected_components numbers them.  Every node points
    at a lower or equal one; each round hooks every root to the lowest root
    linked to its tree, then jumps pointers until they all point at roots, so
    the lowest node of each component ends as its one root."""
    root = np.arange(n)
    while not np.array_equal(root[i], root[j]):
        low = np.minimum(root[i], root[j])
        np.minimum.at(root, root[i], low)
        np.minimum.at(root, root[j], low)
        while not np.array_equal(root[root], root):
            root = root[root]
    lowest, labels = np.unique(root, return_inverse=True)
    return lowest.size, labels


def _blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """The blocks of a boolean pattern, the connected components of its
    graph (H's invariant blocks for h != 0, a state's for its kept entries):
    one index array per size, whose row k is the k-th such block."""
    _, labels = _components(len(pattern), *np.nonzero(pattern))
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return [order[starts[sizes == size][:, None] + np.arange(size)]
            for size in np.unique(sizes)]


def _eig_blocks(h_mat: np.ndarray) -> tuple:
    """H = V Lambda V' with V block-diagonal over _blocks(H), one batched eigh
    per block size: the eigenvalues, each level's block (numbered in _blocks'
    order) and place in it, and the eigenvectors padded to the largest block
    size s (blocks x s x s, zero in the padding)."""
    dim, groups = h_mat.shape[0], _blocks(h_mat != 0)
    evals, block, place = np.empty(dim), np.empty(dim, dtype=int), np.empty(dim, dtype=int)
    vecs = np.zeros((sum(map(len, groups)),) + (groups[-1].shape[1],) * 2, dtype=complex)
    first = 0
    for idx in groups:
        count, size = idx.shape
        w, v = np.linalg.eigh(h_mat[idx[:, :, None], idx[:, None, :]])
        evals[idx], place[idx] = w, np.arange(size)
        block[idx] = np.arange(first, first + count)[:, None]
        vecs[first:first + count, :size, :size] = v
        first += count
    return evals, block, place, vecs


def _dissipator_tiles(l_mats: list[np.ndarray], block: np.ndarray, place: np.ndarray,
                      vecs: np.ndarray) -> tuple[np.ndarray, ...]:
    """sum_k D[V' L_k V] as terms rho -> A rho C' between s x s factor tiles:
    every two tiles (L_k[P', P], L_k[Q', Q]) of one jump, and (-M/2, 1) and
    (1, -M/2) for the drain M = sum_k L_k' L_k, whose tile M[P', P] sums
    L_k[R, P']' L_k[R, P].  Which tiles exist follows from sparsity alone.
    Returns the factors (the jumps' tiles, M's, then one identity per block),
    the terms' factor indices (a, c), and their target and source tiles
    (block P) x (block Q) as codes P * blocks + Q."""
    nb, s = vecs.shape[:2]
    stack = np.array(l_mats)
    jumps, rows, cols = np.nonzero(stack)
    codes, tile = np.unique((jumps * nb + block[rows]) * nb + block[cols], return_inverse=True)
    lab = np.zeros((codes.size, s, s), dtype=complex)
    lab[tile, place[rows], place[cols]] = stack[jumps, rows, cols]
    jump, tgt, src = codes // (nb * nb), codes // nb % nb, codes % nb
    lt = vecs[tgt].conj().swapaxes(1, 2) @ lab @ vecs[src]
    fa, fc = np.nonzero(jump[:, None] == jump)
    i, j = fa[tgt[fa] == tgt[fc]], fc[tgt[fa] == tgt[fc]]
    codes, tile = np.unique(src[i] * nb + src[j], return_inverse=True)
    m = np.zeros((codes.size, s, s), dtype=complex)
    np.add.at(m, tile, lt[i].conj().swapaxes(1, 2) @ lt[j])
    mi = lt.shape[0] + np.arange(codes.size)
    eye, every = mi[-1] + 1 + np.arange(nb), np.arange(nb)
    fa = np.concatenate([fa, np.repeat(mi, nb), np.tile(eye, mi.size)])
    fc = np.concatenate([fc, np.tile(eye, mi.size), np.repeat(mi, nb)])
    ft = np.concatenate([tgt, codes // nb, every])
    fs = np.concatenate([src, codes % nb, every])
    return (np.concatenate([lt, -0.5 * m, np.broadcast_to(np.eye(s), (nb, s, s))]), fa, fc,
            ft[fa] * nb + ft[fc], fs[fa] * nb + fs[fc])


def _kron(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Tile by tile, the matrix of X -> a X c' on row-major vec(X): a (x) conj(c)."""
    n, s = a.shape[:2]
    return np.einsum("nab,ncd->nacbd", a, c.conj()).reshape(n, s * s, s * s)


def _integrate(h_mat: np.ndarray, l_mats: list[np.ndarray], rho0_mat: np.ndarray,
               t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RK45 on the entries reachable from rho0's in the interaction picture of
    H: in H's eigenbasis rho_ab = phi_ab y_ab, phi_ab = e^{-i (lambda_a -
    lambda_b) t}, and dy/dt = conj(phi) (D~ (phi y)) with D~ = sum_k D[V' L_k V],
    the dissipator alone.  H links each tile (block P) x (block Q) within
    itself, so the reachable tiles are the components of D~'s tile graph that
    hold rho0's, and V maps each to itself.  On tiles padded to s x s, D~ is
    each target tile's row of s^2 x s^2 superoperator tiles, applied to its
    source tiles by one gather and one batched matmul, and V one s^2 x s^2
    product per tile.  RK45 runs at tolerances RK45_RTOL and RK45_ATOL; with
    no jump (a closed system) y stays y(0), so no RK45 runs and the result
    is exact.

    Returns (keep, x): the sorted flat indices of the m reachable entries and
    x (m x T), their lab-basis values at every time (one batched product);
    every other entry is zero."""
    dim = h_mat.shape[0]
    evals, block, place, vecs = _eig_blocks(h_mat)
    nb, s = vecs.shape[:2]
    no_terms = (None,) + (np.zeros(0, dtype=int),) * 4  # a closed system: no jump
    factors, fa, fc, target, source = (_dissipator_tiles(l_mats, block, place, vecs)
                                       if l_mats else no_terms)
    _, comp = _components(nb * nb, target, source)
    rows, cols = np.nonzero(rho0_mat)
    tiles = np.flatnonzero(np.isin(comp, comp[block[rows] * nb + block[cols]]))
    slot = np.full(nb * nb, -1)
    slot[tiles] = np.arange(tiles.size)
    keep = np.flatnonzero(slot[block[:, None] * nb + block] >= 0)
    rate = -1j * (evals[:, None] - evals).reshape(-1)[keep]
    rho0_kept = np.asarray(rho0_mat, dtype=complex).reshape(-1)[keep]

    r, c = np.divmod(keep, dim)
    where = (slot[block[r] * nb + block[c]] * s + place[r]) * s + place[c]
    entry = np.full((tiles.size, s * s), keep.size)  # padding reads the zero at m
    entry.flat[where] = np.arange(keep.size)
    rot = _kron(vecs[tiles // nb], vecs[tiles % nb])

    def back(x: np.ndarray, mat: np.ndarray = rot) -> np.ndarray:
        """The kept entries x (m x T) turned by the tile matrices mat."""
        return (mat @ np.vstack([x, np.zeros((1, x.shape[1]))])[entry]).reshape(
            -1, x.shape[1])[where]

    ys = back(rho0_kept[:, None], rot.conj().swapaxes(1, 2))
    if l_mats:  # each target tile's distinct source tiles, in columns 0..K-1 of its row
        live = slot[target] >= 0
        codes, term = np.unique(slot[target[live]] * nb * nb + source[live],
                                return_inverse=True)
        row, src = np.divmod(codes, nb * nb)
        col = np.arange(codes.size) - np.searchsorted(row, row)
        sup = np.zeros((tiles.size, col.max() + 1, s * s, s * s), dtype=complex)
        np.add.at(sup, (row[term], col[term]), _kron(factors[fa[live]], factors[fc[live]]))
        sup = sup.transpose(0, 2, 1, 3).reshape(tiles.size, s * s, -1)
        gather = np.full((tiles.size, col.max() + 1, s * s), keep.size)
        gather[row, col] = entry[slot[src]]
        gather = gather.reshape(tiles.size, -1)
        buf = np.zeros(keep.size + 1, dtype=complex)

        def dis(x: np.ndarray) -> np.ndarray:
            buf[:-1] = x
            return np.matmul(sup, buf[gather][..., None]).reshape(-1)[where]

    def rhs(ti: float, y: np.ndarray) -> np.ndarray:
        phase = np.exp(rate * ti)
        return phase.conj() * dis(phase * y)

    if l_mats and t[-1] > 0.0:
        sol = solve_ivp(rhs, (0.0, float(t[-1])), ys[:, 0], method="RK45", t_eval=t,
                        rtol=RK45_RTOL, atol=RK45_ATOL)
        if not sol.success:
            raise IntegrationError(f"integrator failed: {sol.message}")
        ys = sol.y
    x = rate[:, None] * t  # phases in place: beside sol.y, one m x T array is made here
    np.exp(x, out=x)
    x *= ys
    return keep, back(x)


def _full(dim: int, keep: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The D x D matrix whose entries at the flat indices keep are x, zero elsewhere."""
    mat = np.zeros((dim, dim), dtype=complex)
    mat.flat[keep] = x
    return mat


# Dormand-Prince 5(4): nodes, stages, 5th-order weights, error weights (5th
# minus 4th order, stage 7 included) and Shampine's quartic dense output.
_RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK_A = np.array([
    [0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, method="RK45", *, t_eval, rtol=1e-3, atol=1e-6):
    """Adaptive Dormand-Prince 5(4) from t_span[0] forward to t_span[1],
    read at t_eval by quartic dense output: scipy.integrate.solve_ivp's RK45
    (scipy 1.17), operation for operation, for a complex y0 and scalar
    tolerances, so it takes scipy's steps and returns its values to the bit.
    That covers the first-step rule, the RMS error norm, the step control
    (safety 0.9, factors 0.2..10, no growth right after a rejection), the
    10-ulp minimum step and the rtol >= 100 eps clamp.  Returns a namespace
    with y (a column per t_eval point reached), nfev, success and message."""
    if method != "RK45":
        raise ValueError("only method='RK45' is implemented")
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValueError("t_span must run forward in time")
    t_eval = np.asarray(t_eval)
    eps100 = 100 * np.finfo(float).eps
    if rtol < eps100:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {eps100})`.", stacklevel=2)
        rtol = np.maximum(rtol, eps100)
    y = np.asarray(y0).astype(complex, copy=False)
    out = np.empty((y.size, t_eval.size), dtype=complex)
    nfev, done = 0, 0

    def f(ti, yi):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(ti, yi), dtype=complex)

    def result(success: bool, message: str) -> SimpleNamespace:
        return SimpleNamespace(y=out[:, :done], nfev=nfev, success=success, message=message)

    # first step (Hairer, Norsett & Wanner, Sec. II.4), for an error of order 4
    f0 = f(t, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    d2 = _rms((f(t + h0, y + h0 * f0) - f0) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs = min(100 * h0, h1, t_bound - t)
    k = np.empty((7, y.size), dtype=complex)
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return result(False, "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            k[0] = f0
            for s in range(1, 6):
                k[s] = f(t + _RK_C[s] * h, y + np.dot(k[:s].T, _RK_A[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, _RK_B)
            k[-1] = f_new = f(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(k.T, _RK_E) * h / scale)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        reached = np.searchsorted(t_eval, t_new, side="right")
        if reached > done:
            p = np.cumprod(np.tile((t_eval[done:reached] - t) / h, (4, 1)), axis=0)
            out[:, done:reached] = h * np.dot(k.T.dot(_RK_P), p) + y[:, None]
            done = reached
        t, y, f0 = t_new, y_new, f_new
    return result(True, "The solver successfully reached the end of the integration interval.")


def _validated(space, rhos: Iterable[np.ndarray], t: np.ndarray) -> list[DensityMatrix]:
    """Trace-drift abort and state check, shared by both paths."""
    states = []
    for ti, rho in zip(t, rhos):
        drift = abs(rho.trace() - 1.0)
        if not drift <= TRACE_DRIFT_ABORT:  # NaN trips it too
            raise IntegrationError(
                f"trace drift {drift:.3e} at t={ti:.6g} s exceeds {TRACE_DRIFT_ABORT:.0e}")
        try:
            states.append(DensityMatrix(space, rho, **_STATE_TOLS))
        except ValueError as exc:
            raise IntegrationError(
                f"integrator output at t={ti:.6g} s is not a valid state: {exc}") from exc
    return states


def _kept_populations(space, keep: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Populations (T x D) of the states whose entries at the flat indices
    keep are x's columns (zero elsewhere), checked as _validated checks them.

    Each state is block-diagonal over the components of keep's pattern: the
    trace comes from the kept diagonal, summed as trace() sums it, and per
    block size one batched pass over (T, blocks, s, s) checks finiteness,
    Hermiticity and, by one Cholesky of herm + psd_tol I, positivity.  It
    can only accept: on any failure _validated replays on the full matrices,
    so every error, message and eigvalsh fallback is _validated's."""
    dim = space.dim
    pos = np.full(dim * dim, keep.size)  # entries off keep read the zero row
    pos[keep] = np.arange(keep.size)
    xz = np.vstack([x, np.zeros((1, x.shape[1]))])
    diag = np.ascontiguousarray(xz[pos[::dim + 1]].T)  # rows sum as trace() does

    def accepted() -> bool:
        drift = np.abs(diag.sum(axis=1) - 1.0)
        if not np.all(drift <= min(TRACE_DRIFT_ABORT, _STATE_TOLS["trace_tol"])):  # NaN fails
            return False
        for idx in _blocks((pos < keep.size).reshape(dim, dim)):
            rho = np.moveaxis(xz[pos[idx[:, :, None] * dim + idx[:, None, :]]], -1, 0)
            adj = rho.conj().swapaxes(-1, -2)
            with np.errstate(invalid="ignore"):  # NaN and inf fail the test
                if not np.abs(rho - adj).max() <= _STATE_TOLS["herm_tol"]:
                    return False
            shifted = (rho + adj) / 2.0 + _STATE_TOLS["psd_tol"] * np.eye(idx.shape[1])
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                return False
        return True

    if not accepted():
        _validated(space, (_full(dim, keep, col) for col in x.T), t)
    return diag.real


FOCK_CUTOFF_CEILING = 1500


def fock_cutoff_for_dynamics(n_bar0: float, n_dot: float, t_max: float) -> int:
    """Truncation policy: n_max = max(20, ceil(20 (n_bar0 + ndot t_max + 1))).

    Raises TruncationError when the policy would ask for a space too large to
    hold a density matrix; pass n_max explicitly to override the ceiling.
    """
    want = 20.0 * (n_bar0 + n_dot * t_max + 1.0)
    if not want <= FOCK_CUTOFF_CEILING:  # inf and NaN fail before ceil can overflow
        raise TruncationError(
            f"cutoff policy wants n_max = {math.ceil(want) if math.isfinite(want) else want}"
            f" > ceiling {FOCK_CUTOFF_CEILING}; "
            f"the problem (n_bar0 = {n_bar0:g}, n_dot t = {n_dot * t_max:g}) is too "
            f"hot for a density-matrix run; pass n_max explicitly to override")
    return max(20, math.ceil(want))


def _check_top(top: float) -> None:
    if top > TOP_LEVEL_TOL:
        raise TruncationError(
            f"top Fock level holds {top:.3e} > {TOP_LEVEL_TOL:.0e}; raise n_max")


def _dark_rows(space: ProductSpace) -> slice:
    """Indices of the |0'> rows: the dark outcome of the F=1 readout."""
    first = space.index("0'", 0)
    return slice(first, first + space.fock.dim)


def _p_f1(space: ProductSpace, populations: np.ndarray) -> np.ndarray:
    """P(F=1) = 1 - P(|0'>), the populations (last axis) outside the |0'> rows:
    ideal detection reads |0'> as dark and every other internal level as
    bright (F=1)."""
    return np.delete(populations, _dark_rows(space), axis=-1).sum(axis=-1)


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
        if p.min() < -_P_SLACK or p.max() > 1.0 + _P_SLACK:
            raise ValueError(f"probabilities outside [0, 1]: [{p.min()}, {p.max()}]")
        p = np.clip(p, 0.0, 1.0)
        x.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p_f1", p)


@dataclass(frozen=True)
class SidebandProbe:
    """Everything needed to drive one sideband of the dressed transition.

    sideband_rabi_hz    n = 1 sideband Rabi frequency eta * Omega (Hz)
    nu_z_hz             axial secular frequency (Hz)
    dressing_rabi_hz    microwave dressing Rabi frequency (Hz; full_dressed)
    """

    sideband_rabi_hz: float
    nu_z_hz: float = 426.7e3
    dressing_rabi_hz: float = 32e3
    sideband: Literal["red", "blue"] = "red"
    model: Literal["effective", "full_dressed"] = "effective"

    def __post_init__(self) -> None:
        for name in ("sideband_rabi_hz", "dressing_rabi_hz"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if not 0.0 < self.nu_z_hz < math.inf:
            raise ValueError(f"nu_z_hz must be finite and > 0, got {self.nu_z_hz!r}")
        if self.sideband not in ("red", "blue"):
            raise ValueError("sideband must be 'red' or 'blue'")
        if self.model not in ("effective", "full_dressed"):
            raise ValueError("model must be 'effective' or 'full_dressed'")

    def hamiltonian(self, space: ProductSpace, detuning_hz: float) -> Operator:
        if self.model == "effective":
            return effective_two_level_hamiltonian(
                self.sideband_rabi_hz, self.nu_z_hz, detuning_hz, space, self.sideband)
        return build_dressed_rf_hamiltonian(
            self.dressing_rabi_hz, self.sideband_rabi_hz, self.nu_z_hz, detuning_hz, space,
            self.sideband)

    def space(self, n_max: int) -> ProductSpace:
        if self.model == "effective":
            return two_level_space(n_max)
        return four_level_space(n_max)

    def resonance_hz(self) -> float:
        return -self.nu_z_hz if self.sideband == "red" else self.nu_z_hz


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
                                  initial, heating, n_max, jobs=1))


def _read_f1(probe: SidebandProbe, deltas: np.ndarray, times: np.ndarray,
             initial: InitialState, heating: HeatingChannel | None,
             n_max: int | None, jobs: int) -> np.ndarray:
    """P(F=1) at every (detuning, time) pair, detuning-major: the closed
    engine, or one RK45 run per detuning (in a pool when jobs > 1) if heated.
    A readout outside [0, 1] by more than _P_SLACK raises IntegrationError."""
    n_dot = heating.n_dot if heating is not None else 0.0
    if n_max is None:
        n_max = _pick_n_max(initial, n_dot, float(times[-1]))
    dist0 = _initial_distribution(initial, n_max)
    if n_dot == 0.0:
        p = _closed_response(probe, deltas, times, n_max).p_f1(dist0.populations)
    else:
        rho0 = distribution_density(dist0, probe.space(n_max), "0'")
        collapse = tuple(heating_collapse_ops(heating, rho0.space))
        tasks = [(probe, float(d), times, rho0, collapse) for d in deltas]
        if jobs == 1:
            p = np.concatenate([_heated_point(task) for task in tasks])
        else:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
                p = np.concatenate(list(pool.map(_heated_point, tasks)))
    if not (np.all(p >= -_P_SLACK) and np.all(p <= 1.0 + _P_SLACK)):  # NaN fails
        raise IntegrationError(f"engine readout P(F=1) outside [0, 1]: [{p.min()}, {p.max()}]")
    return p


def _heated_point(args) -> np.ndarray:
    """P(F=1) at one detuning and every time, read from the kept entries with
    no D x D state built; checks every state and the last one's top level."""
    probe, delta_hz, times, rho0, collapse = args
    space = rho0.space
    h = LindbladModel(probe.hamiltonian(space, delta_hz), collapse).hamiltonian.matrix
    keep, x = _integrate(h, _nonzero_ops(collapse), rho0.matrix, times)
    pops = _kept_populations(space, keep, x, times)
    _check_top(float(pops[-1].reshape(space.spin.dim, space.fock.dim).sum(axis=0)[-1]))
    return _p_f1(space, pops)


def simulate_scan(
    probe: SidebandProbe,
    detunings_hz: Sequence[float],
    t_probe_s: float,
    initial: InitialState,
    heating: HeatingChannel | None = None,
    n_max: int | None = None,
    jobs: int = 1,
) -> ScanResult:
    """Spectrum: P(F=1) after t_probe at each detuning.

    detunings_hz are relative to the dressed carrier (so the addressed
    sideband peaks at -nu_z for red, +nu_z for blue).  A closed scan is one
    batched exact solve; a heated scan integrates each detuning, in a pool of
    jobs processes (never more than the detunings) when jobs > 1, with output
    order fixed by the input grid.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    deltas = _nonempty_1d(detunings_hz, "detunings")
    if not t_probe_s > 0:  # NaN included
        raise ValueError("t_probe_s must be > 0")
    return ScanResult(deltas, _read_f1(probe, deltas, np.array([float(t_probe_s)]),
                                       initial, heating, n_max, jobs))


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
    for idx in _blocks(h != 0):
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
