"""Operator algebra on a truncated oscillator tensored with a finite spin manifold.

Basis ordering is spin-major throughout: the product-space index of |s, n> is
s * (n_max + 1) + n, i.e. matrices are built as kron(spin_part, fock_part).
All public types are immutable after construction (frozen dataclasses holding
read-only arrays) and therefore safe to share across worker processes.
DensityMatrix proves positivity with numpy's own LAPACK (a Cholesky
factorisation), so no part of this module loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "FockBasis",
    "SpinBasis",
    "ProductSpace",
    "Operator",
    "DensityMatrix",
    "FockDistribution",
    "lowering_op",
    "identity_op",
    "embed_op",
    "tensor",
    "thermal_distribution",
    "thermal_fock_cutoff",
    "mean_phonon",
    "motional_populations",
]

# Validation tolerances for states produced by exact constructors.  Integrator
# output is checked against looser bounds supplied by the caller.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FockBasis:
    """Truncated harmonic-oscillator basis |0> .. |n_max>."""

    n_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class SpinBasis:
    """Finite set of internal levels addressed by label."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if len(labels) < 2:
            raise ValueError("a spin basis needs at least two levels")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate spin labels: {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no spin level {label!r}; have {self.labels}") from None


@dataclass(frozen=True)
class ProductSpace:
    """Spin (x) Fock product space, spin-major index ordering."""

    spin: SpinBasis
    fock: FockBasis

    @property
    def dim(self) -> int:
        return self.spin.dim * self.fock.dim

    def index(self, label: str, n: int) -> int:
        """Flat index of |label, n>."""
        if not 0 <= n <= self.fock.n_max:
            raise ValueError(f"Fock index {n} outside 0..{self.fock.n_max}")
        return self.spin.index(label) * self.fock.dim + n


Space = Union[FockBasis, SpinBasis, ProductSpace]


def _check_square(matrix: np.ndarray, dim: int, what: str) -> None:
    if matrix.shape != (dim, dim):
        raise ValueError(f"{what} has shape {matrix.shape}, expected ({dim}, {dim})")


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix attached to the space it acts on."""

    space: Space
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        _check_square(mat, self.space.dim, "operator matrix")
        object.__setattr__(self, "matrix", _readonly(mat))

    def dagger(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max(np.abs(self.matrix).max(), 1.0)
        return np.abs(self.matrix - self.matrix.conj().T).max() <= tol * scale

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, self.matrix * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class DensityMatrix:
    """Positive, unit-trace state, stored as the Hermitian part of the input.
    Validation tolerances can be relaxed by callers that hold integrator output
    rather than exactly constructed states."""

    space: Space
    matrix: np.ndarray
    herm_tol: float = field(default=HERMITICITY_TOL, repr=False)
    trace_tol: float = field(default=TRACE_TOL, repr=False)
    psd_tol: float = field(default=PSD_TOL, repr=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)  # only read: herm is stored
        _check_square(mat, self.space.dim, "density matrix")
        adj = mat.conj().T
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as it should be
            herm_dev = np.abs(mat - adj).max()
        if not np.isfinite(herm_dev):  # iff an entry is NaN or infinite
            raise ValueError("non-finite entries")
        if herm_dev > self.herm_tol:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > self.trace_tol:
            raise ValueError(f"trace {tr:.12g} differs from 1 by {abs(tr - 1.0):.3e}")
        herm = (mat + adj) / 2.0
        # A Cholesky factor of herm + psd_tol I proves min eigenvalue > -psd_tol
        # to the eigensolver's own roundoff; only a failed factorisation pays
        # for the spectrum.
        shifted = herm.copy()
        shifted.flat[::len(herm) + 1] += self.psd_tol
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(herm).min())
            if min_eig < -self.psd_tol:
                raise ValueError(
                    f"not positive semidefinite: min eigenvalue {min_eig:.3e}") from None
        object.__setattr__(self, "matrix", _readonly(herm))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))


@dataclass(frozen=True)
class FockDistribution:
    """Classical populations over Fock levels 0..n_max.

    truncation_loss records probability discarded by the constructor before
    renormalisation (e.g. the geometric tail beyond n_max).
    """

    populations: np.ndarray
    truncation_loss: float = 0.0

    def __post_init__(self) -> None:
        p = np.array(self.populations, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("populations must be a non-empty 1-D array")
        if not p.min() >= -1e-12:
            raise ValueError(f"population {p.min():.3e} is not >= 0")
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"populations sum to {total:.12g}, expected 1")
        if self.truncation_loss < 0:
            raise ValueError("truncation_loss must be >= 0")
        object.__setattr__(self, "populations", _readonly(p))

    @property
    def n_max(self) -> int:
        return self.populations.size - 1


# ---------------------------------------------------------------------------
# operator constructors


def lowering_op(fock: FockBasis) -> Operator:
    """Annihilation operator a with a[n-1, n] = sqrt(n)."""
    n = np.arange(1, fock.dim)
    mat = np.zeros((fock.dim, fock.dim), dtype=complex)
    mat[n - 1, n] = np.sqrt(n)
    return Operator(fock, mat)


def identity_op(space: Space) -> Operator:
    return Operator(space, np.eye(space.dim, dtype=complex))


def tensor(spin_op: Operator, fock_op: Operator) -> Operator:
    """Product-space operator kron(spin_op, fock_op); spin-major by construction."""
    if not isinstance(spin_op.space, SpinBasis):
        raise TypeError("first argument must act on a SpinBasis")
    if not isinstance(fock_op.space, FockBasis):
        raise TypeError("second argument must act on a FockBasis")
    space = ProductSpace(spin_op.space, fock_op.space)
    return Operator(space, np.kron(spin_op.matrix, fock_op.matrix))


def embed_op(space: ProductSpace, spin_mat: np.ndarray, fock_mat: np.ndarray) -> np.ndarray:
    """kron of raw matrices for internal Hamiltonian assembly."""
    return np.kron(np.asarray(spin_mat, dtype=complex), np.asarray(fock_mat, dtype=complex))


# ---------------------------------------------------------------------------
# thermal states


def thermal_fock_cutoff(n_bar: float, tail: float = 1e-6) -> int:
    """Smallest n_max whose discarded geometric tail is below `tail`."""
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    if n_bar == 0:
        return 1
    q = n_bar / (n_bar + 1.0)
    # tail beyond n_max is q**(n_max + 1)
    n_max = int(np.ceil(np.log(tail) / np.log(q))) - 1
    return max(1, n_max)


def thermal_distribution(n_bar: float, n_max: int) -> FockDistribution:
    """Geometric distribution p_n = (1/(n_bar+1)) (n_bar/(n_bar+1))^n, truncated
    at n_max and renormalised; the discarded tail is recorded as truncation_loss."""
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(n_max + 1)
    if n_bar == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return FockDistribution(p, truncation_loss=0.0)
    q = n_bar / (n_bar + 1.0)
    # log-space keeps large n_bar / large n_max finite
    log_p = n * np.log(q) - np.log(n_bar + 1.0)
    p = np.exp(log_p)
    loss = q ** (n_max + 1)
    return FockDistribution(p / p.sum(), truncation_loss=float(loss))


def distribution_density(dist: FockDistribution, space: ProductSpace,
                         spin_label: str = "0'") -> DensityMatrix:
    """Diagonal lift of an arbitrary Fock distribution into one spin level."""
    if dist.n_max != space.fock.n_max:
        raise ValueError(
            f"distribution n_max {dist.n_max} != space n_max {space.fock.n_max}")
    diag = np.zeros(space.dim)
    s = space.spin.index(spin_label)
    fd = space.fock.dim
    diag[s * fd:(s + 1) * fd] = dist.populations
    return DensityMatrix(space, np.diag(diag).astype(complex))


def motional_populations(state: DensityMatrix) -> np.ndarray:
    """Fock populations of a product-space state, summed over spin.

    Only diagonal entries are read; motional coherences are irrelevant to the
    callers (population bookkeeping and projective resets)."""
    if not isinstance(state.space, ProductSpace):
        raise TypeError("state must live on a ProductSpace")
    diag = state.populations()
    return diag.reshape(state.space.spin.dim, state.space.fock.dim).sum(axis=0)


def mean_phonon(state: Union[FockDistribution, DensityMatrix]) -> float:
    """<N> of a Fock distribution, or Tr[rho (I (x) N)] of a product-space state."""
    if isinstance(state, FockDistribution):
        p = state.populations
        return float(np.dot(np.arange(p.size), p))
    if isinstance(state, DensityMatrix):
        if isinstance(state.space, ProductSpace):
            p = motional_populations(state)
        elif isinstance(state.space, FockBasis):
            p = state.populations()
        else:
            raise TypeError("mean_phonon needs a Fock or product-space state")
        return float(np.dot(np.arange(p.size), p))
    raise TypeError(f"unsupported state type {type(state).__name__}")
