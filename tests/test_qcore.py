"""Operator algebra and state-container tests.

Frozen oracle values were computed independently from the closed forms
(geometric thermal weights, sqrt-ladder matrix elements) at higher precision
than the asserted tolerance.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sbcool import (
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
from sbcool.ion import EFFECTIVE_LABELS, two_level_space
from sbcool.qcore import distribution_density


def test_ladder_matrix_elements():
    fock = FockBasis(5)
    a = lowering_op(fock).matrix
    for n in range(1, 6):
        assert a[n - 1, n] == pytest.approx(np.sqrt(n))
    assert np.count_nonzero(a) == 5
    adag = lowering_op(fock).dagger().matrix
    assert np.allclose(adag, a.conj().T)


def test_commutator_is_identity_below_truncation():
    fock = FockBasis(12)
    a = lowering_op(fock).matrix
    comm = a @ a.conj().T - a.conj().T @ a
    # exact identity except the top corner, where truncation bites
    assert np.allclose(comm[:12, :12], np.eye(12))
    assert comm[12, 12] == pytest.approx(-12.0)


def test_tensor_matches_kron():
    spin = SpinBasis(EFFECTIVE_LABELS)
    fock = FockBasis(3)
    space = ProductSpace(spin, fock)
    sm = Operator(spin, np.array([[0.0, 1.0 + 0.5j], [0.0, 0.0]]))
    a = lowering_op(fock)
    t = tensor(sm, a)
    assert t.space.dim == 8
    assert np.allclose(t.matrix, np.kron(sm.matrix, a.matrix))
    assert np.allclose(embed_op(space, sm.matrix, a.matrix), t.matrix)


def test_product_space_index_is_spin_major():
    space = two_level_space(4)
    assert space.index("0'", 0) == 0
    assert space.index("0'", 4) == 4
    assert space.index("D", 0) == 5
    assert space.index("D", 3) == 8


def test_thermal_distribution_geometric():
    nbar = 0.7
    dist = thermal_distribution(nbar, 60)
    p = dist.populations
    q = nbar / (nbar + 1.0)
    ratios = p[1:] / p[:-1]
    assert np.allclose(ratios, q, rtol=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    # mean is slightly below nbar at finite cutoff, converges from below
    assert mean_phonon(dist) == pytest.approx(nbar, rel=1e-6)


def test_thermal_ground_state_weights_frozen():
    # p0 = 1/(1+nbar): 1/1.13 and 1/66
    assert thermal_distribution(0.13, 30).populations[0] == pytest.approx(
        0.8849557522, rel=1e-9)
    assert thermal_distribution(65.0, 2000).populations[0] == pytest.approx(
        0.0151515151, rel=1e-8)


def test_thermal_cutoff_tail_criterion():
    for nbar in (0.1, 1.0, 20.0, 65.0):
        n_max = thermal_fock_cutoff(nbar, tail=1e-6)
        q = nbar / (nbar + 1.0)
        assert q ** (n_max + 1) < 1e-6
        # one level fewer would violate it
        if n_max > 1:
            assert q ** n_max >= 1e-6 or nbar < 0.2
    assert thermal_fock_cutoff(0.0) >= 1


def test_thermal_distribution_records_loss():
    dist = thermal_distribution(2.0, 10)
    q = 2.0 / 3.0
    assert dist.truncation_loss == pytest.approx(q ** 11, rel=1e-9)


def test_distribution_validation():
    with pytest.raises(ValueError):
        FockDistribution(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValueError):
        FockDistribution(np.array([0.5, 0.2]))  # not normalised
    with pytest.raises(ValueError):
        FockDistribution(np.array([[0.5], [0.5]]))  # wrong shape


def test_density_matrix_validation():
    space = two_level_space(2)
    good = thermal_density(0.3, space)
    assert good.matrix.shape == (6, 6)
    bad = np.asarray(good.matrix).copy()
    bad[0, 1] = 0.3  # breaks hermiticity
    with pytest.raises(ValueError):
        DensityMatrix(space, bad)
    bad2 = np.asarray(good.matrix).copy() * 2.0  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(space, bad2)
    bad3 = np.zeros((6, 6), dtype=complex)
    bad3[0, 0], bad3[1, 1] = 1.5, -0.5  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(space, bad3)


@pytest.mark.parametrize("entries", [
    [(1, 1)], [(0, 1), (1, 0)],
    # infinities, alone, mirrored or imaginary, are caught as NaN is
    [(1, 1, np.inf)], [(0, 1, np.inf), (1, 0, np.inf)], [(2, 0, complex(0.0, np.inf))],
])
def test_density_matrix_rejects_non_finite_entries(entries):
    mat = np.diag([0.5, 0.5, 0.0]).astype(complex)
    for i, j, *value in entries:
        mat[i, j] = value[0] if value else np.nan
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(FockBasis(2), mat)


def _rotated(eigs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """An exactly Hermitian matrix with spectrum eigs, up to roundoff."""
    d = eigs.size
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    mat = (q * eigs) @ q.conj().T
    return (mat + mat.conj().T) / 2.0


@st.composite
def _near_threshold_states(draw):
    """Unit-trace Hermitian matrices, D <= 40, whose smallest eigenvalues lie
    at +-(0.5..10) psd_tol, with a cluster of up to D - 1 just above it."""
    dim = draw(st.integers(2, 40))
    psd_tol = draw(st.sampled_from([1e-7, 1e-9]))
    lam_min = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.5, 10.0)) * psd_tol
    n_small = draw(st.integers(1, dim - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    small = lam_min + rng.uniform(0.0, 10.0 * psd_tol, n_small)
    small[0] = lam_min
    rest = rng.uniform(0.1, 1.0, dim - n_small)
    rest *= (1.0 - small.sum()) / rest.sum()
    return _rotated(np.concatenate([small, rest]), rng), psd_tol


@settings(max_examples=200)
@given(_near_threshold_states())
def test_positivity_certificate_decides_as_eigvalsh(problem):
    mat, psd_tol = problem
    min_eig = np.linalg.eigvalsh(mat).min()
    assume(abs(min_eig + psd_tol) > 1e-12)
    space = FockBasis(len(mat) - 1)
    if min_eig >= -psd_tol:
        assert np.array_equal(DensityMatrix(space, mat, psd_tol=psd_tol).matrix, mat)
    else:
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityMatrix(space, mat, psd_tol=psd_tol)


@st.composite
def _rank_deficient_states(draw):
    """PSD states with exactly zero rows and columns outside their support."""
    dim = draw(st.integers(2, 40))
    support = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim - 1,
                            unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = _rotated(rng.uniform(0.1, 1.0, len(support)), rng)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.ix_(support, support)] = block / np.trace(block).real
    return mat


@settings(max_examples=100)
@given(_rank_deficient_states())
def test_zero_psd_tol_decides_as_eigvalsh_on_rank_deficient_states(mat):
    space = FockBasis(len(mat) - 1)
    if np.linalg.eigvalsh(mat).min() >= 0.0:
        DensityMatrix(space, mat, psd_tol=0.0)
    else:
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityMatrix(space, mat, psd_tol=0.0)


def test_negative_state_names_its_min_eigenvalue():
    mat = _rotated(np.array([-2e-9, 0.25, 0.75 + 2e-9]), np.random.default_rng(3))
    with pytest.raises(ValueError, match=r"not positive semidefinite: "
                                         r"min eigenvalue -2\.000e-09"):
        DensityMatrix(FockBasis(2), mat)


def test_thermal_density_population_placement():
    space = two_level_space(3)
    rho = thermal_density(0.4, space, spin_label="0'")
    pops = np.real(np.diag(rho.matrix))
    # all population on the first spin block
    assert pops[:4].sum() == pytest.approx(1.0, abs=1e-12)
    assert pops[4:].sum() == pytest.approx(0.0, abs=1e-12)


def test_motional_populations_sum_spin_blocks():
    space = two_level_space(2)
    dist = FockDistribution(np.array([0.5, 0.3, 0.2]))
    rho = distribution_density(dist, space, "D")
    pops = motional_populations(rho)
    assert np.allclose(pops, [0.5, 0.3, 0.2])


def test_mean_phonon_consistency():
    space = two_level_space(40)
    nbar = 1.7
    rho = thermal_density(nbar, space)
    dist = thermal_distribution(nbar, 40)
    assert mean_phonon(rho) == pytest.approx(mean_phonon(dist), rel=1e-12)
    n_op = Operator(space.fock, np.diag(np.arange(41.0)).astype(complex))
    n_full = tensor(identity_op(space.spin), n_op)
    expectation = np.trace(n_full.matrix @ rho.matrix).real
    assert expectation == pytest.approx(mean_phonon(rho), rel=1e-12)


def test_operator_arithmetic_and_hermiticity():
    fock = FockBasis(4)
    a = lowering_op(fock)
    x = a + a.dagger()
    assert x.is_hermitian()
    assert not a.is_hermitian()
    y = x * 2.0 - x
    assert np.allclose(y.matrix, x.matrix)
    assert np.allclose((a @ a.dagger()).matrix, a.matrix @ a.dagger().matrix)


def test_spin_basis_rejects_duplicates():
    with pytest.raises(ValueError):
        SpinBasis(("a", "a"))
    with pytest.raises(ValueError):
        FockBasis(0)
