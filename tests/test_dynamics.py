"""Integrator and probe-simulation tests.

The Rabi and heating oracles are closed forms: P(t) = sin^2(pi f t) for a
resonant two-level pair, d<N>/dt = n_dot for the a/a-dagger pair of collapse
operators, and the exact thermal red/blue ratio n_bar/(n_bar+1).
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

import sbcool.dynamics as dynamics
from sbcool import (
    DensityMatrix,
    FockBasis,
    FockDistribution,
    HeatingChannel,
    IntegrationError,
    LindbladModel,
    Operator,
    ScanResult,
    SidebandProbe,
    TrapParams,
    TruncationError,
    effective_two_level_hamiltonian,
    evolve_lindblad,
    evolve_unitary,
    heating_collapse_ops,
    load_config,
    mean_phonon,
    motional_populations,
    sideband_probability,
    sideband_scan_probability,
    simulate_flop,
    simulate_scan,
    thermal_density,
    thermal_distribution,
    two_level_space,
)
from sbcool.cli import main
from sbcool.dynamics import _closed_response, solve_ivp as rk45
from sbcool.qcore import distribution_density
from sbcool.thermometry import _line_shape

F1 = 394.2770864  # eta * 61.2 kHz


def resonant_probe(sideband="blue", model="effective") -> SidebandProbe:
    return SidebandProbe(F1, sideband=sideband, model=model)


def _generator(h, ls):
    """-i[H, .] + sum_k D[L_k] as a sparse matrix on row-major vec(rho), the
    oracle for the engine's dissipator.  Every term is built literally, as
    A (x) B' for rho -> A rho B (no rho = rho' shortcut)."""
    eye = sp.eye_array(h.shape[0])
    gen = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
    for l in ls:
        ldl = l.conj().T @ l
        gen = gen + sp.kron(l, l.conj()) - 0.5 * (sp.kron(ldl, eye) + sp.kron(eye, ldl.T))
    return sp.csr_array(gen)


def closed_scan_response(probe, grid, t_probe_s, n_max):
    """The closed engine's response of a scan, as the integrate forward builds it."""
    return _closed_response(probe, np.asarray(grid, dtype=float), np.array([t_probe_s]), n_max)


def test_unitary_matches_lindblad_without_collapse():
    space = two_level_space(6)
    h = effective_two_level_hamiltonian(F1, 426.7e3, 426.7e3, space,
                                        sideband="blue")
    rho0 = thermal_density(0.0, space)
    times = np.linspace(1e-4, 2e-3, 7)
    li = evolve_lindblad(LindbladModel(h, ()), rho0, times)
    un = evolve_unitary(h, rho0, times)
    for a, b in zip(li, un):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-7


def test_vacuum_blue_flop_is_rabi_oracle():
    times = np.linspace(0.0, 3e-3, 25)
    r = simulate_flop(resonant_probe("blue"), times, 0.0)
    assert np.max(np.abs(r.p_f1 - np.sin(np.pi * F1 * times) ** 2)) < 1e-6


def test_vacuum_red_flop_is_dark():
    times = np.linspace(0.0, 3e-3, 9)
    r = simulate_flop(resonant_probe("red"), times, 0.0)
    assert np.max(r.p_f1) < 1e-10


def test_heating_rate_exact_on_vacuum_and_thermal():
    space = two_level_space(40)
    h = effective_two_level_hamiltonian(0.0, 426.7e3, -426.7e3, space)
    ops = tuple(heating_collapse_ops(HeatingChannel(41.0), space))
    model = LindbladModel(h, ops)
    for nbar0 in (0.0, 0.5):
        rho0 = thermal_density(nbar0, space)
        states = evolve_lindblad(model, rho0, [5e-3, 10e-3])
        assert mean_phonon(states[0]) == pytest.approx(nbar0 + 41.0 * 5e-3, rel=1e-6)
        assert mean_phonon(states[1]) == pytest.approx(nbar0 + 41.0 * 10e-3, rel=1e-6)
        drift = abs(float(np.real(np.trace(states[1].matrix))) - 1.0)
        assert drift < 1e-8


def test_four_level_matches_effective_within_two_percent():
    times = np.linspace(0.0, 1.27e-3, 9)
    a = simulate_flop(resonant_probe("blue", "effective"), times, 0.0, n_max=6)
    b = simulate_flop(resonant_probe("blue", "full_dressed"), times, 0.0, n_max=6)
    # compare pointwise against the flop amplitude
    assert np.max(np.abs(a.p_f1 - b.p_f1)) < 0.02


def test_flop_matches_closed_form_with_thermal_state():
    times = np.linspace(0.0, 4e-3, 17)
    for nbar in (0.13, 1.0):
        r = simulate_flop(resonant_probe("blue"), times, nbar)
        ana = sideband_probability(times, "blue", nbar, F1)
        assert np.max(np.abs(r.p_f1 - ana)) < 1e-5


def test_scan_matches_closed_form():
    nu = 426.7e3
    grid = np.linspace(-nu - 1500.0, -nu + 1500.0, 11)
    scan = simulate_scan(resonant_probe("red"), grid, 1.27e-3, 0.13)
    ana = sideband_scan_probability(grid, "red", 0.13, F1, nu, 1.27e-3)
    assert np.max(np.abs(scan.p_f1 - ana)) < 1e-5


def test_thermal_ratio_identity_on_resonance():
    nbar = 0.13
    q = nbar / (nbar + 1.0)
    for t in (0.4e-3, 1.27e-3):
        red = simulate_flop(resonant_probe("red"), [t], nbar)
        blue = simulate_flop(resonant_probe("blue"), [t], nbar)
        assert red.p_f1[-1] / blue.p_f1[-1] == pytest.approx(q, rel=1e-5)


def test_scan_parallel_matches_serial():
    # only heated points are integrated one by one, so only they reach the pool
    nu = 426.7e3
    grid = np.linspace(nu - 1000.0, nu + 1000.0, 6)
    heating = HeatingChannel(41.0)
    a = simulate_scan(resonant_probe("blue"), grid, 0.8e-3, 0.2, heating, n_max=10, jobs=1)
    b = simulate_scan(resonant_probe("blue"), grid, 0.8e-3, 0.2, heating, n_max=10, jobs=2)
    assert np.array_equal(a.x, b.x)
    assert np.max(np.abs(a.p_f1 - b.p_f1)) < 1e-12


def test_heated_scan_pool_never_exceeds_the_detunings(monkeypatch):
    import concurrent.futures
    sizes = []

    class SerialPool:  # records the pool size and starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    grid = 426.7e3 + np.array([-500.0, 0.0, 500.0])
    simulate_scan(resonant_probe("blue"), grid, 0.8e-3, 0.2, HeatingChannel(41.0),
                  n_max=10, jobs=8)
    assert sizes == [3]


@pytest.mark.parametrize("n_dot", [np.inf, np.nan])
def test_cutoff_policy_that_overflows_is_too_hot(n_dot):
    with pytest.raises(TruncationError, match="too hot"):
        dynamics.fock_cutoff_for_dynamics(0.13, n_dot, 1e-3)


@pytest.mark.parametrize("jobs", [0, -3])
def test_scan_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        simulate_scan(resonant_probe("blue"), [426.7e3], 1e-3, 0.1, jobs=jobs)


@pytest.mark.parametrize("t_probe", [0.0, -1e-3, np.nan])
def test_scan_rejects_a_probe_time_that_is_not_positive(t_probe):
    with pytest.raises(ValueError, match="t_probe_s must be > 0"):
        simulate_scan(resonant_probe("blue"), [426.7e3], t_probe, 0.1)


def test_truncation_guard_trips_when_space_too_small():
    times = [0.0, 20e-3]
    with pytest.raises(TruncationError, match="top Fock level"):
        simulate_flop(resonant_probe("blue"), times, 2.0,
                      heating=HeatingChannel(500.0), n_max=8)


def _forward_readout(probe, delta_hz, times, rho0):
    """P(F=1) and top-level population by evolve_lindblad, one solve per call."""
    model = LindbladModel(probe.hamiltonian(rho0.space, delta_hz))
    states = evolve_lindblad(model, rho0, times)
    return (np.array([dynamics._p_f1(s.space, s.populations()) for s in states]),
            np.array([motional_populations(s)[-1] for s in states]))


@pytest.mark.parametrize("model", ["effective", "full_dressed"])
@pytest.mark.parametrize("sideband", ["red", "blue"])
@pytest.mark.parametrize("pinned", [False, True])
def test_scan_response_matches_forward_solves(model, sideband, pinned):
    # every column |0', n> against its own forward solve, which runs the
    # independent density-matrix propagation of evolve_lindblad; pinned runs
    # repro fig3's 350 Hz coupling in place of the derived one
    probe = SidebandProbe(350.0 if pinned else F1, sideband=sideband, model=model)
    grid = probe.resonance_hz() + np.array([-1500.0, 0.0, 700.0])
    n_max = 6
    response = closed_scan_response(probe, grid, 1.27e-3, n_max)
    space = probe.space(n_max)
    for n in range(n_max + 1):
        rho0 = distribution_density(FockDistribution(np.eye(n_max + 1)[n]), space, "0'")
        for i, delta in enumerate(grid):
            f1, top = _forward_readout(probe, delta, [1.27e-3], rho0)
            assert abs(response.f1[i, n] - f1[0]) < 1e-12
            assert abs(response.top[i, n] - top[0]) < 1e-12


@pytest.mark.parametrize("sideband", ["red", "blue"])
def test_scan_response_matches_line_shape(sideband):
    probe = resonant_probe(sideband)
    grid = probe.resonance_hz() + np.linspace(-3000.0, 3000.0, 13)
    n_max = 10
    response = closed_scan_response(probe, grid, 1.27e-3, n_max)
    line = _line_shape(grid, np.array([1.27e-3]), sideband, probe.sideband_rabi_hz,
                       probe.nu_z_hz, n_max)
    # the blue n_max column has no |D, n_max + 1> to transfer to
    cols = n_max if sideband == "blue" else n_max + 1
    assert np.max(np.abs(response.f1[:, :cols] - line[:, :cols])) < 1e-12


@pytest.mark.parametrize("model", ["effective", "full_dressed"])
def test_closed_flop_matches_lindblad_time_series(model):
    probe = resonant_probe("blue", model)
    times = np.linspace(0.0, 4e-3, 17)
    n_max = 12
    flop = simulate_flop(probe, times, 0.3, n_max=n_max)
    rho0 = distribution_density(thermal_distribution(0.3, n_max), probe.space(n_max), "0'")
    f1, _ = _forward_readout(probe, probe.resonance_hz(), times, rho0)
    assert np.max(np.abs(flop.p_f1 - f1)) < 1e-12


@st.composite
def _scan_readouts(draw):
    probe = SidebandProbe(F1, sideband=draw(st.sampled_from(["red", "blue"])),
                          model=draw(st.sampled_from(["effective", "full_dressed"])))
    offsets = draw(st.lists(st.floats(-3000.0, 3000.0), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)
                   .filter(lambda w: sum(w) > 0.1))
    pops = np.array(weights) / sum(weights)
    return probe, probe.resonance_hz() + np.sort(offsets), pops


@settings(max_examples=25)
@given(_scan_readouts())
def test_response_readout_is_the_forward_solve(problem):
    probe, grid, pops = problem
    n_max = pops.size - 1
    rho0 = distribution_density(FockDistribution(pops), probe.space(n_max), "0'")
    readout = closed_scan_response(probe, grid, 1.27e-3, n_max).f1 @ pops
    for delta, value in zip(grid, readout):
        assert abs(value - _forward_readout(probe, delta, [1.27e-3], rho0)[0][0]) < 1e-12


@pytest.mark.parametrize("broken", ["non-unitary", "nan"])
def test_engine_guard_trips_on_bad_eigenvectors(monkeypatch, broken):
    real = np.linalg.eigh

    def bad_eigh(mat):
        w, v = real(mat)
        return w, v * 1.01 if broken == "non-unitary" else np.full_like(v, np.nan)
    monkeypatch.setattr(np.linalg, "eigh", bad_eigh)
    probe = resonant_probe("blue")
    with pytest.raises(IntegrationError, match="propagator column norm drifts"):
        closed_scan_response(probe, [probe.resonance_hz()], 1.27e-3, 8)
    with pytest.raises(IntegrationError, match="propagator column norm drifts"):
        simulate_flop(probe, [0.0, 1e-3], 0.13)


def test_engine_rejects_non_hermitian_hamiltonian(monkeypatch):
    real = dynamics.effective_two_level_hamiltonian

    def skewed(*args, **kwargs):
        h = real(*args, **kwargs)
        mat = h.matrix.copy()
        mat[0, 1] += 1.0
        return Operator(h.space, mat)
    monkeypatch.setattr(dynamics, "effective_two_level_hamiltonian", skewed)
    probe = resonant_probe("blue")
    with pytest.raises(ValueError, match="not Hermitian"):
        closed_scan_response(probe, [probe.resonance_hz()], 1.27e-3, 8)


@pytest.mark.parametrize("times", [[-1e-4, 1e-3], [0.0, 1e-3, 1e-3], [1e-3, 5e-4]])
def test_closed_flop_rejects_bad_time_grids(times):
    with pytest.raises(ValueError, match="strictly increasing and start at >= 0"):
        simulate_flop(resonant_probe("blue"), times, 0.13)


def test_closed_scan_and_flop_trip_the_top_level_guard():
    probe = resonant_probe("blue")
    simulate_scan(probe, [probe.resonance_hz()], 1.27e-3, 0.13, n_max=12)
    with pytest.raises(TruncationError, match="top Fock level"):
        simulate_scan(probe, [probe.resonance_hz()], 1.27e-3, 2.0, n_max=8)
    with pytest.raises(TruncationError, match="top Fock level"):
        simulate_flop(probe, [0.0, 1e-3], 2.0, n_max=8)


def test_scan_response_top_guard_trips_when_space_too_small():
    probe = resonant_probe("blue")
    response = closed_scan_response(probe, [probe.resonance_hz()], 1.27e-3, 12)
    response.p_f1(thermal_distribution(0.13, 12).populations)
    with pytest.raises(TruncationError):
        response.p_f1(thermal_distribution(2.0, 12).populations)


def test_generator_is_the_literal_lindblad_form():
    rng = np.random.default_rng(7)

    def rand(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    h = rand((6, 6))
    h = h + h.conj().T
    ls = [rand((6, 6)), rand((6, 6))]
    rho = rand((6, 6))
    literal = -1j * (h @ rho - rho @ h)
    for l in ls:
        ldl = l.conj().T @ l
        literal += l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    vec = _generator(h, ls) @ rho.reshape(-1)
    assert np.max(np.abs(vec.reshape(6, 6) - literal)) < 1e-12 * np.abs(literal).max()


class _Integrated(Exception):
    pass


@pytest.mark.parametrize("model, n_max, entries", [
    ("effective", 25, 102),
    ("full_dressed", 10, 170),
])
def test_integrates_only_entries_reachable_from_rho0(monkeypatch, model, n_max, entries):
    # A diagonal rho0 stays in the block of equal excitation number on both
    # sides.
    sizes = []

    def spy(fun, t_span, y0, **kwargs):
        sizes.append(y0.size)
        raise _Integrated

    monkeypatch.setattr(dynamics, "solve_ivp", spy)
    probe = SidebandProbe(F1, sideband="red", model=model)
    with pytest.raises(_Integrated):
        simulate_flop(probe, [0.0, 1e-3], 0.13, heating=HeatingChannel(41.0), n_max=n_max)
    assert sizes == [entries]


def test_restricted_flop_matches_full_generator():
    probe = resonant_probe("blue", "full_dressed")
    space = probe.space(6)
    model = LindbladModel(probe.hamiltonian(space, probe.resonance_hz()),
                          tuple(heating_collapse_ops(HeatingChannel(300.0), space)))
    rho0 = thermal_density(0.13, space)
    times = np.linspace(0.0, 2e-3, 9)
    states = evolve_lindblad(model, rho0, times)
    gen = _generator(model.hamiltonian.matrix, [op.matrix for op in model.collapse_ops])
    full = solve_ivp(lambda _t, y: gen @ y, (0.0, times[-1]),
                     rho0.matrix.astype(complex).reshape(-1), method="RK45",
                     t_eval=times, rtol=1e-8, atol=1e-11)
    assert full.success
    for state, y in zip(states, full.y.T):
        assert np.max(np.abs(state.matrix - y.reshape(space.dim, space.dim))) < 1e-7


def _restricted_exponential(model, rho0, times):
    """expm of the generator on the weak components of its sparsity graph that
    hold rho0's nonzero entries, each output time, on those entries."""
    gen = _generator(model.hamiltonian.matrix, [op.matrix for op in model.collapse_ops])
    y0 = rho0.matrix.astype(complex).reshape(-1)
    _, labels = connected_components(gen != 0, directed=True, connection="weak")
    keep = np.flatnonzero(np.isin(labels, labels[y0 != 0]))
    sub = gen[keep][:, keep].toarray()
    return keep, [expm(sub * ti) @ y0[keep] for ti in times]


@pytest.mark.parametrize("model, sideband, n_dot, pinned", [
    *[(m, s, r, False) for m in ("effective", "full_dressed") for s in ("red", "blue")
      for r in (41.0, 300.0)],
    ("effective", "red", 300.0, True),
])
def test_heated_run_is_the_restricted_generator_exponential(model, sideband, n_dot, pinned):
    # Measured at the default tolerances: at most 4.0e-9 from the exponential
    # (effective) and 7.3e-10 (full_dressed); RK45 on the lab-frame generator
    # reached 2.5e-8 on the latter.  pinned runs repro fig3's 350 Hz coupling.
    probe = SidebandProbe(350.0 if pinned else F1, sideband=sideband, model=model)
    n_max, t_max = {"effective": (25, 10e-3), "full_dressed": (12, 2e-3)}[model]
    space = probe.space(n_max)
    lindblad = LindbladModel(probe.hamiltonian(space, probe.resonance_hz()),
                             tuple(heating_collapse_ops(HeatingChannel(n_dot), space)))
    rho0 = thermal_density(0.13, space)
    times = np.linspace(0.0, t_max, 6)
    keep, exact = _restricted_exponential(lindblad, rho0, times)
    for state, y in zip(evolve_lindblad(lindblad, rho0, times), exact):
        flat = state.matrix.reshape(-1)
        assert np.max(np.abs(flat[keep] - y)) < 1e-8
        assert not np.delete(flat, keep).any()


@pytest.mark.parametrize("model", ["effective", "full_dressed"])
@pytest.mark.parametrize("sideband", ["red", "blue"])
@pytest.mark.parametrize("offset_hz", [0.0, 700.0])
def test_closed_evolution_matches_full_generator(model, sideband, offset_hz):
    probe = resonant_probe(sideband, model)
    space = probe.space(6)
    h = probe.hamiltonian(space, probe.resonance_hz() + offset_hz)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    # the pure part spreads over the whole space, so rho0 couples every pair
    # of H blocks
    rho0 = DensityMatrix(space, 0.5 * thermal_density(0.13, space).matrix
                         + 0.5 * np.outer(psi, psi.conj()))
    times = np.linspace(2e-4, 2e-3, 5)
    states = evolve_lindblad(LindbladModel(h), rho0, times)
    gen = _generator(h.matrix, [])
    full = solve_ivp(lambda _t, y: gen @ y, (0.0, times[-1]), rho0.matrix.reshape(-1),
                     method="RK45", t_eval=times, rtol=1e-8, atol=1e-11)
    assert full.success
    for state, y in zip(states, full.y.T):
        assert np.max(np.abs(state.matrix - y.reshape(space.dim, space.dim))) < 1e-7


@pytest.mark.parametrize("n_dot, called", [
    (0.0, set()),
    (41.0, {"_dissipator_tiles", "solve_ivp"}),
])
def test_closed_adaptive_runs_are_propagated_exactly(monkeypatch, n_dot, called):
    seen = set()
    for name in ("_dissipator_tiles", "solve_ivp"):
        def spy(*args, _name=name, _real=getattr(dynamics, name), **kwargs):
            seen.add(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(dynamics, name, spy)
    space = two_level_space(8)
    h = effective_two_level_hamiltonian(F1, 426.7e3, 426.7e3, space,
                                        sideband="blue")
    # rate 0 still passes two (zero) collapse operators
    model = LindbladModel(h, tuple(heating_collapse_ops(HeatingChannel(n_dot), space)))
    evolve_lindblad(model, thermal_density(0.13, space), [0.0, 1e-4])
    assert seen == called


def _block_hamiltonian(draw, rng):
    """A random Hermitian H on 2..12 levels, block-diagonal in a random order
    with blocks of 1..4 levels."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)
                 .filter(lambda s: 2 <= sum(s) <= 12))
    dim = sum(sizes)
    perm = np.array(draw(st.permutations(range(dim))))
    h = np.zeros((dim, dim), dtype=complex)
    start = 0
    for size in sizes:
        block = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        h[start:start + size, start:start + size] = block + block.conj().T
        start += size
    return h[np.ix_(perm, perm)]


@st.composite
def _sparsity_patterns(draw):
    """A random symmetric boolean matrix on 1..30 nodes, self-links included."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    linked = np.zeros((n, n), dtype=bool)
    for i, j in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        linked[i, j] = linked[j, i] = True
    return linked


def _shuffled_path(n):
    """One path through n nodes visited in random index order: min-label
    propagation would need about n/2 rounds to settle it."""
    order = np.random.default_rng(0).permutation(n)
    linked = np.zeros((n, n), dtype=bool)
    linked[order[:-1], order[1:]] = True
    return linked | linked.T


def _assert_csgraph_components(linked):
    count, labels = dynamics._components(len(linked), *np.nonzero(linked))
    expected_count, expected = connected_components(sp.csr_array(linked), directed=False)
    assert count == expected_count
    assert np.array_equal(labels, expected)


@settings(max_examples=100)
@given(_sparsity_patterns())
@example(_shuffled_path(1000))
@example(np.zeros((50, 50), dtype=bool))
def test_components_match_csgraph(linked):
    # block order, and so every output byte, follows these labels
    _assert_csgraph_components(linked)


@pytest.mark.parametrize("model", ["effective", "full_dressed"])
@pytest.mark.parametrize("sideband", ["red", "blue"])
@pytest.mark.parametrize("heated", [False, True])
def test_components_match_csgraph_on_probe_hamiltonians(model, sideband, heated):
    # H's own pattern, or (heated) the tile graph of its dissipator that
    # _integrate labels to find the reachable tiles
    probe = SidebandProbe(F1, sideband=sideband, model=model)
    space = probe.space(20)
    h = probe.hamiltonian(space, probe.resonance_hz()).matrix
    if not heated:
        _assert_csgraph_components(h != 0)
        return
    _, block, place, vecs = dynamics._eig_blocks(h)
    l_mats = [op.matrix for op in heating_collapse_ops(HeatingChannel(41.0), space)]
    target, source = dynamics._dissipator_tiles(l_mats, block, place, vecs)[3:]
    linked = np.zeros((vecs.shape[0] ** 2,) * 2, dtype=bool)
    linked[target, source] = linked[source, target] = True
    _assert_csgraph_components(linked)


@st.composite
def _closed_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = _block_hamiltonian(draw, rng)
    dim = h.shape[0]
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho0 = a @ a.conj().T + 0.1 * np.eye(dim)
    return h, rho0 / np.trace(rho0).real, draw(st.floats(0.0, 5.0))


@settings(max_examples=50)
@given(_closed_problems())
def test_exact_path_is_the_generator_exponential(problem):
    h, rho0, t = problem
    dim = h.shape[0]
    space = FockBasis(dim - 1)
    state = evolve_lindblad(LindbladModel(Operator(space, h)),
                            DensityMatrix(space, rho0), [t])[0]
    oracle = (expm(_generator(h, []).toarray() * t) @ rho0.reshape(-1)).reshape(dim, dim)
    assert np.max(np.abs(state.matrix - oracle)) < 1e-9
    # unitary similarity keeps the spectrum
    spectrum = np.linalg.eigvalsh(state.matrix)
    assert np.max(np.abs(spectrum - np.linalg.eigvalsh(rho0))) < 1e-10


@st.composite
def _heated_block_problems(draw):
    """Block-structured H with heating on FockBasis(dim - 1), and up to three
    extra jumps |i><j| in one more collapse operator, whose L'L can link
    levels that nothing else does; rho0 is a random state on a random subset
    of levels, so it couples some blocks and not others."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = _block_hamiltonian(draw, rng)
    dim = h.shape[0]
    space = FockBasis(dim - 1)
    support = np.array(draw(st.lists(st.integers(0, dim - 1), min_size=1, unique=True)))
    a = rng.normal(size=(support.size,) * 2) + 1j * rng.normal(size=(support.size,) * 2)
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[np.ix_(support, support)] = a @ a.conj().T / np.sum(np.abs(a) ** 2)
    heating = HeatingChannel(draw(st.floats(0.05, 1.0)))
    jumps = np.zeros((dim, dim), dtype=complex)
    for i, j in draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                              max_size=3)):
        jumps[i, j] += 0.5
    model = LindbladModel(Operator(space, h), (*heating_collapse_ops(heating, space),
                                               Operator(space, jumps)))
    return model, DensityMatrix(space, rho0), np.linspace(0.0, draw(st.floats(0.1, 3.0)), 4)


def _drain_only_problem():
    """H diagonal, one jump |0><1| + |0><2| and rho0 on (|1> + |3>)/sqrt(2):
    only L'L rho carries rho's entry (1, 3) on to (2, 3), since no jump
    leaves level 3."""
    space = FockBasis(3)
    jump = np.zeros((4, 4))
    jump[0, 1] = jump[0, 2] = 1.0
    psi = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
    model = LindbladModel(Operator(space, np.diag([0.0, 1.0, 3.0, 7.0])),
                          (Operator(space, jump),))
    return model, DensityMatrix(space, np.outer(psi, psi)), np.linspace(0.0, 1.0, 4)


@settings(max_examples=40)
@given(_heated_block_problems())
@example(_drain_only_problem())
def test_heated_path_is_the_generator_exponential(problem):
    # Measured over 300 seeded draws: at most 2.3e-8 from the exponential
    # (median 2e-10); RK45 on the lab-frame generator reached 1.2e-8.
    model, rho0, times = problem
    dim = model.space.dim
    gen = _generator(model.hamiltonian.matrix,
                     [op.matrix for op in model.collapse_ops]).toarray()
    for state, ti in zip(evolve_lindblad(model, rho0, times), times):
        exact = (expm(gen * ti) @ rho0.matrix.reshape(-1)).reshape(dim, dim)
        assert np.max(np.abs(state.matrix - exact)) < 1e-7


@st.composite
def _heated_fock_problems(draw):
    """A coherent rho0 on n <= 3 of FockBasis(48), H = omega N, n_dot t <= 1."""
    fock = FockBasis(48)
    support = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    rho0 = np.zeros((fock.dim, fock.dim), dtype=complex)
    rho0[:support, :support] = a @ a.conj().T / np.sum(np.abs(a) ** 2)
    n_dot = draw(st.floats(1.0, 100.0))
    h = Operator(fock, np.diag(draw(st.floats(0.0, 1e3)) * np.arange(fock.dim)))
    model = LindbladModel(h, tuple(heating_collapse_ops(HeatingChannel(n_dot), fock)))
    times = np.linspace(0.0, draw(st.floats(0.1, 1.0)) / n_dot, 6)
    return model, DensityMatrix(fock, rho0), n_dot, times


@settings(max_examples=30)
@given(_heated_fock_problems())
def test_heated_run_keeps_trace_positivity_and_heating_rate(problem):
    model, rho0, n_dot, times = problem
    n0 = mean_phonon(rho0)
    for state, ti in zip(evolve_lindblad(model, rho0, times), times):
        # d<N>/dt = n_dot, to within ten times RK45's relative tolerance
        assert mean_phonon(state) == pytest.approx(n0 + n_dot * ti,
                                                   rel=10 * dynamics.RK45_RTOL)
        assert abs(np.trace(state.matrix) - 1.0) < 1e-8
        # accepted again at the tolerances of an exactly constructed state
        DensityMatrix(model.space, state.matrix)


def _closed_blue_flop(space):
    h = effective_two_level_hamiltonian(F1, 426.7e3, 426.7e3, space,
                                        sideband="blue")
    return LindbladModel(h), thermal_density(0.13, space)


@pytest.mark.parametrize("entries, reason", [
    ([(0, 0)], "trace drift nan"),
    ([(0, 1), (1, 0)], "non-finite"),
])
def test_non_finite_output_is_an_integration_error(monkeypatch, entries, reason):
    def nan_states(_h_mat, _l_mats, rho0_mat, t):
        rho = np.array(rho0_mat)
        for idx in entries:
            rho[idx] = np.nan
        return np.arange(rho.size), np.repeat(rho.reshape(-1, 1), t.size, axis=1)
    monkeypatch.setattr(dynamics, "_integrate", nan_states)
    model, rho0 = _closed_blue_flop(two_level_space(4))
    with pytest.raises(IntegrationError, match=reason):
        evolve_lindblad(model, rho0, [1e-4])


def test_asymmetric_output_is_not_hermitised_away(monkeypatch):
    real = dynamics._integrate

    def skewed(h_mat, *args):
        dim = h_mat.shape[0]
        keep, x = real(h_mat, *args)
        rho = np.stack([dynamics._full(dim, keep, col) for col in x.T], axis=-1)
        rho[0, 1] += 1e-9
        rho[1, 0] -= 1e-9
        return np.arange(dim * dim), rho.reshape(dim * dim, -1)
    monkeypatch.setattr(dynamics, "_integrate", skewed)
    model, rho0 = _closed_blue_flop(two_level_space(4))
    with pytest.raises(IntegrationError, match="not Hermitian"):
        evolve_lindblad(model, rho0, [1e-4])


def test_scan_result_leaves_caller_arrays_writable():
    times = np.linspace(0.0, 1e-3, 5)
    r = simulate_flop(resonant_probe("blue"), times, 0.13)
    times[-1] = 2e-3
    assert r.x[-1] == 1e-3 and not r.x.flags.writeable


def test_empty_times_are_rejected_before_the_cutoff_policy():
    with pytest.raises(ValueError, match="times must be a non-empty 1-D sequence"):
        simulate_flop(resonant_probe(), [], 0.1)


def test_heating_collapse_ops_scaling():
    space = two_level_space(5)
    up, down = heating_collapse_ops(HeatingChannel(41.0), space)
    # matrix elements sqrt(n_dot) * sqrt(n)
    i1 = space.index("0'", 1)
    i0 = space.index("0'", 0)
    assert abs(up.matrix[i1, i0]) == pytest.approx(np.sqrt(41.0), rel=1e-12)
    assert abs(down.matrix[i0, i1]) == pytest.approx(np.sqrt(41.0), rel=1e-12)
    for op in heating_collapse_ops(HeatingChannel(0.0), space):
        assert np.abs(op.matrix).max() == 0.0


def test_result_containers_validate():
    with pytest.raises(ValueError):
        ScanResult(np.array([0.0, 0.0]), np.array([0.1, 0.2]))  # not increasing
    with pytest.raises(ValueError):
        ScanResult(np.array([1.0]), np.array([0.1, 0.2]))  # length mismatch
    r = ScanResult(np.array([0.0, 1.0]), np.array([-1e-12, 1.0 + 1e-12]))
    assert r.p_f1.min() >= 0.0 and r.p_f1.max() <= 1.0


def test_probe_resonance_and_rabi_properties():
    assert SidebandProbe(F1, sideband="red").resonance_hz() == -426.7e3
    assert SidebandProbe(F1, nu_z_hz=300e3, sideband="blue").resonance_hz() == 300e3
    # the config derives eta * carrier unless sideband_rabi_hz pins it
    assert load_config().probe("red").sideband_rabi_hz == pytest.approx(F1, rel=1e-9)
    pinned = load_config(overrides={"sideband_rabi_hz": "350"}).probe("blue", "full_dressed")
    assert (pinned.sideband_rabi_hz, pinned.model) == (350.0, "full_dressed")


@pytest.mark.parametrize("make, name, value", [
    pytest.param(make, name, value, id=f"{make.__name__}-{name}")
    for make, name, value in [
        (SidebandProbe, "sideband_rabi_hz", np.nan),
        (SidebandProbe, "nu_z_hz", np.nan),
        (SidebandProbe, "dressing_rabi_hz", np.inf),
        (TrapParams, "nu_z_hz", np.nan),
        (TrapParams, "mass_amu", np.nan),
        (TrapParams, "gradient_t_m", np.inf),
    ]])
def test_non_finite_parameters_are_rejected_by_name(make, name, value):
    base = {"sideband_rabi_hz": F1} if make is SidebandProbe else {}
    with pytest.raises(ValueError, match=f"{name} must be finite .* got {value}"):
        make(**{**base, name: value})


def _assert_scipy_steps(ours, ref):
    """The in-package RK45 took scipy's steps: same outputs to the bit."""
    assert (ours.success, ours.message, ours.nfev) == (ref.success, ref.message, ref.nfev)
    assert np.array_equal(ours.y, ref.y)


def _both_rk45(fun, t_span, y0, **kwargs):
    """The in-package RK45 and scipy's on one problem."""
    return (rk45(fun, t_span, y0, **kwargs),
            solve_ivp(fun, t_span, y0, method="RK45", **kwargs))


@st.composite
def _linear_systems(draw):
    """dy/dt = M y on 2..6 complex components with M normal: decay rates
    from 1 to 1e3 /s (both ends always present) and oscillation rates of
    1..1e3 rad/s, so the fast modes hold the step near RK45's stability edge,
    where it is rejected now and then (in 99 of 100 such systems, checked
    against scipy's step count).  t_eval holds 0 and the end point."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 6))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    gamma = 10.0 ** rng.uniform(0.0, 3.0, n)
    gamma[:2] = 1.0, 1e3
    omega = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(0.0, 3.0, n)
    m = q @ np.diag(-gamma + 1j * omega) @ q.conj().T
    t_end = draw(st.floats(0.01, 0.3))
    t_eval = np.unique(np.concatenate([[0.0, t_end], rng.uniform(0.0, t_end, 5)]))
    return ((lambda _t, y: m @ y), (0.0, t_end), rng.normal(size=n) + 1j * rng.normal(size=n),
            {"t_eval": t_eval, "rtol": 10.0 ** draw(st.floats(-10.0, -3.0)),
             "atol": 10.0 ** draw(st.floats(-12.0, -6.0))})


@settings(max_examples=30)
@given(_linear_systems())
def test_rk45_takes_scipys_steps_on_linear_systems(problem):
    fun, t_span, y0, kwargs = problem
    _assert_scipy_steps(*_both_rk45(fun, t_span, y0, **kwargs))


def test_rk45_stops_at_scipys_minimum_step():
    # y' = y^2 from y = 1 blows up at t = 1: the step shrinks to ten ulps of
    # t and the run fails there, after the points before the pole are out
    ours, ref = _both_rk45(lambda _t, y: y * y, (0.0, 2.0), np.array([1.0 + 0j]),
                           t_eval=[0.0, 0.5, 0.9, 2.0], rtol=1e-6, atol=1e-9)
    assert not ours.success and ours.y.shape == (1, 3)
    assert ours.message == "Required step size is less than spacing between numbers."
    _assert_scipy_steps(ours, ref)


def test_rk45_clamps_rtol_as_scipy_does():
    with pytest.warns(UserWarning, match="rtol") as record:
        ours, ref = _both_rk45(lambda _t, y: (-1.0 + 5j) * y, (0.0, 1.0),
                               np.array([1.0 + 1j, 0.5j]), t_eval=[0.0, 0.3, 1.0],
                               rtol=1e-16, atol=1e-12)
    assert len(record) == 2 and str(record[0].message) == str(record[1].message)
    _assert_scipy_steps(ours, ref)


@pytest.mark.parametrize("argv", [
    ["--sideband", "red", "--tmax", "10e-3"],
    ["--sideband", "blue", "--tmax", "2e-3", "--points", "41", "--model", "full_dressed"],
])
def test_heated_flops_integrate_with_scipys_steps(monkeypatch, tmp_path, argv):
    # demos/reference.cfg heats at 41 quanta/s: every detuning is one RK45 run
    compared = []

    def both(fun, t_span, y0, method, **kwargs):
        ours, ref = _both_rk45(fun, t_span, y0, **kwargs)
        _assert_scipy_steps(ours, ref)
        compared.append(ours.nfev)
        return ours

    monkeypatch.setattr(dynamics, "solve_ivp", both)
    config = Path(__file__).resolve().parents[1] / "demos" / "reference.cfg"
    assert main(["flop", *argv, "--config", str(config), "--out", str(tmp_path / "f.csv")]) == 0
    assert len(compared) == 1
