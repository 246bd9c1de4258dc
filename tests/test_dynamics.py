"""Integrator and probe-simulation tests.

The Rabi and heating oracles are closed forms: P(t) = sin^2(pi f t) for a
resonant two-level pair, d<N>/dt = n_dot for the a/a-dagger pair of collapse
operators, and the exact thermal red/blue ratio n_bar/(n_bar+1).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import sbcool.dynamics as dynamics
from sbcool import (
    DensityMatrix,
    FockBasis,
    HeatingChannel,
    IntegratorConfig,
    LindbladModel,
    Operator,
    ScanResult,
    SidebandProbe,
    TruncationError,
    scan_response,
    effective_two_level_hamiltonian,
    evolve_lindblad,
    evolve_unitary,
    heating_collapse_ops,
    mean_phonon,
    sideband_probability,
    sideband_scan_probability,
    simulate_flop,
    simulate_scan,
    thermal_density,
    thermal_distribution,
    two_level_space,
)
from sbcool.dynamics import _generator

ETA = 6.442436053e-03
F1 = 394.2770864  # eta * 61.2 kHz


def resonant_probe(sideband="blue", model="effective") -> SidebandProbe:
    return SidebandProbe(sideband=sideband, model=model)


def test_unitary_matches_lindblad_without_collapse():
    space = two_level_space(6)
    h = effective_two_level_hamiltonian(ETA, 61.2e3, 426.7e3, 426.7e3, space,
                                        sideband="blue")
    rho0 = thermal_density(0.0, space)
    times = np.linspace(1e-4, 2e-3, 7)
    li = evolve_lindblad(LindbladModel(h, ()), rho0, times, IntegratorConfig())
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
    h = effective_two_level_hamiltonian(ETA, 0.0, 426.7e3, -426.7e3, space)
    ops = tuple(heating_collapse_ops(HeatingChannel(41.0), space))
    model = LindbladModel(h, ops)
    for nbar0 in (0.0, 0.5):
        rho0 = thermal_density(nbar0, space)
        states = evolve_lindblad(model, rho0, [5e-3, 10e-3], IntegratorConfig())
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
    nu = 426.7e3
    grid = np.linspace(nu - 1000.0, nu + 1000.0, 6)
    a = simulate_scan(resonant_probe("blue"), grid, 0.8e-3, 0.2, jobs=1)
    b = simulate_scan(resonant_probe("blue"), grid, 0.8e-3, 0.2, jobs=2)
    assert np.array_equal(a.x, b.x)
    assert np.max(np.abs(a.p_f1 - b.p_f1)) < 1e-12


def test_truncation_guard_trips_when_space_too_small():
    times = [0.0, 20e-3]
    with pytest.raises(TruncationError):
        simulate_flop(resonant_probe("blue"), times, 2.0,
                      heating=HeatingChannel(500.0), n_max=8)


@pytest.mark.parametrize("model", ["effective", "full_dressed"])
@pytest.mark.parametrize("sideband", ["red", "blue"])
@pytest.mark.parametrize("n_dot", [0.0, 41.0])
def test_scan_response_matches_simulate_scan(model, sideband, n_dot):
    probe = resonant_probe(sideband, model)
    grid = probe.resonance_hz() + np.array([-1500.0, 0.0, 700.0])
    heating = HeatingChannel(n_dot) if n_dot > 0 else None
    n_max = 12
    response = scan_response(probe, grid, 1.27e-3, n_max, heating=heating)
    direct = simulate_scan(probe, grid, 1.27e-3, 0.13, heating=heating, n_max=n_max)
    p = thermal_distribution(0.13, n_max).populations
    assert np.max(np.abs(response.p_f1(p) - direct.p_f1)) < 1e-7


def test_scan_response_top_guard_trips_when_space_too_small():
    probe = resonant_probe("blue")
    response = scan_response(probe, [probe.resonance_hz()], 1.27e-3, 12)
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


@pytest.mark.parametrize("model, n_max, keep_carrier, entries", [
    ("effective", 25, False, 102),
    ("full_dressed", 10, False, 170),
    ("effective", 12, True, 26 ** 2),
    ("full_dressed", 4, True, 20 ** 2),
])
def test_integrates_only_entries_reachable_from_rho0(
        monkeypatch, model, n_max, keep_carrier, entries):
    # A diagonal rho0 stays in the block of equal excitation number on both
    # sides; with the carrier kept that number is not conserved.
    sizes = []

    def spy(fun, t_span, y0, **kwargs):
        sizes.append(y0.size)
        raise _Integrated

    monkeypatch.setattr(dynamics, "solve_ivp", spy)
    probe = SidebandProbe(sideband="red", model=model, keep_carrier=keep_carrier)
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


@pytest.mark.parametrize("model", ["effective", "full_dressed"])
def test_keep_carrier_matches_dense_eigendecomposition(model):
    probe = SidebandProbe(sideband="red", model=model, keep_carrier=True)
    space = probe.space(8)
    h = probe.hamiltonian(space, probe.resonance_hz())
    rho0 = thermal_density(0.5, space)
    times = np.linspace(0.0, 1.27e-3, 5)
    exact = evolve_lindblad(LindbladModel(h), rho0, times)
    for a, b in zip(exact, evolve_unitary(h, rho0, times)):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10


@pytest.mark.parametrize("n_dot, called", [
    (0.0, set()),
    (41.0, {"_generator", "solve_ivp"}),
])
def test_closed_adaptive_runs_are_propagated_exactly(monkeypatch, n_dot, called):
    seen = set()
    for name in ("_generator", "solve_ivp"):
        def spy(*args, _name=name, _real=getattr(dynamics, name), **kwargs):
            seen.add(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(dynamics, name, spy)
    space = two_level_space(8)
    h = effective_two_level_hamiltonian(ETA, 61.2e3, 426.7e3, 426.7e3, space,
                                        sideband="blue")
    # rate 0 still passes two (zero) collapse operators
    model = LindbladModel(h, tuple(heating_collapse_ops(HeatingChannel(n_dot), space)))
    evolve_lindblad(model, thermal_density(0.13, space), [0.0, 1e-4])
    assert seen == called


@st.composite
def _closed_problems(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)
                 .filter(lambda s: 2 <= sum(s) <= 12))
    dim = sum(sizes)
    perm = np.array(draw(st.permutations(range(dim))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = np.zeros((dim, dim), dtype=complex)
    start = 0
    for size in sizes:
        block = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        h[start:start + size, start:start + size] = block + block.conj().T
        start += size
    h = h[np.ix_(perm, perm)]
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho0 = a @ a.conj().T + 0.1 * np.eye(dim)
    return h, rho0 / np.trace(rho0).real, draw(st.floats(0.0, 5.0))


@settings(derandomize=True, deadline=None, max_examples=50)
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


def test_scan_result_leaves_caller_arrays_writable():
    times = np.linspace(0.0, 1e-3, 5)
    r = simulate_flop(resonant_probe("blue"), times, 0.13)
    times[-1] = 2e-3
    assert r.x[-1] == 1e-3 and not r.x.flags.writeable


def test_empty_times_are_rejected_before_the_cutoff_policy():
    with pytest.raises(ValueError, match="times must be a non-empty 1-D sequence"):
        simulate_flop(SidebandProbe(), [], 0.1)


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
    p = SidebandProbe(sideband="red")
    assert p.resonance_hz() == pytest.approx(-426.7e3)
    assert p.eta_eff == pytest.approx(ETA, rel=1e-6)
    assert p.effective_sideband_rabi_hz == pytest.approx(F1, rel=1e-6)
    q = SidebandProbe(sideband="blue", sideband_rabi_hz=350.0)
    assert q.resonance_hz() == pytest.approx(426.7e3)
    assert q.effective_sideband_rabi_hz == pytest.approx(350.0)
    # override rescales the carrier consistently
    assert q.effective_carrier_rabi_hz * q.eta_eff == pytest.approx(350.0, rel=1e-9)
