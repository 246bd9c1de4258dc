"""Pulsed-cooling schedule and rate-map tests.

Frozen oracles: pi-times t_n = 1/(2 f1 sqrt(n)) summed over the default
500-pulse ladder, the off-target transfer sin^2(pi sqrt(2)/2), and exact mean
growth n_dot * dt for the birth-death heating propagator.  The heating
propagator is checked against scipy's expm of the dense generator on relative
error, down to populations of 1e-12, and the rate map's grouped heating
against expm after every schedule entry.  The banded heating series is
checked against the term-by-term series on every nonzero entry.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from sbcool import (
    DensityMatrix,
    FockBasis,
    FockDistribution,
    HeatingChannel,
    IntegrationError,
    LindbladModel,
    Operator,
    PulseSchedule,
    PulseSpec,
    RepumpModel,
    TruncationError,
    build_schedule,
    evolve_lindblad,
    heat_distribution,
    heating_collapse_ops,
    mean_phonon,
    motional_populations,
    schedule_total_time,
    simulate_cooling,
    simulate_cooling_quantum,
    thermal_distribution,
)
from sbcool.cli import main
from sbcool.cooling import (
    BLOCK,
    SPLIT_LS,
    TOP_BIN_TOL,
    _apply_recoil,
    _apply_transfer,
    _chain,
    _heat,
    _poisson_weights,
)

from oracles import heat_term_by_term, last_term

F1 = 394.2770864367975


def test_pulse_transfer_probability_closed_form():
    # with unit populations the moved fractions are the transfer probabilities
    t1 = 1.0 / (2.0 * F1)
    _, moved = _apply_transfer(np.ones(4), F1, t1)
    assert moved[0] == 0.0
    assert moved[1] == pytest.approx(1.0, abs=1e-12)
    # a pi-pulse tuned to n=1 moves 63.3% of n=2 population
    assert moved[2] == pytest.approx(0.63312767, rel=1e-7)
    t2 = 1.0 / (2.0 * F1 * np.sqrt(2.0))
    _, moved = _apply_transfer(np.ones(4), F1, t2)
    assert moved[3] == pytest.approx(0.88046313, rel=1e-7)


def test_build_schedule_structure_and_totals():
    sched = build_schedule(500, F1, RepumpModel())
    sideband = [p for p in sched.pulses if p.kind == "red_sideband"]
    repump = [p for p in sched.pulses if p.kind == "repump"]
    assert len(sideband) == 500 and len(repump) == 500
    assert [p.target_n for p in sideband] == list(range(500, 0, -1))
    assert sideband[0].duration_s == pytest.approx(1.0 / (2 * F1 * np.sqrt(500)))
    assert sideband[-1].duration_s == pytest.approx(1.0 / (2 * F1))
    assert repump[0].duration_s == pytest.approx(34e-6)
    assert schedule_total_time(sched, kinds=("red_sideband",)) == pytest.approx(
        0.054889522474, rel=1e-9)
    assert schedule_total_time(sched) == pytest.approx(0.071889522474, rel=1e-9)


def test_single_fock_state_cools_exactly_without_heating():
    dist0 = FockDistribution(np.array([0.0, 0.0, 1.0]))
    sched = build_schedule(2, F1, RepumpModel())
    res = simulate_cooling(dist0, sched, None, RepumpModel())
    # two exact pi-pulses: |2> -> |1> -> |0>
    assert res.final.populations[0] == pytest.approx(1.0, abs=1e-9)
    assert mean_phonon(res.final) == pytest.approx(0.0, abs=1e-9)


def test_cooling_trajectory_bookkeeping():
    dist0 = thermal_distribution(1.0, 30)
    sched = build_schedule(5, F1, RepumpModel())
    res = simulate_cooling(dist0, sched, None, RepumpModel())
    assert len(res.pulse_index) == 6  # initial row + one per sideband pulse
    assert res.pulse_index[0] == 0
    assert res.nbar[0] == pytest.approx(mean_phonon(dist0))
    assert np.all(np.diff(res.nbar) <= 1e-12)  # monotone without heating
    assert res.t_elapsed_s[0] == 0.0
    assert res.t_elapsed_s[-1] == pytest.approx(schedule_total_time(sched))


def test_cooling_carries_initial_truncation_loss():
    dist0 = thermal_distribution(1.0, 12)
    assert dist0.truncation_loss > 1e-5
    sched = build_schedule(5, F1, RepumpModel())
    rm = simulate_cooling(dist0, sched, HeatingChannel(41.0), RepumpModel(), n_max=25)
    qm = simulate_cooling_quantum(dist0, sched, None, n_max=12)
    assert rm.final.truncation_loss == dist0.truncation_loss
    assert qm.final.truncation_loss == dist0.truncation_loss


def test_heating_propagator_exact_mean_growth():
    dist = thermal_distribution(0.3, 60)
    out = heat_distribution(dist, 41.0, 10e-3)
    assert mean_phonon(out) == pytest.approx(0.3 + 0.41, rel=1e-9)
    assert out.populations.sum() == pytest.approx(1.0, abs=1e-12)
    # zero rate or zero time is the identity
    same = heat_distribution(dist, 0.0, 10e-3)
    assert np.allclose(same.populations, dist.populations)


def test_heating_propagator_matches_lindblad():
    from sbcool import (LindbladModel, effective_two_level_hamiltonian,
                        evolve_lindblad, heating_collapse_ops,
                        two_level_space, motional_populations)
    from oracles import thermal_density
    space = two_level_space(50)
    h = effective_two_level_hamiltonian(0.0, 426.7e3, -426.7e3, space)
    ops = tuple(heating_collapse_ops(HeatingChannel(120.0), space))
    rho = evolve_lindblad(LindbladModel(h, ops), thermal_density(0.3, space),
                          [5e-3])[-1]
    direct = heat_distribution(thermal_distribution(0.3, 50), 120.0, 5e-3)
    assert np.max(np.abs(motional_populations(rho) - direct.populations)) < 1e-6


@st.composite
def _top_heavy_distributions(draw):
    """Populations over 0..n_max <= 20 with weight in the top level."""
    n_max = draw(st.integers(1, 20))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n_max, max_size=n_max))
    p = np.array(weights + [draw(st.floats(0.01, 1.0))])
    return p / p.sum()


@settings(max_examples=40)
@given(p0=_top_heavy_distributions(), n_dot_t=st.floats(0.0, 3.0))
def test_rate_map_heating_is_lindblad_heating(p0, n_dot_t):
    # truncated a' gives no birth out of n_max, as the rate map's top bin
    fock = FockBasis(p0.size - 1)
    ops = tuple(heating_collapse_ops(HeatingChannel(1.0), fock))
    model = LindbladModel(Operator(fock, np.zeros((fock.dim, fock.dim), dtype=complex)), ops)
    rho0 = DensityMatrix(fock, np.diag(p0).astype(complex))
    rho = evolve_lindblad(model, rho0, [n_dot_t])[-1]
    direct = heat_distribution(FockDistribution(p0), 1.0, n_dot_t)
    assert np.max(np.abs(rho.populations() - direct.populations)) < 1e-8


def test_heat_keeps_a_long_window_non_negative_with_unit_sum():
    # L s = 601 * 50: sixty-one split series in a row
    valid = thermal_distribution(5.0, 300).populations
    out = _heat(valid, [50.0])[0]
    assert out.min() >= 0.0 and out.sum() == pytest.approx(1.0, abs=1e-12)


@st.composite
def _sparse_distributions(draw):
    """Populations over 0..n_max <= 60 with zeros and entries down to 1e-300."""
    n_max = draw(st.integers(0, 60))
    p = np.array(draw(st.lists(
        st.sampled_from([0.0, 1e-300, 1e-30, 1e-11]) | st.floats(0.0, 1.0),
        min_size=n_max + 1, max_size=n_max + 1)))
    p[draw(st.integers(0, n_max))] += 1.0
    return p / p.sum()


@settings(max_examples=40)
@given(p=_sparse_distributions(),
       s=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4).map(sorted))
def test_heat_never_returns_a_negative_entry(p, s):
    out = _heat(p, s)
    assert out.shape == (len(s), p.size)
    assert out.min() >= 0.0
    assert np.allclose(out.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@settings(max_examples=40)
@given(p=_top_heavy_distributions(), s=st.floats(0.0, 2.0))
def test_heat_raises_the_mean_by_n_dot_t_while_the_top_bin_stays_empty(p, s):
    # support on 0..20 of 0..200: the top bin keeps below 1e-20 of the mass,
    # so no birth is lost there and d<n>/ds = 1 holds
    padded = np.zeros(201)
    padded[: p.size] = p
    out = _heat(padded, [0.0, s / 2, s])
    assert out[:, -1].max() < 1e-20
    levels = np.arange(201)
    assert out @ levels == pytest.approx(levels @ padded + np.array([0.0, s / 2, s]),
                                         rel=0.0, abs=1e-12)


def test_cooling_with_heating_reaches_steady_offset():
    # one pulse tuned to n=1 with heating during its duration
    dist0 = thermal_distribution(0.05, 20)
    sched = build_schedule(1, F1, RepumpModel())
    res = simulate_cooling(dist0, sched, HeatingChannel(41.0), RepumpModel())
    # heating adds ndot * t over the pulse + repump window, pulse removes n=1
    assert mean_phonon(res.final) < mean_phonon(dist0) + 41.0 * (
        schedule_total_time(sched))
    assert mean_phonon(res.final) > 0.0


def test_recoil_increases_final_temperature():
    dist0 = thermal_distribution(1.0, 30)
    sched = build_schedule(4, F1, RepumpModel())
    cold = simulate_cooling(dist0, sched, None, RepumpModel(recoil_quanta=0.0))
    warm = simulate_cooling(dist0, sched, None, RepumpModel(recoil_quanta=0.3))
    assert mean_phonon(warm.final) > mean_phonon(cold.final)


def test_recoil_keeps_overflow_in_the_top_bin():
    # half the mass at n = 0 and half in the top bin, shifted by one quantum
    p = np.array([0.5, 0.0, 0.0, 0.0, 0.5])
    out = _apply_recoil(p, 1.0, 1.0)
    assert out.tolist() == [0.0, 0.5, 0.0, 0.0, 0.5]
    assert _apply_recoil(p, 1.0, 900.0).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_recoil_raises_the_mean_by_the_shift_when_nothing_overflows():
    p = np.zeros(40)
    p[:20] = thermal_distribution(1.0, 19).populations
    levels = np.arange(40)
    for transferred, quanta in ((1.0, 3.0), (0.4, 2.5), (0.9, 0.25)):
        out = _apply_recoil(p, transferred, quanta)
        assert out.sum() == pytest.approx(p.sum(), rel=0.0, abs=1e-15)
        assert levels @ out == pytest.approx(levels @ p + transferred * quanta,
                                             rel=0.0, abs=1e-12)


def test_quantum_and_rate_map_agree_small_case():
    sched = build_schedule(4, F1, RepumpModel())
    dist0 = thermal_distribution(1.0, 25)
    rm = simulate_cooling(dist0, sched, None, RepumpModel(), n_max=25)
    qm = simulate_cooling_quantum(dist0, sched, None, n_max=25)
    a, b = mean_phonon(rm.final), mean_phonon(qm.final)
    assert abs(a - b) / a < 0.05
    assert np.max(np.abs(rm.final.populations - qm.final.populations)) < 1e-5


def test_schedule_validation():
    with pytest.raises(ValueError):
        PulseSpec(kind="green_sideband", duration_s=1e-5, target_n=1)
    with pytest.raises(ValueError):
        PulseSpec(kind="red_sideband", duration_s=-1e-5, target_n=1)
    # targets must walk downward
    bad = [PulseSpec("red_sideband", 1e-5, 1), PulseSpec("red_sideband", 1e-5, 2)]
    with pytest.raises(ValueError):
        PulseSchedule(tuple(bad), n_start=2, sideband_rabi_1_hz=F1)
    with pytest.raises(ValueError):
        build_schedule(0, F1, RepumpModel())


def test_top_bin_guard_raises():
    dist0 = thermal_distribution(1.0, 10)
    sched = build_schedule(1, F1, RepumpModel())
    with pytest.raises(TruncationError):
        simulate_cooling(dist0, sched, HeatingChannel(5e4), RepumpModel(),
                         n_max=10)


def _dense_heating_generator(n_max):
    q = np.zeros((n_max + 1, n_max + 1))
    for n in range(1, n_max + 1):
        q[n, n - 1] = q[n - 1, n] = n
    for n in range(n_max + 1):
        q[n, n] = -(2 * n + 1) if n < n_max else -n_max
    return q


def _max_relative_error(out, ref):
    """Largest relative error over the levels whose reference exceeds 1e-12."""
    big = ref > 1e-12
    return np.max(np.abs(out[big] - ref[big]) / ref[big])


@pytest.mark.parametrize("n_max", [0, 1, 4, 50, 300])
def test_tridiagonal_propagator_matches_expm(n_max):
    # a cooled distribution (nbar 0.13) over a floor of 1e-11: the tail levels
    # must carry relative, not absolute, accuracy
    n = np.arange(n_max + 1)
    x = 0.13 / 1.13
    p = (1.0 - x) * x ** n + 1e-11
    p /= p.sum()
    q = _dense_heating_generator(n_max)
    for n_dot_t in (1e-3, 0.1, 5.0):
        out = heat_distribution(FockDistribution(p), 1.0, n_dot_t).populations
        ref = expm(n_dot_t * q) @ p
        assert _max_relative_error(out, ref) < 1e-11
        assert abs(out.sum() - 1.0) < 1e-12


def test_heat_splits_a_long_window_to_expm_accuracy():
    # L = 81, so s = 12 is L s = 972 > 745, where exp(-L s) underflows; the
    # series splits at s = 500 / 81 = 6.17, between the rows at 6.0 and 6.2
    n_max = 40
    q = _dense_heating_generator(n_max)
    p = thermal_distribution(0.13, n_max).populations
    s = [0.5, 6.0, 6.2, 12.0]
    out = _heat(p, s)
    for row, s_j in zip(out, s):
        assert _max_relative_error(row, expm(s_j * q) @ p) < 1e-11


def _floored(size):
    """A cooled distribution (nbar 0.13) over a floor of 1e-11."""
    x = 0.13 / 1.13
    p = (1.0 - x) * x ** np.arange(size) + 1e-11
    return p / p.sum()


@pytest.mark.parametrize("size", [1, 2, 3, BLOCK, 2 * BLOCK + 1, 41, 905])
def test_heat_is_the_term_by_term_series(size):
    # rows at s = 0, short windows, and windows just below, at and past the
    # split, where a chain shorter than the band is all edge
    split = SPLIT_LS / (2.0 * size - 1.0)
    cases = [[0.0], [0.0, 0.0, 1e-3], [1e-6, 0.05, 0.3],
             [0.999 * split, split], [0.0, 1.001 * split], [0.5 * split, 2.5 * split]]
    # a Fock state's far tail underflows, so it is compared above 1e-250
    fock = np.zeros(size)
    fock[size // 2] = 1.0
    for p, floor in ((_floored(size), 0.0), (fock, 1e-250)):
        for s in cases:
            out, ref = _heat(p, s), heat_term_by_term(p, s)
            assert out.min() >= 0.0 and np.all(out[ref == 0.0] <= floor)
            big = ref > floor
            assert np.max(np.abs(out[big] - ref[big]) / ref[big]) < 1e-12


def test_poisson_weights_stop_where_the_term_by_term_loop_does():
    # every series mean a heating window can reach, up to one ulp past a split
    lams = np.concatenate([np.linspace(0.0, SPLIT_LS, 2001), np.geomspace(1e-12, 1.0, 40),
                           [np.nextafter(SPLIT_LS, np.inf)]])
    for lam in lams:
        assert _poisson_weights(np.array([lam])).shape[1] == last_term(lam) + 1


def test_chain_tables_are_read_only():
    for table in _chain(41):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_heat_leaves_its_input_unchanged():
    p = _floored(41)
    kept = p.copy()
    _heat(p, [0.1, 20.0])
    assert np.array_equal(p, kept) and p.flags.writeable


def test_zero_heating_is_no_heating_bit_for_bit():
    # with n_dot = 0 every series keeps its one K = 0 term, exp(0) p = p
    dist0 = thermal_distribution(2.0, 30)
    sched = build_schedule(20, F1, RepumpModel())
    zero = simulate_cooling(dist0, sched, HeatingChannel(0.0), RepumpModel(), n_max=60)
    none = simulate_cooling(dist0, sched, None, RepumpModel(), n_max=60)
    p = np.zeros(61)
    p[:31] = dist0.populations
    for pulse in sched.pulses[::2]:
        p, _ = _apply_transfer(p, F1, pulse.duration_s)
    assert np.array_equal(zero.final.populations, none.final.populations)
    assert np.array_equal(none.final.populations, p / p.sum())
    assert np.array_equal(zero.nbar, none.nbar)


def test_one_cool_run_builds_its_band_once(tmp_path, capsys):
    _chain.cache_clear()
    assert main(["cool", "--nstart", "60", "--nbar0", "5",
                 "--out", str(tmp_path / "cool.csv")]) == 0
    assert _chain.cache_info().misses == 1


def _cool_heating_every_entry(dist0, schedule, n_dot, repump, n_max):
    """The rate map with heating propagated by expm after every schedule entry."""
    q = _dense_heating_generator(n_max)
    levels = np.arange(n_max + 1)
    p = np.zeros(n_max + 1)
    p[: dist0.n_max + 1] = dist0.populations
    nbars = [levels @ p]
    k, pending = 0, 0.0
    for pulse in schedule.pulses:
        if pulse.kind == "red_sideband":
            p, moved = _apply_transfer(p, schedule.sideband_rabi_1_hz, pulse.duration_s)
            pending = moved.sum()
        else:
            if repump.recoil_quanta > 0:
                p = _apply_recoil(p, pending, repump.recoil_quanta)
            pending = 0.0
        p = expm(n_dot * pulse.duration_s * q) @ p
        if pulse.kind == "red_sideband":
            k += 1
            nbars.append(levels @ p)
        if p[-1] > TOP_BIN_TOL:
            raise TruncationError(f"at pulse {k}")
    return p / p.sum(), np.array(nbars)


def _irregular_schedule():
    """A repump first, two sideband pulses in a row, repump pairs, and a
    zero-length repump."""
    def t(n):
        return 1.0 / (2.0 * F1 * float(np.sqrt(n)))

    def repump(duration_s):
        return PulseSpec("repump", duration_s)

    def sideband(n):
        return PulseSpec("red_sideband", t(n), n)

    pulses = (repump(34e-6), sideband(6), sideband(5), repump(34e-6), repump(0.0),
              sideband(3), repump(34e-6), repump(20e-6), sideband(1), repump(34e-6))
    return PulseSchedule(pulses, n_start=6, sideband_rabi_1_hz=F1)


@pytest.mark.parametrize("recoil", [0.0, 0.3])
@pytest.mark.parametrize("n_dot", [41.0, 500.0])
def test_grouped_heating_equals_heating_after_every_entry(n_dot, recoil):
    repump = RepumpModel(recoil_quanta=recoil)
    dist0 = thermal_distribution(2.0, 30)
    for sched in (build_schedule(20, F1, repump), _irregular_schedule()):
        res = simulate_cooling(dist0, sched, HeatingChannel(n_dot), repump, n_max=80)
        pops, nbars = _cool_heating_every_entry(dist0, sched, n_dot, repump, 80)
        assert np.max(np.abs(res.final.populations - pops)) < 1e-12
        assert np.max(np.abs(res.nbar - nbars)) < 1e-9


@pytest.mark.parametrize("sched, n_dot, n_max", [
    (build_schedule(1, F1, RepumpModel()), 5e4, 10),
    (_irregular_schedule(), 5e4, 20),
    (_irregular_schedule(), 2e3, 25),
    (_irregular_schedule(), 2e3, 30),
])
def test_top_bin_guard_names_the_reference_pulse(sched, n_dot, n_max):
    dist0 = thermal_distribution(1.0, 10)
    with pytest.raises(TruncationError) as ref:
        _cool_heating_every_entry(dist0, sched, n_dot, RepumpModel(), n_max)
    with pytest.raises(TruncationError) as err:
        simulate_cooling(dist0, sched, HeatingChannel(n_dot), RepumpModel(), n_max=n_max)
    assert re.search(r"at pulse \d+$", str(err.value)).group() == str(ref.value)


def test_quantum_twin_bounds_its_clip(monkeypatch):
    def with_negative_entry(state):
        pops = motional_populations(state)
        pops[1] -= 1e-6
        pops[0] += 1e-6
        return pops

    monkeypatch.setattr("sbcool.cooling.motional_populations", with_negative_entry)
    sched = build_schedule(2, F1, RepumpModel())
    with pytest.raises(IntegrationError, match="negative probability"):
        simulate_cooling_quantum(thermal_distribution(0.0, 5), sched, None, n_max=5)


@pytest.mark.parametrize("make", [
    lambda: FockDistribution(np.array([np.nan, 0.5])),
    lambda: HeatingChannel(np.nan),
    lambda: HeatingChannel(np.inf),
    lambda: PulseSpec("repump", np.inf),
    lambda: RepumpModel(pump_time_s=np.nan),
    lambda: heat_distribution(thermal_distribution(0.13, 20), np.nan, 1e-3),
    lambda: heat_distribution(thermal_distribution(0.13, 20), 41.0, np.nan),
    lambda: heat_distribution(thermal_distribution(0.13, 20), 41.0, np.inf),
    lambda: heat_distribution(thermal_distribution(0.13, 20), np.inf, 1e-3),
    lambda: heat_distribution(thermal_distribution(0.13, 20), 1e200, 1e200),
], ids=["population", "n_dot-nan", "n_dot-inf", "duration",
        "pump_time", "heat-n_dot-nan", "heat-dt-nan", "heat-dt-inf", "heat-n_dot-inf",
        "heat-overflow"])
def test_non_finite_heating_inputs_are_rejected_by_name(make):
    with pytest.raises(ValueError, match="nan|inf"):
        make()
