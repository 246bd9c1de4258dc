"""Heated runs read P(F=1) from the kept entries, checked block by block.

The oracle is evolve_lindblad: it builds every full D x D state from the same
integrator output and validates it with _validated.  The heated readout must
agree with it to the bit, and its block check must never accept a state that
_validated rejects; on a rejection the error must be _validated's.
"""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sbcool.dynamics as dynamics
from sbcool import (
    HeatingChannel,
    IntegrationError,
    LindbladModel,
    evolve_lindblad,
    heating_collapse_ops,
    simulate_flop,
    simulate_scan,
    thermal_distribution,
    two_level_space,
)
from sbcool.config import load_config
from sbcool.qcore import distribution_density

CONFIG = Path(__file__).resolve().parents[1] / "demos" / "reference.cfg"
HEATING = HeatingChannel(41.0)
NBAR = 0.13


def _probe(sideband, model="effective"):
    """The flops workload's probe: demos/reference.cfg with a 350 Hz sideband Rabi."""
    return dataclasses.replace(load_config(CONFIG).probe(sideband, model=model),
                               sideband_rabi_hz=350.0)


def _oracle(probe, delta_hz, times, n_max):
    """P(F=1) read from evolve_lindblad's validated states, clipped as ScanResult clips."""
    space = probe.space(n_max)
    rho0 = distribution_density(thermal_distribution(NBAR, n_max), space, "0'")
    model = LindbladModel(probe.hamiltonian(space, delta_hz),
                          tuple(heating_collapse_ops(HEATING, space)))
    states = evolve_lindblad(model, rho0, times)
    return np.clip([dynamics._p_f1(space, s.populations()) for s in states], 0.0, 1.0)


@pytest.mark.parametrize("sideband, model, t_max, points", [
    ("red", "effective", 10e-3, 201),
    ("blue", "effective", 10e-3, 201),
    ("blue", "full_dressed", 2e-3, 41),
])
def test_heated_flop_is_evolve_lindblads_readout_to_the_bit(sideband, model, t_max, points):
    probe = _probe(sideband, model)
    times = np.linspace(0.0, t_max, points)
    n_max = dynamics._pick_n_max(NBAR, HEATING.n_dot, t_max)
    flop = simulate_flop(probe, times, NBAR, heating=HEATING)
    assert np.array_equal(flop.p_f1, _oracle(probe, probe.resonance_hz(), times, n_max))


@pytest.mark.parametrize("jobs", [1, 2])
def test_heated_scan_is_evolve_lindblads_readout_to_the_bit(jobs):
    probe = _probe("blue")
    grid = probe.resonance_hz() + np.linspace(-1500.0, 1500.0, 4)
    n_max = dynamics._pick_n_max(NBAR, HEATING.n_dot, 1e-3)
    scan = simulate_scan(probe, grid, 1e-3, NBAR, heating=HEATING, jobs=jobs)
    oracle = [_oracle(probe, d, [1e-3], n_max)[0] for d in grid]
    assert np.array_equal(scan.p_f1, oracle)


def test_heated_flop_holds_no_state_per_time():
    # 201 dense 64 x 64 states took 13 MB (a 14.3 MB peak); reading the kept
    # entries instead leaves a 3.1 MB peak
    probe, times = _probe("red"), np.linspace(0.0, 10e-3, 201)
    simulate_flop(probe, times, NBAR, heating=HEATING)  # imports and caches stay out
    tracemalloc.start()
    try:
        simulate_flop(probe, times, NBAR, heating=HEATING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@st.composite
def _block_states(draw):
    """States at 1..3 times on two_level_space(n_max), block-diagonal over a
    random partition of the levels (size-1 blocks included), as their kept
    entries (keep, x), with at one time one perturbation that trips exactly
    one of _validated's checks: a NaN, an anti-Hermitian part above 1e-10,
    a trace off by more than 1e-6 or an eigenvalue below -1e-7."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    space = two_level_space(draw(st.integers(1, 5)))
    dim = space.dim
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1))))
    blocks = np.split(rng.permutation(dim), cuts)
    n_t = draw(st.integers(1, 3))
    rho = np.zeros((n_t, dim, dim), dtype=complex)
    for b in blocks:
        a = rng.normal(size=(n_t, b.size, b.size)) + 1j * rng.normal(size=(n_t, b.size, b.size))
        rho[:, b[:, None], b] = a @ a.conj().swapaxes(1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    kind = draw(st.sampled_from(["none", "nan", "skew", "trace", "negative"]))
    k = draw(st.integers(0, n_t - 1))
    pairs = [b for b in blocks if b.size > 1]
    i, j = rng.choice(pairs[rng.integers(len(pairs))], 2, replace=False) if pairs else (0, 0)
    if kind == "nan":  # off the diagonal where a block allows, so the trace stays finite
        rho[k, i, j] = np.nan
    elif kind == "skew":
        delta = draw(st.floats(1e-10, 1e-7))
        if i != j:
            rho[k, i, j] += delta
            rho[k, j, i] -= delta
        else:
            rho[k, i, i] += 1j * delta  # moves the trace by at most 1e-7
    elif kind == "trace":
        rho[k] *= 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(2e-6, 1e-2))
    elif kind == "negative":  # lowest eigenvalue of one block to -mu, trace kept
        bi = rng.integers(len(blocks))
        w, v = np.linalg.eigh(rho[k][np.ix_(blocks[bi], blocks[bi])])
        low = np.zeros(dim, dtype=complex)
        low[blocks[bi]] = v[:, 0]
        high = np.zeros(dim, dtype=complex)
        if blocks[bi].size > 1:
            high[blocks[bi]] = v[:, -1]
        else:  # dim >= 4, so another block exists
            other = blocks[(bi + 1) % len(blocks)]
            high[other] = np.linalg.eigh(rho[k][np.ix_(other, other)])[1][:, -1]
        shift = w[0] + draw(st.floats(2e-7, 1e-2))
        rho[k] += shift * (np.outer(high, high.conj()) - np.outer(low, low.conj()))
    keep = np.sort(np.concatenate([(b[:, None] * dim + b).ravel() for b in blocks]))
    x = np.ascontiguousarray(rho.reshape(n_t, -1)[:, keep].T)
    return space, keep, x, rho, kind


@settings(max_examples=200, deadline=None)
@given(_block_states())
def test_block_check_accepts_only_what_validated_accepts(problem):
    space, keep, x, rho, kind = problem
    t = np.linspace(1e-4, 3e-4, x.shape[1])
    real = dynamics._validated
    try:
        real(space, list(rho), t)
        expected = None
    except IntegrationError as exc:
        expected = str(exc)
    assert (expected is None) == (kind == "none")
    replays = []

    def spy(*args):
        replays.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_validated", spy)
        if expected is None:  # accepted without a replay, populations to the bit
            pops = dynamics._kept_populations(space, keep, x, t)
            assert not replays
            assert np.array_equal(pops, np.real(np.diagonal(rho, axis1=1, axis2=2)))
            return
        with pytest.raises(IntegrationError) as err:
            dynamics._kept_populations(space, keep, x, t)
        assert str(err.value) == expected and len(replays) == 1
        # through the heated readout, with the integrator stubbed by this output
        mp.setattr(dynamics, "_integrate", lambda *_args: (keep, x))
        rho0 = distribution_density(thermal_distribution(NBAR, space.fock.n_max), space, "0'")
        probe = _probe("red")
        task = (probe, probe.resonance_hz(), t, rho0,
                tuple(heating_collapse_ops(HEATING, space)))
        with pytest.raises(IntegrationError) as err:
            dynamics._heated_point(task)
        assert str(err.value) == expected
