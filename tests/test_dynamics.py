import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledual import dynamics
from circledual import (
    AngleDistribution,
    BasisError,
    DimensionError,
    NormalizationError,
    StateVector,
    Basis,
    born_distribution,
    DomainError,
    duality_deviations,
    energy_state,
    evolve_quantum,
    evolve_report,
    ontological_state,
    random_state,
    random_states,
    sampled_duality_deviations,
    transport_steps,
)
from circledual.hilbert import to_sites
from oracles import duality_gaps_per_residue

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# classical motion: one hop of 2*pi/N per stroboscopic step


def test_half_turn():
    # by t = pi/omega a particle on an even number of sites has hopped N/2 of them
    n = 8
    report = evolve_report(ontological_state(1, n), 1.0, time=math.pi)
    assert report.k == n // 2
    assert report.transported.weights[1 + n // 2] == 1.0 and report.deviation <= 1e-12


def test_full_period_returns():
    omega = 1.5
    report = evolve_report(random_state(10, np.random.default_rng(3)), omega, time=TAU / omega)
    assert report.k == 0
    assert np.array_equal(report.transported.weights, report.initial.weights)
    assert report.deviation <= 1e-10


def test_scaled_frequency():
    # at omega = 3 the angle swept by t = 2 is 6 rad, nearest to site 11 of 12
    report = evolve_report(ontological_state(0, 12), 3.0, time=2.0)
    assert report.k == 11
    assert report.transported.weights[11] == 1.0


@settings(max_examples=60, deadline=None)
@given(k1=st.integers(-(10**20), 10**20), k2=st.integers(-(10**20), 10**20))
def test_composition_law(k1, k2):
    n = 10
    rho = AngleDistribution(np.arange(1.0, n + 1) / 55.0)
    stepwise = transport_steps(transport_steps(rho, k1), k2)
    assert np.array_equal(stepwise.weights, transport_steps(rho, k1 + k2).weights)


def test_phase_reduction_and_validation():
    n = 7
    rho = born_distribution(ontological_state(2, n))
    assert np.array_equal(transport_steps(rho, -3).weights, transport_steps(rho, n - 3).weights)
    assert np.array_equal(transport_steps(rho, np.int64(2 * n + 1)).weights,
                          transport_steps(rho, 1).weights)
    # a step count is an integer: a fractional one is refused, not truncated
    for fractional in (1.7, 2.0, np.float64(3.0)):
        with pytest.raises(TypeError):
            transport_steps(rho, fractional)


# ---------------------------------------------------------------------------
# quantum evolution


def test_eigenstate_probabilities_static():
    state = energy_state(3, 8)
    for t in (0.1, 1.7, 12.0):
        evolved = evolve_quantum(state, t)
        assert np.max(np.abs(np.abs(evolved.amplitudes) - np.abs(state.amplitudes))) < 1e-15


def test_full_quantum_period():
    rng = np.random.default_rng(0)
    state = random_state(6, rng)
    evolved = evolve_quantum(state, TAU)
    assert np.max(np.abs(evolved.amplitudes - state.amplitudes)) < 1e-12


def test_reversibility():
    rng = np.random.default_rng(1)
    state = random_state(10, rng)
    t = 0.377
    back = evolve_quantum(evolve_quantum(state, t), -t)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12


def test_stroboscopic_site_shift():
    """One stroboscopic step carries site s exactly to site s+k."""
    n = 12
    for s, k in ((0, 1), (3, 5), (7, n + 2)):
        start = ontological_state(s, n)
        from circledual import to_energy

        energy = to_energy(start)
        t = TAU * k / n
        site_rep = to_sites(evolve_quantum(energy, t).amplitudes)
        weights = np.abs(site_rep) ** 2
        assert weights[(s + k) % n] == pytest.approx(1.0, abs=1e-12)


def test_quantum_needs_energy_basis():
    with pytest.raises(BasisError):
        evolve_quantum(ontological_state(0, 4), 1.0)


# ---------------------------------------------------------------------------
# Born weights


def test_one_hot_site_state():
    rho = born_distribution(ontological_state(3, 7))
    expected = np.zeros(7)
    expected[3] = 1.0
    assert np.array_equal(rho.weights, expected)


def test_energy_eigenstates_spread_uniformly():
    n = 13
    for level in (0, 5, 12):
        rho = born_distribution(energy_state(level, n))
        assert np.max(np.abs(rho.weights - 1.0 / n)) < 1e-14


def test_two_level_superposition_localizes():
    state = StateVector(Basis.ENERGY, np.array([1.0, 1.0]) / math.sqrt(2.0))
    rho = born_distribution(state)
    assert rho.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert rho.weights[1] == pytest.approx(0.0, abs=1e-12)


def test_unnormalized_state_rejected():
    state = StateVector(Basis.ENERGY, [1.0, 0.5])
    with pytest.raises(NormalizationError):
        born_distribution(state)


def test_distribution_validation():
    with pytest.raises(NormalizationError):
        AngleDistribution([0.5, 0.6])
    with pytest.raises(NormalizationError):
        AngleDistribution([1.2, -0.2])
    with pytest.raises(DimensionError):
        AngleDistribution(np.ones((2, 2)) / 4)


# ---------------------------------------------------------------------------
# transport


def test_uniform_is_rotation_invariant():
    n = 9
    rho = AngleDistribution(np.full(n, 1.0 / n))
    out = transport_steps(rho, 5)
    assert np.array_equal(out.weights, rho.weights)


def test_single_step_moves_one_site():
    n = 6
    report = evolve_report(ontological_state(0, n), 1.0, steps=1)
    out = report.transported
    assert out.weights[1] == 1.0 and np.sum(out.weights) == 1.0
    assert report.quantum.weights[1] == pytest.approx(1.0, abs=1e-12)


def test_full_revolution_is_identity():
    n = 8
    rng = np.random.default_rng(4)
    weights = rng.uniform(size=n)
    rho = AngleDistribution(weights / weights.sum())
    out = transport_steps(rho, n)
    assert np.array_equal(out.weights, rho.weights)


def test_transport_composition_exact():
    n = 10
    rng = np.random.default_rng(5)
    weights = rng.uniform(size=n)
    rho = AngleDistribution(weights / weights.sum())
    one_then_two = transport_steps(transport_steps(rho, 1), 2)
    three = transport_steps(rho, 3)
    assert np.array_equal(one_then_two.weights, three.weights)


def test_transport_respects_omega():
    n = 5
    omega = 2.5
    report = evolve_report(ontological_state(2, n), omega, time=TAU / (n * omega))
    assert report.k == 1
    assert report.transported.weights[3] == 1.0
    assert report.deviation <= 1e-12


# ---------------------------------------------------------------------------
# the duality theorem


def test_site_states_never_deviate():
    n = 16
    from circledual import to_energy

    for s in (0, 7):
        energy = to_energy(ontological_state(s, n))
        for k in (0, 1, 9, 2 * n):
            assert evolve_report(energy, 1.0, steps=k).deviation <= 1e-12
    # a site state is converted to the energy basis by the report itself
    report = evolve_report(ontological_state(7, n), 1.0, steps=9)
    assert report.deviation <= 1e-12 and report.k == 9
    assert report.transported.weights[(7 + 9) % n] == 1.0


def test_energy_eigenstates_never_deviate():
    n = 11
    for level in (0, 4, 10):
        for k in (0, 3, 17):
            assert evolve_report(energy_state(level, n), 1.0, steps=k).deviation <= 1e-12


def test_random_state_theorem_at_n64():
    state = random_state(64, np.random.default_rng(17))
    assert evolve_report(state, 1.0, steps=17).deviation <= 1e-10


def test_deviation_with_omega():
    n = 8
    omega = 0.75
    state = random_state(n, np.random.default_rng(9))
    report = evolve_report(state, omega, steps=5)
    assert report.deviation <= 1e-10
    assert report.time == pytest.approx(TAU * 5 / (n * omega), rel=1e-15)


def test_offgrid_report():
    n = 8
    state = random_state(n, np.random.default_rng(10))
    on_grid = evolve_report(state, 1.0, time=TAU * 3 / n)
    assert on_grid.k == 3 and on_grid.deviation <= 1e-10
    off_grid = evolve_report(state, 1.0, time=TAU * (3.5) / n)
    assert off_grid.k in (3, 4)
    assert off_grid.deviation >= 0.0
    # the deviation is the gap to the nearest rotation of the initial weights
    nearest = np.roll(off_grid.initial.weights, off_grid.k)
    assert off_grid.deviation == np.max(np.abs(off_grid.quantum.weights - nearest))
    assert np.array_equal(off_grid.transported.weights, nearest)


@pytest.mark.parametrize(
    "n, omega", [(1, 1.0), (2, 1.0), (11, 0.75), (64, 1.9), (257, 1.0), (1000, 1.0)]
)
def test_batch_equals_per_state_loop(n, omega):
    """The batch runs the per-state arithmetic of evolve_report unchanged."""
    rng = np.random.default_rng(n)
    states = [random_state(n, rng) for _ in range(7)]
    # unsorted, with repeats and residue twins: each residue is evaluated once
    # and the gaps come back in the order of ks
    ks = [5, 0, n + 5, -3, 5, 2 * n + 1, 1]
    batch = duality_deviations(np.array([s.amplitudes for s in states]), ks)
    loop = [max(evolve_report(s, omega, steps=k).deviation for s in states) for k in ks]
    assert batch.tolist() == loop
    assert np.max(batch) <= 1e-10


@pytest.mark.parametrize("n", [8, 64])
def test_step_phases_are_exact_at_any_step_count(n):
    """Step k evolves exactly as step k mod N: no float time enters the phases."""
    states = np.array([random_state(n, np.random.default_rng(n + i)).amplitudes for i in range(5)])
    huge = [10**7, 10**9, 10**18, 10**23 + 3, -(10**18) - 1]
    at_huge = duality_deviations(states, huge)
    at_reduced = duality_deviations(states, [k % n for k in huge])
    assert at_huge.tolist() == at_reduced.tolist()
    assert np.max(at_huge) <= 1e-15
    report = evolve_report(random_state(n, np.random.default_rng(0)), 1.0, steps=10**23 + 3)
    assert report.deviation <= 1e-15
    assert report.time == TAU * (10**23 + 3) / n


def test_evolve_report_validation():
    state = random_state(4, np.random.default_rng(0))
    with pytest.raises(DomainError):
        evolve_report(state, 1.0)
    with pytest.raises(DomainError):
        evolve_report(state, 1.0, steps=1, time=0.5)
    with pytest.raises(DomainError):
        evolve_report(state, 0.0, steps=1)
    # a step count whose time is not a finite float, and a time whose phase is not
    with pytest.raises(DomainError):
        evolve_report(state, 1.0, steps=10**400)
    with pytest.raises(DomainError):
        evolve_report(state, 1e-320, steps=1)
    with pytest.raises(DomainError):
        evolve_report(state, 1.0, time=1e308)
    with pytest.raises(TypeError):
        evolve_report(state, 1.0, steps=2.5)


def test_each_residue_evaluated_once(monkeypatch):
    """Every (residue, state) row goes through one FFT, and residues share FFTs up to 2^14 entries."""
    calls = []
    to_sites = dynamics.to_sites

    def counting_to_sites(amplitudes):
        calls.append(amplitudes.shape)
        return to_sites(amplitudes)

    monkeypatch.setattr(dynamics, "to_sites", counting_to_sites)
    # one FFT for all residues, several residues per FFT, one residue per FFT
    for n, trials in [(16, 3), (64, 1), (200, 1), (512, 1), (16, 1100)]:
        states = random_states(trials, n, np.random.default_rng(n + trials))
        calls.clear()
        per_k = duality_deviations(states, range(2 * n + 1))
        # the initial weights, then residues 0..N-1: trials rows each
        assert sum(math.prod(shape[:-1]) for shape in calls) == trials * (n + 1)
        assert len(calls) <= 1 + math.ceil(n * trials * n / 2**14)
        assert per_k[: n + 1].tolist() == per_k[n:].tolist()


@pytest.mark.parametrize(
    "n, trials",
    [
        # trials x N one below, at and one above the residue block of 2^14 entries
        (127, 129), (128, 128), (113, 145),
        (1, 1), (1, 100), (2, 5), (8, 1), (16, 3), (64, 1), (170, 1), (512, 1),
    ],
)
def test_blocked_residues_equal_the_per_residue_loop(n, trials):
    states = random_states(trials, n, np.random.default_rng(n * trials))
    # repeated residues, negative and huge steps, out of order
    ks = [*range(2 * n + 1), 5, -3, -(10**18) - 1, 10**18, 2 * n + 5, 0]
    blocked = duality_deviations(states, ks)
    assert np.array_equal(blocked, duality_gaps_per_residue(states, ks))
    assert np.max(blocked) <= 1e-10


def test_streamed_trials_equal_the_whole_batch(monkeypatch):
    """Blocks of draws from one generator give the whole batch's gaps bit for bit."""
    n, trials = 7, 9999
    whole = duality_deviations(random_states(trials, n, np.random.default_rng(3)), range(2 * n + 1))
    monkeypatch.setattr(dynamics, "_DRAW_BLOCK", 2**10)  # 146 states a block, the last one short
    streamed = sampled_duality_deviations(trials, n, range(2 * n + 1), np.random.default_rng(3))
    assert np.array_equal(streamed, whole)


def test_sampled_batch_checked_before_any_draw():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for trials, n in [(4097, 4096), (0, 4), (4, 0)]:
        with pytest.raises(DimensionError):
            sampled_duality_deviations(trials, n, [1], rng)
    assert rng.bit_generator.state == before


def test_batch_validation():
    good = random_state(4, np.random.default_rng(0)).amplitudes
    with pytest.raises(DimensionError):
        duality_deviations(good, [1])
    # a step count is an integer: a fractional one is refused, not truncated
    for fractional in (2.5, 2.0, np.float64(1.0)):
        with pytest.raises(TypeError):
            duality_deviations(good[None, :], [0, fractional])
    with pytest.raises(NormalizationError):
        duality_deviations(np.array([good, 2.0 * good]), [1])
    # a broadcast view allocates nothing; its size is refused before any work
    huge = np.broadcast_to(np.complex128(1.0), (100, 200_000))
    with pytest.raises(DimensionError, match="ceiling"):
        duality_deviations(huge, [1])
