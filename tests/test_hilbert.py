import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledual import (
    Basis,
    BasisError,
    DimensionError,
    StateVector,
    compare_matrix_elements,
    energy_state,
    ontological_state,
    random_state,
    random_states,
    to_energy,
)
from circledual.hilbert import DENSE_ENTRY_CEILING, to_sites
from oracles import duality_matrix, gaussian_states_one_by_one

UNITARITY_TOL = 1e-12


def test_dim_one_is_identity():
    assert np.allclose(to_sites(np.eye(1)), [[1.0]])


def test_dim_two_exact():
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert np.max(np.abs(to_sites(np.eye(2)) - expected)) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 11, 64])
def test_unitarity(n):
    """The U the library applies, read off as to_sites of the identity."""
    u = to_sites(np.eye(n))
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= UNITARITY_TOL


def test_ground_state_maps_to_uniform():
    n = 7
    out = to_sites(energy_state(0, n).amplitudes)
    assert np.max(np.abs(out - 1.0 / np.sqrt(n))) < 1e-15


def test_first_excited_dim4_gives_fourth_roots():
    out = to_sites(energy_state(1, 4).amplitudes)
    expected = 0.5 * np.array([1.0, 1.0j, -1.0, -1.0j])
    assert np.max(np.abs(out - expected)) < 1e-15


def test_site_zero_maps_to_uniform_energy():
    n = 9
    out = to_energy(ontological_state(0, n))
    assert out.basis is Basis.ENERGY
    assert np.max(np.abs(out.amplitudes - 1.0 / np.sqrt(n))) < 1e-15


def test_site_one_dim4_gives_conjugate_roots():
    out = to_energy(ontological_state(1, 4))
    expected = 0.5 * np.array([1.0, -1.0j, -1.0, 1.0j])
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-15


def test_random_state_agrees_with_reference_matrix():
    n = 64
    rng = np.random.default_rng(7)
    state = random_state(n, rng)
    out = to_sites(state.amplitudes)
    expected = duality_matrix(n) @ state.amplitudes
    assert np.max(np.abs(out - expected)) < 1e-13
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "trials, n",
    [(100, 11), (1000, 2), (50, 64), (10, 512), (7, 1), (3, 4096), (300, 100), (2000, 17)],
)
def test_random_states_equal_consecutive_draws_bit_for_bit(trials, n):
    """One batched draw is the stream of per-state draws: a seed keeps its states."""
    batch = random_states(trials, n, np.random.default_rng(trials + n))
    rng = np.random.default_rng(trials + n)
    one_by_one = np.array([random_state(n, rng).amplitudes for _ in range(trials)])
    reference = gaussian_states_one_by_one(trials, n, np.random.default_rng(trials + n))
    assert batch.shape == (trials, n)
    for rows in (one_by_one, reference):
        assert np.array_equal(batch.view(np.float64), rows.view(np.float64))


@pytest.mark.parametrize("trials, n", [(0, 4), (4, 0), (-1, 4)])
def test_random_states_need_one_state_of_one_level(trials, n):
    with pytest.raises(DimensionError):
        random_states(trials, n, np.random.default_rng(0))


def test_round_trip_of_basis_states():
    n = 11
    for k in range(n):
        back = to_energy(StateVector(Basis.ONTOLOGICAL, to_sites(energy_state(k, n).amplitudes)))
        target = np.zeros(n)
        target[k] = 1.0
        assert np.max(np.abs(back.amplitudes - target)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=48), seed=st.integers(0, 2**31 - 1))
def test_round_trip_and_parseval(n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(n, rng)
    site = StateVector(Basis.ONTOLOGICAL, to_sites(state.amplitudes))
    back = to_energy(site)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12 * np.sqrt(n)
    power_in = np.sum(np.abs(state.amplitudes) ** 2)
    power_out = np.sum(np.abs(site.amplitudes) ** 2)
    assert abs(power_in - power_out) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 11, 256, 1024])
def test_fft_route_matches_dense_map(n):
    """The FFT basis change equals U @ psi and U^dagger @ psi with the dense U."""
    u = duality_matrix(n)
    assert np.max(np.abs(to_sites(np.eye(n)) - u)) <= 1e-13
    rng = np.random.default_rng(n)
    states = [random_state(n, rng), energy_state(n - 1, n), energy_state(n // 2, n)]
    for state in states:
        site = to_sites(state.amplitudes)
        assert np.max(np.abs(site - u @ state.amplitudes)) <= 1e-13
        flipped = StateVector(Basis.ONTOLOGICAL, state.amplitudes)
        back = to_energy(flipped)
        assert np.max(np.abs(back.amplitudes - u.conj().T @ state.amplitudes)) <= 1e-13


def test_dense_storage_ceiling():
    """The FFT round trip needs no dense map: its peak allocation is O(N)."""
    for n in (4096, 65536):
        state = random_state(n, np.random.default_rng(0))
        tracemalloc.start()
        try:
            site = StateVector(Basis.ONTOLOGICAL, to_sites(state.amplitudes))
            back = to_energy(site)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 16 * n  # a dense map would take 16 * n**2 bytes
        assert abs(np.sum(np.abs(site.amplitudes) ** 2) - 1.0) <= 1e-12
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12 * np.sqrt(n)


def test_dense_map_ceiling_checked_before_allocating():
    assert DENSE_ENTRY_CEILING == 4096 * 4096
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="ceiling"):
            compare_matrix_elements("a", 4097)
        with pytest.raises(DimensionError, match="ceiling"):
            random_states(4097, 4096, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_basis_and_dimension_enforcement():
    with pytest.raises(BasisError):
        to_energy(energy_state(0, 4))


def test_state_vector_validation():
    with pytest.raises(DimensionError):
        StateVector(Basis.ENERGY, np.zeros((2, 2)))
    with pytest.raises(BasisError):
        StateVector("energy", np.zeros(2))
    st_vec = StateVector(Basis.ENERGY, [1.0, 0.0])
    assert np.linalg.norm(st_vec.amplitudes) == 1.0
    with pytest.raises(ValueError):
        st_vec.amplitudes[0] = 5.0  # frozen payload


def test_caller_arrays_are_copied():
    """An array from outside is copied: changing it afterwards leaves the state as it was."""
    amplitudes = np.array([1.0, 0.0], dtype=np.complex128)
    state = StateVector(Basis.ENERGY, amplitudes)
    amplitudes[1] = 5.0
    assert state.amplitudes[1] == 0.0 and not state.amplitudes.flags.writeable
    assert not np.shares_memory(state.amplitudes, amplitudes)
