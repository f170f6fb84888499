import math
import tracemalloc

import numpy as np
import pytest

from circledual import (
    Basis,
    DimensionError,
    OperatorMatrix,
    build_hamiltonian,
    compare_matrix_elements,
    conjugate_to_ontological,
    level_matrix,
    ontological_matrix,
)
from oracles import duality_matrix, site_operator_entries

AGREEMENT_TOL = 1e-10


def test_ladder_dim2():
    a, adag = level_matrix("a", 2), level_matrix("adag", 2)
    assert np.array_equal(a.entries, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(adag.entries, [[0.0, 0.0], [1.0, 0.0]])


def test_ladder_dim3_superdiagonal():
    a = level_matrix("a", 3)
    assert a.entries[0, 1] == 1.0
    assert abs(a.entries[1, 2] - math.sqrt(2.0)) < 1e-15
    assert np.count_nonzero(a.entries) == 2


def test_ground_state_annihilated():
    a = level_matrix("a", 5)
    ground = np.zeros(5, dtype=np.complex128)
    ground[0] = 1.0
    assert np.all(a.entries @ ground == 0.0)


def test_position_momentum_dim2():
    x, p = level_matrix("x", 2), level_matrix("p", 2)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(x.entries - inv_sqrt2 * np.array([[0, 1], [1, 0]]))) < 1e-15
    expected_p = inv_sqrt2 * np.array([[0, -1j], [1j, 0]])
    assert np.max(np.abs(p.entries - expected_p)) < 1e-15


def test_hermiticity_large():
    x, p = level_matrix("x", 256), level_matrix("p", 256)
    assert x.hermiticity_defect() <= 1e-12
    assert p.hermiticity_defect() <= 1e-12
    # the closed form takes x and p from a and a^H: hermitian to the last bit
    for kind in ("x", "p"):
        assert ontological_matrix(kind, 384).hermiticity_defect() == 0.0


@pytest.mark.parametrize("n", [1, 2, 7, 64, 255, 1024])
def test_site_operators_match_direct_formula_bit_for_bit(n):
    """The in-place build changes no bit of any entry, signed zeros included."""
    for kind in ("a", "adag", "x", "p"):
        built = np.ascontiguousarray(ontological_matrix(kind, n).entries)
        direct = np.ascontiguousarray(site_operator_entries(kind, n))
        assert np.array_equal(built.view(np.uint64), direct.view(np.uint64)), kind


@pytest.mark.parametrize("kind", ["x", "p"])
def test_site_position_momentum_peak_memory(kind):
    """One N = 1024 x or p stays within four dense complex N x N arrays (16 MiB each)."""
    tracemalloc.start()
    try:
        ontological_matrix(kind, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 1024 * 1024 * 16


@pytest.mark.parametrize("kind", ["a", "adag", "x", "p"])
def test_level_matrix_and_comparison_peak_memory(kind):
    """At N = 1024 (16 MiB per dense complex array) a is freed before the copy.

    One level-basis kind stays within 2.5 dense arrays, and so does its
    comparison with the closed form: the level-basis matrix becomes the
    row-FFT result in place, the rest goes in column blocks, and the closed
    form is built once that array is gone.
    """
    for build, arrays in ((level_matrix, 2.5), (compare_matrix_elements, 2.5)):
        tracemalloc.start()
        try:
            build(kind, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 1024 * 1024 * 16, build.__name__


def test_conjugation_holds_one_array_beyond_its_input():
    """U M U^dag replaces M U^dag a block of columns at a time: one new array at N = 1024."""
    op = level_matrix("x", 1024)
    tracemalloc.start()
    try:
        conjugate_to_ontological(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 1024 * 1024 * 16


@pytest.mark.parametrize("kind", ["a", "adag", "x", "p"])
@pytest.mark.parametrize("n", [100, 239, 384])
def test_blockwise_comparison_equals_whole_arrays_bit_for_bit(kind, n):
    """Row and column blocks of the FFTs and the closed form give the whole-array gap exactly."""
    level = level_matrix(kind, n).entries
    whole = np.fft.ifft(np.fft.fft(level, axis=1, norm="ortho"), axis=0, norm="ortho")
    closed = ontological_matrix(kind, n).entries
    assert np.array_equal(conjugate_to_ontological(level_matrix(kind, n)).entries, whole)
    assert compare_matrix_elements(kind, n)[1] == float(np.max(np.abs(closed - whole)))


def test_caller_arrays_are_copied():
    """An array from outside is copied: changing it afterwards leaves the operator as it was."""
    entries = np.eye(3, dtype=np.complex128)
    op = OperatorMatrix(Basis.ENERGY, entries, hermitian=True)
    entries[0, 1] = 5.0
    assert op.entries[0, 1] == 0.0 and not op.entries.flags.writeable
    assert not np.shares_memory(op.entries, entries)


@pytest.mark.parametrize("kind, arrays", [("a", 1.1), ("adag", 2.05), ("x", 2.05), ("p", 2.05)])
def test_builders_hand_over_their_array_without_a_copy(kind, arrays):
    """At N = 1024 a takes one dense array, not two (the build and its copy).

    a^H, x and p need a and the result at once: two arrays, and no copy
    after a is released (2.13 arrays before).  The comparison holds one
    array, the row-FFT result, while it takes the gap in column blocks, so
    its peak is the closed form's own build (it held three arrays before).
    """
    for make, limit in ((level_matrix, arrays), (ontological_matrix, arrays),
                        (compare_matrix_elements, 2.2)):
        tracemalloc.start()
        try:
            make(kind, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * 1024 * 1024 * 16, make.__name__


def test_hamiltonian_values():
    h = build_hamiltonian(4)
    assert np.array_equal(np.diag(h.entries).real, [0.0, 1.0, 2.0, 3.0])
    h_scaled = build_hamiltonian(3, omega=2.5)
    assert np.array_equal(np.diag(h_scaled.entries).real, [0.0, 2.5, 5.0])
    assert build_hamiltonian(1).entries[0, 0] == 0.0


def test_config_validation():
    with pytest.raises(DimensionError):
        build_hamiltonian(0)
    # above the dense ceiling every N x N constructor refuses before allocating
    for build in (
        build_hamiltonian,
        lambda n: level_matrix("a", n),
        lambda n: ontological_matrix("x", n),
    ):
        with pytest.raises(DimensionError, match="ceiling"):
            build(4097)
    with pytest.raises(ValueError):
        build_hamiltonian(3, omega=-1.0)


def test_site_basis_hamiltonian_has_constant_diagonal():
    n = 12
    h = build_hamiltonian(n)
    h_site = conjugate_to_ontological(h)
    assert h_site.basis is Basis.ONTOLOGICAL
    assert np.max(np.abs(np.diag(h_site.entries) - (n - 1) / 2.0)) < 1e-12


def test_identity_is_fixed_by_conjugation():
    n = 9
    eye = OperatorMatrix(Basis.ENERGY, np.eye(n), hermitian=True)
    out = conjugate_to_ontological(eye)
    assert np.max(np.abs(out.entries - np.eye(n))) < 1e-13


def test_spectrum_preserved_by_conjugation():
    n = 64
    omega = 1.3
    h = build_hamiltonian(n, omega)
    h_site = conjugate_to_ontological(h)
    eigs = np.sort(np.linalg.eigvalsh(h_site.entries))
    assert np.max(np.abs(eigs - omega * np.arange(n))) < 1e-9


@pytest.mark.parametrize("kind", ["a", "adag", "x", "p"])
@pytest.mark.parametrize("n", [2, 16, 64])
def test_closed_form_matches_conjugation(kind, n):
    closed = ontological_matrix(kind, n).entries
    conjugated = conjugate_to_ontological(level_matrix(kind, n)).entries
    gap = float(np.max(np.abs(closed - conjugated)))
    assert gap <= AGREEMENT_TOL
    # the library's blockwise comparison gives the same closed form and gap
    compared, compared_gap = compare_matrix_elements(kind, n)
    assert np.array_equal(compared.entries, closed)
    assert compared_gap == gap


def test_fft_conjugation_matches_dense_map():
    """U M U^dag by FFT equals the product with the exp-formula U."""
    n = 256
    u = duality_matrix(n)
    level_ops = [level_matrix(kind, n) for kind in ("a", "adag", "x", "p")]
    for op in (*level_ops, build_hamiltonian(n, omega=1.3)):
        dense = u @ op.entries @ u.conj().T
        fft = conjugate_to_ontological(op)
        assert fft.basis is Basis.ONTOLOGICAL
        assert np.max(np.abs(fft.entries - dense)) <= AGREEMENT_TOL


def test_element_trivial_and_diagonal_cases():
    assert ontological_matrix("a", 1).entries[0, 0] == 0.0
    # s1 == s2: kernel argument is 1, so the sum is real
    n = 16
    direct = sum(math.sqrt(k) for k in range(1, n)) / n
    phi1 = 2.0 * math.pi * 3 / n
    expected = direct * np.exp(-1j * phi1)
    assert abs(ontological_matrix("a", n).entries[3, 3] - expected) < 1e-12


def test_element_index_validation():
    for build in (ontological_matrix, level_matrix, compare_matrix_elements):
        with pytest.raises(ValueError):
            build("b", 4)


def test_ladder_commutator_truncation():
    a, adag = level_matrix("a", 4).entries, level_matrix("adag", 4).entries
    defect = a @ adag - adag @ a
    assert np.max(np.abs(defect - np.diag([1.0, 1.0, 1.0, -3.0]))) < 1e-14


@pytest.mark.parametrize("n", [2, 4, 64])
def test_xp_commutator_is_i_with_top_level_defect(n):
    x, p = level_matrix("x", n).entries, level_matrix("p", n).entries
    defect = x @ p - p @ x
    expected = 1j * np.eye(n)
    expected[n - 1, n - 1] = 1j * (1.0 - n)
    assert np.max(np.abs(defect - expected)) <= 1e-10
    # restricted to the first n-1 levels the canonical value is exact
    block = defect[: n - 1, : n - 1] - 1j * np.eye(n - 1)
    assert np.max(np.abs(block)) <= 1e-12


def test_heisenberg_flow_derivative():
    """d/dt of e^{iHt} x e^{-iHt} at t=0 equals i[H, x] = p.

    Central difference in t with step 1e-4; the top-right truncation edge
    is excluded from the comparison.
    """
    n = 16
    x, p = level_matrix("x", n), level_matrix("p", n)
    levels = np.arange(n)
    step = 1e-4

    def evolved(t):
        phases = np.exp(1j * levels * t)
        return phases[:, None] * x.entries * phases.conj()[None, :]

    derivative = (evolved(step) - evolved(-step)) / (2.0 * step)
    block = slice(0, n - 2)
    assert np.max(np.abs(derivative[block, block] - p.entries[block, block])) <= 1e-6


def test_small_time_rotation_mixes_x_into_p():
    n = 24
    x, p = level_matrix("x", n), level_matrix("p", n)
    t = 1e-2
    levels = np.arange(n)
    phases = np.exp(1j * levels * t)
    x_t = phases[:, None] * x.entries * phases.conj()[None, :]
    approx = x.entries * math.cos(t) + p.entries * math.sin(t)
    block = slice(0, n - 2)
    assert np.max(np.abs(x_t[block, block] - approx[block, block])) <= 1e-5


def test_declared_hermitian_is_validated():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        OperatorMatrix(Basis.ENERGY, bad, hermitian=True)
