import math
import tracemalloc

import numpy as np
import pytest

from circledual import DimensionError, compare_matrix_elements, emit_spectrum, operators
from circledual.hilbert import _to_levels, to_sites
from oracles import duality_matrix, level_operator_entries, site_operator_entries

AGREEMENT_TOL = 1e-10


def conjugated(m):
    """U M U^dag with the library's FFTs: U^dag on every row of M, then U on every column."""
    return to_sites(_to_levels(m).T).T


def test_ladder_dim2():
    a, adag = level_operator_entries("a", 2), level_operator_entries("adag", 2)
    assert np.array_equal(a, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(adag, [[0.0, 0.0], [1.0, 0.0]])


def test_ladder_dim3_superdiagonal():
    a = level_operator_entries("a", 3)
    assert a[0, 1] == 1.0
    assert abs(a[1, 2] - math.sqrt(2.0)) < 1e-15
    assert np.count_nonzero(a) == 2


def test_ground_state_annihilated():
    a = level_operator_entries("a", 5)
    ground = np.zeros(5, dtype=np.complex128)
    ground[0] = 1.0
    assert np.all(a @ ground == 0.0)


def test_position_momentum_dim2():
    x, p = level_operator_entries("x", 2), level_operator_entries("p", 2)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(x - inv_sqrt2 * np.array([[0, 1], [1, 0]]))) < 1e-15
    expected_p = inv_sqrt2 * np.array([[0, -1j], [1j, 0]])
    assert np.max(np.abs(p - expected_p)) < 1e-15


def test_hermiticity_large():
    # the closed form takes x and p from a and a^H: hermitian to the last bit
    for kind in ("x", "p"):
        closed = compare_matrix_elements(kind, 384)[0]
        assert np.array_equal(closed, closed.conj().T)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 255, 1024])
def test_site_operators_match_direct_formula_bit_for_bit(n):
    """The in-place build changes no bit of any entry, signed zeros included."""
    for kind in ("a", "adag", "x", "p"):
        built = np.ascontiguousarray(compare_matrix_elements(kind, n)[0])
        direct = np.ascontiguousarray(site_operator_entries(kind, n))
        assert np.array_equal(built.view(np.uint64), direct.view(np.uint64)), kind


def peak_arrays(build, *args):
    """Peak traced allocation of build(*args), in dense complex 1024 x 1024 arrays (16 MiB)."""
    tracemalloc.start()
    try:
        build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (1024 * 1024 * 16)


@pytest.mark.parametrize("kind", ["a", "adag", "x", "p"])
def test_level_matrix_and_comparison_peak_memory(kind):
    """At N = 1024 the comparison peaks at the closed form's own build.

    It forms no level-basis matrix: the gap is taken a block of columns at
    a time, with the level-basis kind applied to vectors, beside the one
    closed form (one array for a, two while a^H, x or p is formed).
    """
    assert peak_arrays(compare_matrix_elements, kind, 1024) <= (1.35 if kind == "a" else 2.05)


@pytest.mark.parametrize("kind, arrays", [("a", 1.1), ("adag", 2.05), ("x", 2.05), ("p", 2.05)])
def test_builders_hand_over_their_array_without_a_copy(kind, arrays):
    """At N = 1024 the closed-form a takes one dense array, not two (the build and its copy).

    a^H, x and p need a and the result at once: two arrays, and no copy
    after a is released.
    """
    assert peak_arrays(operators._site_matrix, kind, 1024) <= arrays


def gap_in_blocks(monkeypatch, kind, n, columns):
    """The gap of compare_matrix_elements with _BLOCK_ENTRIES patched to blocks of `columns` columns."""
    monkeypatch.setattr(operators, "_BLOCK_ENTRIES", columns * n)
    return compare_matrix_elements(kind, n)[1]


def dense_gap(closed, kind, n):
    """max |closed - U M U^dag| with the dense level-basis M, conjugated by whole-array FFTs."""
    return float(np.max(np.abs(closed - conjugated(level_operator_entries(kind, n)))))


def rounding_bound(n):
    """4 eps sqrt(2N): how far two FFT roundings of the same gap may differ."""
    return 4.0 * np.finfo(np.float64).eps * math.sqrt(2.0 * n)


@pytest.mark.parametrize("kind", ["a", "adag", "x", "p"])
@pytest.mark.parametrize("n", [100, 239, 384])
def test_blockwise_comparison_equals_whole_arrays_bit_for_bit(monkeypatch, kind, n):
    """Column blocks of the level-side route, the library's or 7 columns, give its one-block gap exactly."""
    closed, gap = compare_matrix_elements(kind, n)
    assert gap == gap_in_blocks(monkeypatch, kind, n, 7) == gap_in_blocks(monkeypatch, kind, n, n)
    assert abs(gap - dense_gap(closed, kind, n)) <= rounding_bound(n)


def test_one_closed_form_build_per_comparison(monkeypatch):
    """The closed form is built once, whole; the gap forms no second one."""
    builds = []
    site_lowering = operators._site_lowering

    def counted(dim):
        builds.append(dim)
        return site_lowering(dim)

    monkeypatch.setattr(operators, "_site_lowering", counted)
    for kind in ("a", "adag", "x", "p"):
        compare_matrix_elements(kind, 300)
    assert builds == [300] * 4


def test_hamiltonian_values():
    """The spectrum the `spectrum` command writes is the diagonal of H: level n costs n*omega."""
    assert np.array_equal(emit_spectrum(4, 1.0).columns["energy"], [0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(emit_spectrum(3, 2.5).columns["energy"], [0.0, 2.5, 5.0])
    assert np.array_equal(emit_spectrum(1, 1.0).columns["energy"], [0.0])


def test_config_validation():
    for n in (0, -3):
        with pytest.raises(DimensionError):
            compare_matrix_elements("x", n)
    # above the dense ceiling the comparison refuses before allocating
    for kind in ("a", "x"):
        with pytest.raises(DimensionError, match="ceiling"):
            compare_matrix_elements(kind, 4097)


def test_site_basis_hamiltonian_has_constant_diagonal():
    n = 12
    h_site = conjugated(np.diag(emit_spectrum(n, 1.0).columns["energy"]))
    assert np.max(np.abs(np.diag(h_site) - (n - 1) / 2.0)) < 1e-12


def test_identity_is_fixed_by_conjugation():
    n = 9
    assert np.max(np.abs(conjugated(np.eye(n)) - np.eye(n))) < 1e-13


def test_spectrum_preserved_by_conjugation():
    n = 64
    omega = 1.3
    h_site = conjugated(np.diag(emit_spectrum(n, omega).columns["energy"]))
    eigs = np.sort(np.linalg.eigvalsh(h_site))
    assert np.max(np.abs(eigs - omega * np.arange(n))) < 1e-9


@pytest.mark.parametrize("kind", ["a", "adag", "x", "p"])
@pytest.mark.parametrize("n", [2, 16, 64])
def test_closed_form_matches_conjugation(monkeypatch, kind, n):
    closed = compare_matrix_elements(kind, n)[0]
    gap = dense_gap(closed, kind, n)
    assert gap <= AGREEMENT_TOL
    # one column a block and all columns in one block report the same gap
    compared_gap = gap_in_blocks(monkeypatch, kind, n, 1)
    assert compared_gap == gap_in_blocks(monkeypatch, kind, n, n)
    assert abs(compared_gap - gap) <= rounding_bound(n)


def test_fft_conjugation_matches_dense_map():
    """U M U^dag by FFT equals the product with the exp-formula U."""
    n = 256
    u = duality_matrix(n)
    level_ops = [level_operator_entries(kind, n) for kind in ("a", "adag", "x", "p")]
    for op in (*level_ops, np.diag(emit_spectrum(n, 1.3).columns["energy"])):
        dense = u @ op @ u.conj().T
        assert np.max(np.abs(conjugated(op) - dense)) <= AGREEMENT_TOL


def test_element_trivial_and_diagonal_cases():
    assert compare_matrix_elements("a", 1)[0][0, 0] == 0.0
    # s1 == s2: kernel argument is 1, so the sum is real
    n = 16
    direct = sum(math.sqrt(k) for k in range(1, n)) / n
    phi1 = 2.0 * math.pi * 3 / n
    expected = direct * np.exp(-1j * phi1)
    assert abs(compare_matrix_elements("a", n)[0][3, 3] - expected) < 1e-12


def test_element_index_validation():
    with pytest.raises(ValueError):
        compare_matrix_elements("b", 4)


def test_ladder_commutator_truncation():
    a, adag = level_operator_entries("a", 4), level_operator_entries("adag", 4)
    defect = a @ adag - adag @ a
    assert np.max(np.abs(defect - np.diag([1.0, 1.0, 1.0, -3.0]))) < 1e-14


@pytest.mark.parametrize("n", [2, 4, 64])
def test_xp_commutator_is_i_with_top_level_defect(n):
    x, p = level_operator_entries("x", n), level_operator_entries("p", n)
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
    x, p = level_operator_entries("x", n), level_operator_entries("p", n)
    levels = np.arange(n)
    step = 1e-4

    def evolved(t):
        phases = np.exp(1j * levels * t)
        return phases[:, None] * x * phases.conj()[None, :]

    derivative = (evolved(step) - evolved(-step)) / (2.0 * step)
    block = slice(0, n - 2)
    assert np.max(np.abs(derivative[block, block] - p[block, block])) <= 1e-6


def test_small_time_rotation_mixes_x_into_p():
    n = 24
    x, p = level_operator_entries("x", n), level_operator_entries("p", n)
    t = 1e-2
    levels = np.arange(n)
    phases = np.exp(1j * levels * t)
    x_t = phases[:, None] * x * phases.conj()[None, :]
    approx = x * math.cos(t) + p * math.sin(t)
    block = slice(0, n - 2)
    assert np.max(np.abs(x_t[block, block] - approx[block, block])) <= 1e-5
