import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledual import (
    DimensionError,
    DomainError,
    PoleError,
    ZeroFindingError,
    ZeroSet,
    auxfun,
    map_to_y,
    sqrt_series,
    sqrt_series_disk,
    sqrt_series_sheet2,
    sqrt_series_zeros,
)
from oracles import companion_roots, map_to_z, neville_at_zero

ROUND_TRIP_TOL = 1e-12


# ---------------------------------------------------------------------------
# forward map


def test_map_fixed_points():
    assert map_to_y(0.0) == 0.0
    assert map_to_y(1.0) == 1.0


def test_map_defining_identity():
    z = 0.5j
    y = map_to_y(z)
    assert abs(y * (1.0 + z) ** 2 - 4.0 * z) < 1e-14


def test_map_pole():
    with pytest.raises(PoleError):
        map_to_y(-1.0)


def test_unit_circle_lands_on_the_cut():
    for phi in (0.4, 1.2, 2.5):
        y = map_to_y(cmath.exp(1j * phi))
        assert abs(y.imag) < 1e-12
        assert y.real >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# inverse map and sheets


def test_inverse_at_branch_point():
    assert map_to_z(1.0, 1) == 1.0


def test_inverse_small_argument_series():
    y = 1e-6
    z = map_to_z(y, 1)
    series = y / 4.0 + y**2 / 8.0
    assert abs(z - series) < 1e-18


def test_sheet_product_is_one():
    y = 0.3 + 0.2j
    product = map_to_z(y, 1) * map_to_z(y, 2)
    assert abs(product - 1.0) < 1e-12


def test_round_trip_examples():
    for y in (0.3 + 0.2j, -1.7 + 0.4j, 0.95, -3.0, 2.0 + 1.5j):
        y = complex(y)
        assert abs(map_to_y(map_to_z(y, 1)) - y) <= ROUND_TRIP_TOL * max(1.0, abs(y))


@settings(max_examples=150, deadline=None)
@given(
    re=st.floats(min_value=-3.0, max_value=3.0),
    im=st.floats(min_value=-3.0, max_value=3.0),
)
def test_round_trip_property(re, im):
    y = complex(re, im)
    if abs(im) < 1e-6 and re >= 0.99:  # stay off the cut and branch point
        return
    z1 = map_to_z(y, 1)
    assert abs(map_to_y(z1) - y) <= ROUND_TRIP_TOL * max(1.0, abs(y))
    if abs(y) > 1e-150:  # reciprocal representable in double range
        assert abs(z1 * map_to_z(y, 2) - 1.0) <= ROUND_TRIP_TOL


def test_sheet_two_overflow_guard():
    with pytest.raises(PoleError):
        map_to_z(complex(0.0, 2.3e-311), 2)


def test_sheet_one_stays_in_the_disk():
    rng = np.random.default_rng(2)
    for _ in range(200):
        y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(y.imag) < 1e-9 and y.real >= 1.0:
            continue
        assert abs(map_to_z(y, 1)) <= 1.0 + 1e-12
        if y != 0:
            assert abs(map_to_z(y, 2)) >= 1.0 - 1e-12


def test_y_zero_images():
    assert map_to_z(0.0, 1) == 0.0
    with pytest.raises(PoleError):
        map_to_z(0.0, 2)


def test_bad_sheet_index():
    with pytest.raises(ValueError):
        map_to_z(0.5, 3)


def test_cut_sides_are_reciprocal_conjugates():
    """Across real y > 1 the inverse jumps between the two unit-circle values."""
    for y0 in (2.0, 3.5):
        upper = map_to_z(complex(y0, 0.0), 1)  # +0j side
        lower = map_to_z(complex(y0, -0.0), 1)  # -0j side
        assert abs(abs(upper) - 1.0) < 1e-12 and abs(abs(lower) - 1.0) < 1e-12
        assert abs(lower - upper.conjugate()) < 1e-12
        assert abs(upper * lower - 1.0) < 1e-12


def test_branch_cut_placement():
    """Continuous across (0, 1), jumps only across the cut (1, inf)."""
    delta = 1e-9
    for y0 in (0.3, 0.8):
        gap = abs(map_to_z(y0 + 1j * delta, 1) - map_to_z(y0 - 1j * delta, 1))
        assert gap < 1e-7
    for y0 in (1.5, 4.0):
        jump = abs(map_to_z(y0 + 1j * delta, 1) - map_to_z(y0 - 1j * delta, 1))
        assert jump > 0.1
        # switching sheets across the cut restores continuity
        glued = abs(map_to_z(y0 + 1j * delta, 1) - map_to_z(y0 - 1j * delta, 2))
        assert glued < 1e-7


def test_series_is_cut_free_in_y_when_sheets_are_glued():
    """The degree-40 partial sum, read through the y coordinate, is continuous
    across the cut when the sheet index flips there."""
    delta = 1e-9
    y0 = 2.5
    above = sqrt_series(40, map_to_z(y0 + 1j * delta, 1))
    below_other_sheet = sqrt_series(40, map_to_z(y0 - 1j * delta, 2))
    assert abs(above - below_other_sheet) < 1e-5
    # and continuity holds away from the cut without any gluing
    y1 = -1.2 + 0.7j
    a = sqrt_series(40, map_to_z(y1 + delta, 1))
    b = sqrt_series(40, map_to_z(y1 - delta, 1))
    assert abs(a - b) < 1e-6


# ---------------------------------------------------------------------------
# the series on both sheets


def test_second_sheet_is_series_in_reciprocal():
    z = 2.0 + 1.0j
    outer = sqrt_series_sheet2(z)
    inner = sqrt_series_disk(1.0 / z)
    assert outer.value == inner.value


def test_second_sheet_vanishes_at_infinity():
    z = 1e6 + 0j
    res = sqrt_series_sheet2(z)
    assert abs(res.value) < 2e-6
    assert abs(res.value - 1.0 / z) < 3e-12


def test_sheet_domains_enforced():
    with pytest.raises(DomainError):
        sqrt_series_sheet2(0.5)
    with pytest.raises(DomainError):
        sqrt_series_disk(1.0 + 1e-12)


def test_boundary_matching_across_sheets():
    """Two-sided radial limits onto the circle agree after conjugation."""
    phi = 2.0
    eps = [0.04 * 0.5**j for j in range(7)]
    inside = neville_at_zero(
        eps, [sqrt_series_disk((1.0 - e) * cmath.exp(1j * phi)).value for e in eps]
    )
    outside = neville_at_zero(
        eps, [sqrt_series_sheet2((1.0 + e) * cmath.exp(1j * phi)).value for e in eps]
    )
    assert abs(outside - inside.conjugate()) < 1e-4


# ---------------------------------------------------------------------------
# zeros of the partial sums


def test_zero_set_degree_one():
    zs = sqrt_series_zeros(1)
    assert zs.roots.tolist() == [0.0]


def test_zero_set_degree_two():
    zs = sqrt_series_zeros(2)
    expected = -1.0 / math.sqrt(2.0)
    assert min(abs(z) for z in zs.roots) < 1e-15
    assert min(abs(z - expected) for z in zs.roots) < 1e-12


def test_roots_sorted_by_argument():
    zs = sqrt_series_zeros(17)
    args = np.angle(zs.roots)
    assert np.all(np.diff(args) >= 0.0)


def test_roots_verified_by_horner_residual():
    for degree in (16, 64):
        zs = sqrt_series_zeros(degree)
        assert zs.roots.size == degree
        coeff_peak = math.sqrt(degree)
        values = np.array([sqrt_series(degree, z) for z in zs.roots])
        assert np.max(np.abs(values)) <= 1e-8 * coeff_peak
        assert zs.residual <= 1e-8 * coeff_peak


def test_roots_are_distinct():
    zs = sqrt_series_zeros(32)
    roots = np.sort_complex(zs.roots)
    gaps = np.abs(np.diff(roots))
    assert np.min(gaps[gaps > 0]) > 1e-6
    assert np.count_nonzero(np.abs(roots) < 1e-12) == 1


@pytest.mark.parametrize("degree", [2, 3, 17, 128, 256, 511, 512])
def test_nonzero_roots_lie_in_the_enestrom_kakeya_annulus(degree):
    """S_n(z)/z = sum_k sqrt(k+1) z^k has increasing positive coefficients,

    so by Enestrom-Kakeya its roots satisfy min ratio <= |z| <= max ratio
    of consecutive coefficients: 1/sqrt(2) <= |z| <= sqrt((n-1)/n), both
    attained at n = 2."""
    roots = sqrt_series_zeros(degree).roots
    nonzero = np.abs(roots[roots != 0])
    assert nonzero.size == degree - 1
    assert nonzero.min() >= math.sqrt(0.5) * (1.0 - 1e-12)
    assert nonzero.max() <= math.sqrt((degree - 1) / degree) * (1.0 + 1e-12)


def _zero_set_faults(degree, roots):
    """What a returned root set of S_degree gets wrong, checked with numpy's Horner."""
    faults = []
    coeffs = np.sqrt(np.arange(degree, 0, -1, dtype=np.float64))  # S_n / z, highest first
    worst = np.max(np.abs(np.polyval(np.append(coeffs, 0.0), roots)))
    if not worst <= 1e-8 * math.sqrt(degree):
        faults.append(f"residual {worst:.2e}")
    if not np.array_equal(np.sort_complex(roots), np.sort_complex(roots.conj())):
        faults.append("not closed under conjugation")
    real = roots.imag == 0
    nearly_real = np.abs(roots.imag) < 1e-8
    if np.count_nonzero(real) != 1 + (degree - 1) % 2 or np.any(nearly_real & ~real):
        faults.append("real roots not exactly real")
    # inclusion disks |z - r| <= m |q(r)/q'(r)| of the nonzero roots, 0 as a disk of radius 0
    nonzero = roots[roots != 0]
    slopes = np.polyval(np.polyder(coeffs), nonzero)
    radii = (degree - 1) * np.abs(np.polyval(coeffs, nonzero) / slopes)
    centers, spans = np.append(nonzero, 0.0), np.append(radii, 0.0)
    gaps = np.abs(centers[:, None] - centers) - spans[:, None] - spans
    np.fill_diagonal(gaps, np.inf)
    if roots.size != degree or nonzero.size != degree - 1 or not np.min(gaps) > 0:
        faults.append(f"inclusion disks overlap (smallest gap {np.min(gaps):.2e})")
    return faults


def test_zeros_hold_every_check_at_every_accepted_degree():
    """Every degree the CLI accepts: residual <= 1e-8 * max coefficient,
    disjoint inclusion disks, exact conjugate pairs, exactly real real roots."""
    faults = {}
    for degree in range(1, auxfun.MAX_ZERO_DEGREE + 1):
        found = _zero_set_faults(degree, sqrt_series_zeros(degree).roots)
        if found:
            faults[degree] = found
    assert not faults


@pytest.mark.parametrize("degree", sorted({*range(1, 513, 32), 2, 255, 256, 511, 512}))
def test_zeros_match_the_companion_oracle(degree):
    roots = sqrt_series_zeros(degree).roots
    oracle = companion_roots(degree)
    distance = np.abs(roots[:, None] - oracle[None, :])
    assert np.max(np.min(distance, axis=1)) <= 1e-13
    assert np.max(np.min(distance, axis=0)) <= 1e-13


def test_zeros_report_a_failed_iteration(monkeypatch):
    monkeypatch.setattr(auxfun, "_ABERTH_SWEEPS", 1)
    with pytest.raises(ZeroFindingError) as excinfo:
        sqrt_series_zeros(64)
    diagnostics = excinfo.value.diagnostics
    assert diagnostics["degree"] == 64 and diagnostics["sweeps"] == 1
    assert 0 < diagnostics["unconverged"] <= 32
    assert diagnostics["worst_step"] > 0
    assert {"disk_gap", "residual", "bound"} <= diagnostics.keys()


def test_zeros_certified_within_three_sweeps_at_every_accepted_degree(monkeypatch):
    """From the asymptotic start every degree converges in 3 Aberth sweeps;
    a start on the outer circle needs 5-32 and fails this."""
    monkeypatch.setattr(auxfun, "_ABERTH_SWEEPS", 3)
    for degree in range(1, auxfun.MAX_ZERO_DEGREE + 1):
        sqrt_series_zeros(degree)


def test_more_roots_hug_the_circle_as_degree_grows():
    near_16 = int(round(sqrt_series_zeros(16).near_circle_fraction() * 16))
    near_64 = int(round(sqrt_series_zeros(64).near_circle_fraction() * 64))
    assert near_64 > near_16


def test_zero_degree_bounds():
    with pytest.raises(DimensionError):
        sqrt_series_zeros(0)
    with pytest.raises(DimensionError):
        sqrt_series_zeros(513)


def test_zero_set_validation():
    with pytest.raises(DimensionError):
        ZeroSet(degree=3, roots=np.zeros(2, dtype=complex), residuals=np.zeros(3))
    with pytest.raises(DimensionError):
        ZeroSet(degree=2, roots=np.zeros(2, dtype=complex), residuals=np.zeros(3))
