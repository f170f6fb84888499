import cmath
import functools
import json
import math
import sys
import tracemalloc

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
from circledual.cli import main
from oracles import (
    companion_roots,
    dense_disk_gap,
    horner_giant_steps,
    map_to_z,
    neville_at_zero,
)

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
    above = sqrt_series(40, map_to_z(y0 + 1j * delta, 1)).value
    below_other_sheet = sqrt_series(40, map_to_z(y0 - 1j * delta, 2)).value
    assert abs(above - below_other_sheet) < 1e-5
    # and continuity holds away from the cut without any gluing
    y1 = -1.2 + 0.7j
    a = sqrt_series(40, map_to_z(y1 + delta, 1)).value
    b = sqrt_series(40, map_to_z(y1 - delta, 1)).value
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
        values = sqrt_series(degree, zs.roots).value
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


# the accepted degrees that the every-degree tests check: all up to 512, then a sample
# (every 251st from 513, the powers of two and the two top degrees) that keeps the dense
# disk check of _zero_set_faults near 3 s; a scan of every degree 513..4096 with the
# sweep cap at 3 certified them all (CHANGES.md)
_CHECKED_DEGREES = sorted(
    {*range(1, 513), *range(513, auxfun.MAX_ZERO_DEGREE + 1, 251), 1024, 2048,
     auxfun.MAX_ZERO_DEGREE - 1, auxfun.MAX_ZERO_DEGREE}
)


def test_zeros_hold_every_check_at_every_accepted_degree():
    """Every degree the CLI accepts up to 512, and a sample above: residual <= 1e-8 *
    max coefficient, disjoint inclusion disks, exact conjugate pairs, exactly real real
    roots."""
    faults = {}
    for degree in _CHECKED_DEGREES:
        found = _zero_set_faults(degree, sqrt_series_zeros(degree).roots)
        if found:
            faults[degree] = found
    assert not faults


# the degrees at which the blocked q and q' and the written residuals meet mpmath:
# blocks of one and two coefficients, a ragged last block, and the top degrees
_AUDITED_DEGREES = [2, 3, 17, 64, 250, 511, 512]


def _final_iterates(degree):
    """The nonzero roots with Im >= 0, the points that the finder iterates."""
    roots = sqrt_series_zeros(degree).roots
    return roots[(roots.imag >= 0) & (roots != 0)]


@functools.cache
def _exact_at_roots(degree):
    """The final iterates, every 8th of them above degree 512, and S_degree,
    q = S_degree / z and q' there by mpmath at 40 digits, from the exact
    coefficients sqrt(k)."""
    mpmath = pytest.importorskip("mpmath")
    z = _final_iterates(degree)[:: 1 if degree <= 512 else 8]
    exact = []
    with mpmath.workdps(40):
        coeffs = [mpmath.sqrt(k) for k in range(degree, 0, -1)] + [0]
        for point in z:
            x = mpmath.mpc(point)
            s, ds = mpmath.polyval(coeffs, x, derivative=True)
            exact.append((s, s / x, (ds * x - s) / x**2))
    return z, exact


def _quotient_slack(degree, z):
    """q and q' by blocks at z, and the slack 4 degree eps sum |c_j| |z|^j that the
    inclusion radii add to each."""
    values, slack = auxfun._quotient_values(z, auxfun._quotient_blocks(degree), slack=True)
    return values, 4.0 * degree * sys.float_info.epsilon * slack


@pytest.mark.parametrize("degree", [*_AUDITED_DEGREES, 1024])
def test_blocked_quotient_is_within_its_slack(degree):
    """The inclusion radii widen q and q' by their slack; at the final roots (a sample of
    64 at degree 1024) the blocked route's q and q' must lie within it of the exact
    values."""
    mpmath = pytest.importorskip("mpmath")
    z, exact = _exact_at_roots(degree)
    values, slack = _quotient_slack(degree, z)
    for k in (0, 1):
        errors = [float(abs(mpmath.mpc(v) - e[k + 1])) for v, e in zip(values[:, k], exact)]
        assert np.all(np.array(errors) <= slack[:, k]), (k, max(np.array(errors) / slack[:, k]))


@pytest.mark.parametrize("degree", _AUDITED_DEGREES)
def test_written_residuals_match_mpmath(degree, tmp_path):
    """The residual column is |root| |q(root)| from the inclusion step: within |root| times
    q's slack (and the rounding of the product) of mpmath's |S_degree(root)|, and within
    1e-8 sqrt(degree); a conjugate shares its root's residual and the root 0 has 0."""
    out = tmp_path / "zeros.json"
    assert main(["zeros", "--n", str(degree), "--out", str(out)]) == 0
    columns = json.loads(out.read_text(encoding="utf-8"))["columns"]
    roots = (np.array(columns["re"]) + 1j * np.array(columns["im"])).tolist()
    written = dict(zip(roots, columns["residual"]))
    assert written[0j] == 0.0
    assert all(written[r.conjugate()] == residual for r, residual in written.items())
    z, exact = _exact_at_roots(degree)
    residuals = np.array([written[point] for point in z.tolist()])
    values, slack = _quotient_slack(degree, z)
    # at a root the true residual is itself far below the slack, so the comparison with
    # mpmath bounds the column's error, and this pins where the column comes from
    assert np.array_equal(residuals, np.abs(z) * np.abs(values[:, 0]))
    truth = np.array([float(abs(e[0])) for e in exact])
    slack = np.abs(z) * slack[:, 0]
    assert np.all(np.abs(residuals - truth) <= slack + 4.0 * sys.float_info.epsilon * residuals)
    bound = 1e-8 * math.sqrt(degree)
    assert residuals.max() <= bound and truth.max() <= bound


def _giant_step_disagreement(monkeypatch, degree, giant_steps):
    """The largest |batched - Horner| / slack over q, q' and their slack sums at the final
    iterates, the batched route's giant steps taken by ``giant_steps``: both routes share
    the inner sums and differ only in how the blocks are summed."""
    z = _final_iterates(degree)
    blocks = auxfun._quotient_blocks(degree)
    with monkeypatch.context() as patch:
        patch.setattr(auxfun, "_giant_steps", horner_giant_steps)
        horner, horner_slack = auxfun._quotient_values(z, blocks, slack=True)
    with monkeypatch.context() as patch:
        patch.setattr(auxfun, "_giant_steps", giant_steps)
        values, slack = auxfun._quotient_values(z, blocks, slack=True)
    scale = 4.0 * degree * sys.float_info.epsilon * slack
    return max(float(np.max(np.abs(values[:, :2] - horner[:, :2]) / scale)),
               float(np.max(np.abs(slack - horner_slack) / scale)))


@pytest.mark.parametrize("degree", [*_AUDITED_DEGREES, 1024, 4096])
def test_batched_giant_steps_agree_with_horner(monkeypatch, degree):
    """The batched product of the giant powers with the block sums gives q, q' and the
    slack sums of Horner's rule in z^B, within the slack 4 degree eps sum |c_j| |z|^j."""
    assert _giant_step_disagreement(monkeypatch, degree, auxfun._giant_steps) <= 1.0


@pytest.mark.parametrize("degree", [d for d in (*_AUDITED_DEGREES, 1024, 4096) if d > 2])
def test_planted_giant_step_error_fails_the_horner_check(monkeypatch, degree):
    """A giant step z^B off by a relative 1e-12 moves block b by about b 1e-12, beyond
    the slack; degree 2 has one block, so its giant step is never used."""
    batched = auxfun._giant_steps

    def planted(inner, giant):
        return batched(inner, giant * (1.0 + 1e-12))

    assert _giant_step_disagreement(monkeypatch, degree, planted) > 1.0


def test_rounding_bound_fits_the_slack_at_every_accepted_degree():
    """_quotient_values bounds the error of the term c_j z^j by (1 + 1.42 j + 0.71 B +
    0.71 blocks) eps |c_j| |z|^j; with the finder's own block shapes that stays below
    the slack 4 degree eps |c_j| |z|^j for every j <= degree - 1, at every degree."""
    for degree in range(2, auxfun.MAX_ZERO_DEGREE + 1):
        blocks = auxfun._quotient_blocks(degree)
        count = blocks.magnitudes.shape[1] // 2
        assert blocks.step * count >= degree > blocks.step * (count - 1)
        bound = 1.0 + 1.42 * (degree - 1) + 0.71 * (blocks.step + count)
        assert bound < 4.0 * degree, degree


def test_zero_finder_builds_no_full_power_table():
    """q, q' and q'' by blocks need a (points x (isqrt(degree) + 2)) power table, not
    (points x degree), and Halley's step and the swept disk check need no (m/2 x m)
    matrix.  At degree 512 the peak is 0.36 (m/2 x degree) complex tables, so the bound
    0.5 leaves 38 % headroom; the Aberth difference matrices of two consecutive sweeps
    overlapped for 2.18, and a full power table beside them took 2.56."""
    degree = 512
    table = (degree - 1) // 2 * degree * 16
    sqrt_series_zeros(degree)
    tracemalloc.start()
    try:
        sqrt_series_zeros(degree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * table, peak / table


def test_zeros_certified_at_the_cap(monkeypatch):
    """The top accepted degree, 4096, certifies within 3 sweeps and peaks at 10.9 MiB
    (bound 12 MiB): the (points x 64) giant table of the batched block sums adds 1.7 MiB
    to Horner's 9.2 MiB, and the Aberth matrices took 388 MiB."""
    assert auxfun.MAX_ZERO_DEGREE == 4096
    monkeypatch.setattr(auxfun, "_SWEEPS", 3)
    tracemalloc.start()
    try:
        zero_set = sqrt_series_zeros(4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zero_set.roots.size == 4096 and zero_set.residual <= 1e-8 * math.sqrt(4096)
    assert peak <= 12 * 2**20, peak / 2**20


def _finder_disks(monkeypatch, degrees):
    """The centres and radii that sqrt_series_zeros hands its disk check, per degree."""
    seen, check = [], auxfun._disk_gap
    monkeypatch.setattr(auxfun, "_disk_gap", lambda *disks: seen.append(disks) or check(*disks))
    for degree in degrees:
        sqrt_series_zeros(degree)
    monkeypatch.undo()
    return seen


def test_swept_disk_check_agrees_with_the_dense_oracle(monkeypatch):
    """On the finder's own disks both checks find every pair disjoint; the sweep's gap is
    the smallest over the pairs it compares, so never below the dense one."""
    degrees = sorted({*range(2, 513, 17), 3, 4, 511, 512})
    for degree, (centers, radii) in zip(degrees, _finder_disks(monkeypatch, degrees)):
        assert centers.size == degree and radii[-1] == 0.0
        swept, dense = auxfun._disk_gap(centers, radii), dense_disk_gap(centers, radii)
        assert swept >= dense > 0, (degree, swept, dense)


def _copied_root(centers, radii, moving):
    centers[1] = centers[0]


def _touching_radius(centers, radii, moving):
    # widen disk 5 until its edge reaches the nearest other disk's edge
    others = np.arange(centers.size) != 5
    radii[5] = np.min(np.abs(centers[others] - centers[5]) - radii[others])


def _pair_on_the_real_axis(centers, radii, moving):
    centers[0] = centers[moving] = centers[0].real


def _infinite_radius(centers, radii, moving):
    radii[3] = np.inf


@pytest.mark.parametrize("degree", [64, 65, 512])
@pytest.mark.parametrize(
    "defect", [_copied_root, _touching_radius, _pair_on_the_real_axis, _infinite_radius]
)
def test_swept_disk_check_catches_planted_overlaps(monkeypatch, degree, defect):
    """Planted overlaps among the finder's disks: the sweep and the dense oracle give the
    same verdict and, where disks overlap, the same smallest gap."""
    centers, radii = (a.copy() for a in _finder_disks(monkeypatch, [degree])[0])
    # layout: the degree // 2 moving iterates (the upper ones, then the real one when
    # degree - 1 is odd), the conjugates of the upper ones, then 0
    moving = degree // 2
    assert np.array_equal(centers[moving:-1], centers[: (degree - 1) // 2].conj())
    defect(centers, radii, moving)
    swept, dense = auxfun._disk_gap(centers, radii), dense_disk_gap(centers, radii)
    assert dense <= 4.0 * sys.float_info.epsilon
    assert (swept > 0) == (dense > 0)
    if dense <= 0:
        assert swept == dense


def test_two_iterates_started_at_one_point_fail_the_disk_check(monkeypatch):
    """Aberth's step pushed iterates apart; Halley's does not, so two iterates started at
    one point converge to one root, and the disk check must refuse the set."""
    start = auxfun._asymptotic_start

    def collide(degree, inner, outer):
        z = start(degree, inner, outer)
        z[1] = z[0]
        return z

    monkeypatch.setattr(auxfun, "_asymptotic_start", collide)
    with pytest.raises(ZeroFindingError) as excinfo:
        sqrt_series_zeros(64)
    diagnostics = excinfo.value.diagnostics
    assert diagnostics["disk_gap"] <= 0
    assert diagnostics["unconverged"] == 0 and diagnostics["residual"] <= diagnostics["bound"]


@pytest.mark.parametrize("degree", sorted({*range(1, 513, 32), 2, 255, 256, 511, 512}))
def test_zeros_match_the_companion_oracle(degree):
    roots = sqrt_series_zeros(degree).roots
    oracle = companion_roots(degree)
    distance = np.abs(roots[:, None] - oracle[None, :])
    assert np.max(np.min(distance, axis=1)) <= 1e-13
    assert np.max(np.min(distance, axis=0)) <= 1e-13
    # one to one: no oracle root is the nearest of two roots
    assert np.array_equal(np.sort(np.argmin(distance, axis=1)), np.arange(degree))


def test_zeros_report_a_failed_iteration(monkeypatch):
    monkeypatch.setattr(auxfun, "_SWEEPS", 1)
    with pytest.raises(ZeroFindingError) as excinfo:
        sqrt_series_zeros(64)
    diagnostics = excinfo.value.diagnostics
    assert diagnostics["degree"] == 64 and diagnostics["sweeps"] == 1
    assert 0 < diagnostics["unconverged"] <= 32
    assert diagnostics["worst_step"] > 0
    assert {"disk_gap", "residual", "bound"} <= diagnostics.keys()


def test_zeros_certified_within_three_sweeps_at_every_accepted_degree(monkeypatch):
    """From the asymptotic start every degree up to 512, and the sample above, converges
    in 3 Halley sweeps; a start on the outer circle needs 5-32 and fails this."""
    monkeypatch.setattr(auxfun, "_SWEEPS", 3)
    for degree in _CHECKED_DEGREES:
        sqrt_series_zeros(degree)


def test_more_roots_hug_the_circle_as_degree_grows():
    near_16 = int(round(sqrt_series_zeros(16).near_circle_fraction() * 16))
    near_64 = int(round(sqrt_series_zeros(64).near_circle_fraction() * 64))
    assert near_64 > near_16


def test_zero_degree_bounds():
    with pytest.raises(DimensionError):
        sqrt_series_zeros(0)
    with pytest.raises(DimensionError):
        sqrt_series_zeros(4097)


def test_zero_set_validation():
    with pytest.raises(DimensionError):
        ZeroSet(degree=3, roots=np.zeros(2, dtype=complex), residuals=np.zeros(3))
    with pytest.raises(DimensionError):
        ZeroSet(degree=2, roots=np.zeros(2, dtype=complex), residuals=np.zeros(3))
