import cmath
import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from circledual import (
    ConvergenceError,
    DomainError,
    KERNEL_GUARD,
    NearSingularityError,
    angle_kernel,
    li_three_halves,
    li_three_halves_circle,
    li_three_halves_sheet2,
    reduce_angle,
    sqrt_series,
    sqrt_series_disk,
    sqrt_series_sheet2,
)
from circledual import auxfun
from circledual.cli import main

# ---------------------------------------------------------------------------
# independent oracles


def zeta_three_halves_oracle(terms=10_000_000):
    """Partial sum plus power-tail corrections; good to ~1e-14."""
    n = np.arange(1, terms + 1, dtype=np.float64)
    partial = float(np.sum(n**-1.5))
    a = float(terms + 1)
    tail = 2.0 * a**-0.5 + 0.5 * a**-1.5 + 0.125 * a**-2.5 - (105.0 / 5760.0) * a**-4.5
    return partial + tail


def alternating_oracle_f_minus_one(terms=400_000):
    """Alternating partial sums bracket the limit; midpoint plus bound."""
    n = np.arange(1, terms + 1, dtype=np.float64)
    s_even = float(np.sum((-1.0) ** n * n**-1.5))
    s_odd = s_even + (-1.0) ** (terms + 1) * (terms + 1.0) ** -1.5
    return 0.5 * (s_even + s_odd), 0.5 * abs(s_odd - s_even)


def euler_transform_alternating(terms):
    """sum_{k>=0} (-1)^k a_k via the Euler transformation (difference table)."""
    diffs = list(map(float, terms))
    total, sign = 0.0, 1.0
    for m in range(len(diffs) - 1):
        contribution = sign * diffs[0] / 2.0 ** (m + 1)
        total += contribution
        if m > 8 and abs(contribution) < 1e-18:
            break
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        sign = -sign
    return total


# frozen from the oracles above (see test_frozen_constants_match_oracles)
ZETA_3_2 = 2.6123753486854883
F_MINUS_ONE = -0.7651470246254038
KERNEL_AT_PI = -0.380104812609683


def test_frozen_constants_match_oracles():
    assert abs(zeta_three_halves_oracle() - ZETA_3_2) < 5e-14
    mid, half_width = alternating_oracle_f_minus_one()
    assert abs(mid - F_MINUS_ONE) < 5e-9 + half_width
    g_pi = -euler_transform_alternating([math.sqrt(k + 1.0) for k in range(200)])
    assert abs(g_pi - KERNEL_AT_PI) < 1e-12


# ---------------------------------------------------------------------------
# partial sums


def test_partial_sum_single_term():
    z = 0.3 + 0.4j
    assert sqrt_series(1, z) == z


def test_partial_sum_no_constant_term():
    for n in (1, 5, 40):
        assert sqrt_series(n, 0.0) == 0.0


def test_partial_sum_at_one():
    assert abs(sqrt_series(2, 1.0) - (1.0 + math.sqrt(2.0))) < 1e-15


def test_partial_sum_matches_naive_summation():
    z = 0.7 * cmath.exp(0.9j)
    naive = sum(math.sqrt(k) * z**k for k in range(1, 31))
    assert abs(sqrt_series(30, z) - naive) < 1e-13


# ---------------------------------------------------------------------------
# F on the closed disk


def test_f_at_zero():
    res = li_three_halves(0.0)
    assert res.value == 0.0 and res.error == 0.0


def test_f_at_one_matches_zeta_oracle():
    res = li_three_halves(1.0)
    assert res.value.imag == 0.0
    assert abs(res.value.real - ZETA_3_2) < 1e-8
    # the closed-disk tolerance takes points just outside onto the circle
    assert li_three_halves(1.0 + 1e-13).value == res.value


def test_f_at_minus_one_matches_alternating_oracle():
    res = li_three_halves(-1.0)
    assert abs(res.value - F_MINUS_ONE) < 1e-8
    assert abs(res.value.imag) < 1e-15


def test_f_interior_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(12):
        z = (0.45 * math.sqrt(rng.uniform())) * cmath.exp(2j * math.pi * rng.uniform())
        brute = sum(z**n / (n * math.sqrt(n)) for n in range(1, 140))
        res = li_three_halves(z)
        assert abs(res.value - brute) < 1e-13


def test_f_domain_and_convergence_errors():
    with pytest.raises(DomainError):
        li_three_halves(1.2 + 0.1j)


def test_f_error_estimate_is_honest_on_circle():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for phi in (0.3, 1.1, 2.9):
            res = li_three_halves_circle(phi)
            exact = complex(mpmath.polylog(1.5, mpmath.expj(phi)))
            assert abs(res.value - exact) <= res.error


# ---------------------------------------------------------------------------
# f on the circle


def test_f_circle_at_zero_is_real_zeta():
    res = li_three_halves_circle(0.0)
    assert res.value.imag == 0.0
    assert abs(res.value.real - ZETA_3_2) < 1e-8


def test_f_circle_imaginary_part_vanishes_at_pi():
    res = li_three_halves_circle(math.pi)
    assert abs(res.value.imag) < 1e-8
    assert abs(res.value.real - F_MINUS_ONE) < 1e-8


def test_f_circle_conjugate_symmetry():
    for phi in (1.0, 0.2, 2.7, 3.0):
        plus = li_three_halves_circle(phi)
        minus = li_three_halves_circle(-phi)
        assert abs(minus.value - plus.value.conjugate()) <= 2 * (plus.error + minus.error) + 1e-14


def test_angle_reduction():
    assert reduce_angle(0.5 + 4 * math.pi) == pytest.approx(0.5, abs=1e-12)
    assert reduce_angle(math.pi) == math.pi
    assert reduce_angle(3 * math.pi) == math.pi
    assert reduce_angle(-0.1) == pytest.approx(-0.1, abs=0)


def test_second_sheet_of_f_flips_imaginary_part():
    """Continuing f beyond the circle conjugates it: the Im part is antiperiodic."""
    for phi in (0.8, 2.0, -1.3):
        inside = li_three_halves_circle(phi).value
        outside = li_three_halves_sheet2((1.0 + 1e-8) * cmath.exp(1j * phi)).value
        assert abs(outside.real - inside.real) < 1e-6
        assert abs(outside.imag + inside.imag) < 1e-6


def test_derivative_chain_term_by_term():
    """(z d/dz)^2 turns each F-series term z^n/(n sqrt n) into sqrt(n) z^n."""
    n_trunc = 200
    rng = np.random.default_rng(5)
    orders = np.arange(1, n_trunc + 1, dtype=np.float64)
    for _ in range(8):
        z = 0.9 * cmath.exp(2j * math.pi * rng.uniform())
        powers = z ** orders
        differentiated = np.sum(orders**2 * (powers / orders**1.5))
        assert abs(differentiated - sqrt_series(n_trunc, z)) < 1e-12


def test_derivative_chain_spectral():
    """Independent confirmation: angular FFT differentiation of the truncated
    F-series reproduces the sqrt series (k^2 mode amplification limits the
    achievable precision to ~1e-10)."""
    n_trunc = 200
    radius = 0.9
    grid = 512
    theta = 2.0 * np.pi * np.arange(grid) / grid
    z = radius * np.exp(1j * theta)
    orders = np.arange(1, n_trunc + 1, dtype=np.float64)
    f_vals = (z[:, None] ** orders / orders**1.5).sum(axis=1)
    modes = np.fft.fft(f_vals)
    wavenumber = np.fft.fftfreq(grid, d=1.0 / grid)
    second = np.fft.ifft(modes * wavenumber**2)  # -(d/dtheta)^2
    expected = np.array([sqrt_series(n_trunc, zz) for zz in z])
    assert np.max(np.abs(second - expected)) < 1e-9


# ---------------------------------------------------------------------------
# the kernel g


def test_kernel_at_pi_matches_euler_oracle():
    res = angle_kernel(math.pi)
    assert abs(res.value.real - KERNEL_AT_PI) < 1e-8
    assert abs(res.value.imag) < 1e-8


def test_kernel_conjugate_symmetry():
    plus = angle_kernel(2.0)
    minus = angle_kernel(-2.0)
    assert abs(minus.value - plus.value.conjugate()) < 1e-9
    # negating the angle swaps the two Hurwitz zetas: exact conjugates
    assert auxfun._kernel_hurwitz(-2.0) == auxfun._kernel_hurwitz(2.0).conjugate()


def test_kernel_routes_agree():
    for phi in (0.12, 0.5, 1.0, 2.2, 3.1, -0.7):
        expansion = angle_kernel(phi)
        hurwitz = auxfun._kernel_hurwitz(phi)
        assert abs(expansion.value - hurwitz) <= 1e-12 * abs(expansion.value)


def test_kernel_crosscheck_wrapped_in_result():
    res = angle_kernel(1.5)
    assert res.error < max(1e-6, 1e-4 * abs(res.value))


def test_kernel_near_singularity_guard():
    with pytest.raises(NearSingularityError):
        angle_kernel(5e-4)
    with pytest.raises(NearSingularityError):
        angle_kernel(2 * math.pi - 1e-4)
    with pytest.raises(NearSingularityError):
        angle_kernel(0.0)


def test_kernel_route_disagreement_raises(monkeypatch, tmp_path, capsys):
    """A check off by 1e-9 relative breaks the 1e-12 |g| agreement bound."""
    exact = auxfun._hurwitz_zeta_three_halves
    monkeypatch.setattr(auxfun, "_hurwitz_zeta_three_halves", lambda a: exact(a) * (1.0 + 1e-9))
    expansion = auxfun._branch_point_series(2j, 2).value
    with pytest.raises(ConvergenceError) as info:
        angle_kernel(2.0)
    assert info.value.best_estimate == expansion
    assert info.value.error_estimate == pytest.approx(1e-9 * abs(expansion), rel=1e-4)
    # 64 expansion terms; per Hurwitz zeta 16 direct, 2 endpoint, 8 corrections
    assert info.value.terms == 64 + 2 * (16 + 2 + 8)

    capsys.readouterr()
    argv = ["auxfun-eval", "--function", "g", "--phi", "2.0", "--out", str(tmp_path / "g.csv")]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "ConvergenceError"
    assert report["best_estimate"] == [expansion.real, expansion.imag]
    assert report["error_estimate"] == info.value.error_estimate
    assert report["terms"] == info.value.terms


def test_kernel_small_angle_region_still_cross_checks():
    # below the acceptance band but above the guard radius
    for phi in (0.004, 0.02):
        res = angle_kernel(phi)
        assert abs(res.value) > 100.0  # ~ phi^{-3/2} growth


def test_finite_truncation_drift_shrinks():
    """Scaled partial sums at phi = pi drift less per doubling as N grows."""
    z = complex(math.cos(math.pi), math.sin(math.pi))
    scaled = {n: sqrt_series(n - 1, z) / n for n in (512, 1024, 2048, 4096)}
    early = abs(scaled[1024] - scaled[512])
    late = abs(scaled[4096] - scaled[2048])
    assert late < early


def test_reality_of_disk_series():
    rng = np.random.default_rng(11)
    for _ in range(100):
        z = 0.97 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        direct = sqrt_series_disk(z).value
        mirrored = sqrt_series_disk(z.conjugate()).value
        assert abs(direct.conjugate() - mirrored) <= 1e-12


# ---------------------------------------------------------------------------
# the branch-point expansion: its zeta table and an mpmath oracle sweep

PI_40 = "3.141592653589793238462643383279502884197"


def bernoulli_even(count):
    """B_2, B_4, ..., B_{2 count}, exactly, from sum_j C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b[2::2]


def zeta_euler_maclaurin(s, cut=16, order=10):
    """zeta(s) for real s > 0, s != 1, in the current decimal context."""
    total = sum(Decimal(n) ** -s for n in range(1, cut))
    total += Decimal(cut) ** (1 - s) / (s - 1) + Decimal(cut) ** -s / 2
    rising, power = s, Decimal(cut) ** (-s - 1)
    for j, b in enumerate(bernoulli_even(order), start=1):
        total += Decimal(b.numerator) / Decimal(b.denominator * math.factorial(2 * j)) * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= cut * cut
    return total


def test_zeta_table_regenerates_from_functional_equation():
    """zeta(3/2 - k) = sign_k 2^(1-k) (2k-2)! / (4^(k-1) (k-1)!) pi^(1-k) zeta(k - 1/2)

    for k >= 1, the functional equation at half-integers (sign_k = +, +, -, -
    with period 4), with the positive-argument zeta by Euler-Maclaurin."""
    with localcontext() as ctx:
        ctx.prec = 40
        pi = Decimal(PI_40)
        half = Decimal(1) / 2
        for k, frozen in enumerate(auxfun._ZETA):
            if k == 0:
                value = zeta_euler_maclaurin(3 * half)
            else:
                sign = 1 if k % 4 in (0, 1) else -1
                ratio = Fraction(math.factorial(2 * k - 2), 2 ** (k - 1) * 4 ** (k - 1) * math.factorial(k - 1))
                value = (
                    sign * Decimal(ratio.numerator) / Decimal(ratio.denominator)
                    * pi ** (1 - k) * zeta_euler_maclaurin(k - half)
                )
            assert abs(frozen - float(value)) <= 1e-15 * abs(frozen), k


def test_hurwitz_corrections_regenerate_from_fractions():
    """The frozen Euler-Maclaurin constants are B_2j / (2j)!, j = 1..8."""
    exact = [b / math.factorial(2 * j) for j, b in enumerate(bernoulli_even(8), start=1)]
    assert auxfun._BERNOULLI_RATIOS == tuple(float(c) for c in exact)


def test_hurwitz_route_matches_mpmath():
    """405 angles: both signs over the accepted range, and its edges."""
    mpmath = pytest.importorskip("mpmath")
    grid = np.linspace(KERNEL_GUARD, math.pi, 200)
    edges = [KERNEL_GUARD, -KERNEL_GUARD, math.pi, -math.pi, 2 * math.pi - KERNEL_GUARD]
    with mpmath.workdps(30):
        for phi in [*grid, *-grid, *edges]:
            phi = reduce_angle(float(phi))
            exact = complex(mpmath.polylog(-0.5, mpmath.expj(phi)))
            gap = abs(auxfun._kernel_hurwitz(phi) - exact)
            assert gap <= 1e-14 * abs(exact), (phi, gap)


def _disk_points():
    """|z| = R +- 0.01 and 1 - |z| down to 1e-6, at two arguments each."""
    radius = auxfun._DIRECT_RADIUS
    moduli = [radius - 0.01, radius + 0.01] + [1.0 - gap for gap in (0.03, 0.01, 1e-3, 1e-4, 1e-6)]
    return [m * cmath.exp(1j * theta) for m in moduli for theta in (0.0, 2.2)]


CIRCLE_ANGLES = (0.0, 0.01, 0.7, -2.0, 2.9, math.pi)
# the three special-workload probes of the benchmark
PROBES = (
    ("G", complex(-0.5975203825340357, -0.7893474472349801)),
    ("G", complex(-0.999, 0.0)),
    ("G2", complex(1.0001, 0.0)),
)


def _oracle_cases():
    for z in _disk_points():
        yield "F", z, 1.5
        yield "G", z, -0.5
        yield "F2", 1.0 / z, 1.5
        yield "G2", 1.0 / z, -0.5
    for phi in CIRCLE_ANGLES:
        yield "F", cmath.exp(1j * phi), 1.5
        yield "f", phi, 1.5
        if phi != 0.0:
            yield "g", phi, -0.5
    for name, z in PROBES:
        yield name, z, -0.5


def test_expansion_matches_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    evaluate = {
        "F": li_three_halves,
        "G": sqrt_series_disk,
        "F2": li_three_halves_sheet2,
        "G2": sqrt_series_sheet2,
        "f": li_three_halves_circle,
        "g": angle_kernel,
    }
    with mpmath.workdps(30):
        for name, arg, order in _oracle_cases():
            if name in ("f", "g"):
                point = mpmath.expj(arg)
            else:
                # the evaluator's own double 1/z on the second sheet
                z = 1.0 / arg if name.endswith("2") else arg
                point = mpmath.mpc(z.real, z.imag)
            exact = complex(mpmath.polylog(order, point))
            res = evaluate[name](arg)
            gap = abs(res.value - exact)
            assert gap <= res.error, (name, arg, gap, res.error)
            if 8 * sys.float_info.epsilon * abs(exact) <= 1e-12:
                assert gap <= 1e-12, (name, arg, gap)
