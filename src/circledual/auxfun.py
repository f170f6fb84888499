"""The square-root power series family and its two-sheet geometry.

Everything here revolves around series with sqrt-of-index coefficients:

    sqrt_series(n, z)        S_n(z)   = sum_{k=1}^{n} sqrt(k) z^k      (polynomial)
    sqrt_series_disk(z)      S(z)     = sum_{n>=1}   sqrt(n) z^n,      |z| < 1
    li_three_halves(z)       F(z)     = sum_{n>=1} z^n / (n sqrt n),   |z| <= 1
    li_three_halves_circle   f(phi)   = F(e^{i phi})
    angle_kernel(phi)        g(phi)   = sum sqrt(n) e^{i n phi}        (Abel sense)
                                      = -f''(phi)

F = Li_{3/2} converges absolutely on the closed unit disk, so f is an honest
function of the angle; S = Li_{-1/2} diverges term-wise on the circle and g
is its Abel limit r -> 1- of S(r e^{i phi}), which exists for phi != 0 mod
2*pi.  The kernel g carries every circle-site matrix element of the
truncated oscillator operators.

F and S share two evaluation routes, chosen by |z| alone: the direct power
series for |z| <= 1/2, and beyond it the expansion about the branch point
z = 1 (DLMF 25.12.12; D. C. Wood, The Computation of Polylogarithms, 1992)

    Li_s(e^mu) = Gamma(1 - s) (-mu)^(s-1) + sum_{k>=0} zeta(s - k) mu^k / k!,

convergent for |mu| < 2*pi.  With mu = log z and 1/2 < |z| <= 1, |mu| stays
below 3.22, where 64 terms reach double precision.  Both orders
read one frozen table of zeta(3/2 - k): zeta(-1/2 - k) is its entry k + 2.
g is the same expansion at mu = i*phi; Hurwitz's formula (DLMF 25.13.2),
which shares no table and no series with it, checks every g at run time:
g = Gamma(3/2) (2 pi)^(-3/2) [e^{3 pi i/4} zeta(3/2, x) + e^{-3 pi i/4}
zeta(3/2, 1 - x)] for x = phi / (2 pi) in (0, 1).

The analytic continuation beyond the circle lives on a double cover joined
along the cut [1, inf).  The coordinate change

    y = 4 z / (1 + z)**2,    z = y / (1 + sqrt(1 - y))**2   (first sheet)

maps both sheets onto one y-plane; the second sheet is z -> 1/z, and the
series on it is the same sum in 1/z.  ``map_to_z`` uses the cancellation-
free algebraic form above rather than the textbook -1 + (2/y)(1 -+ sqrt)
variant, which loses precision for small |y|.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    NearSingularityError,
    PoleError,
    ZeroFindingError,
)

_TAU = 2.0 * math.pi

# Direct summation for |z| <= _DIRECT_RADIUS, the branch-point expansion
# beyond.  At this radius both converge like 2^-k: 64 direct terms leave a
# tail below 1e-18 for either series.
_DIRECT_RADIUS = 0.5
_DIRECT_TERMS = 64

# zeta(3/2 - k) for k = 0..65, correctly rounded (tests regenerate it from
# the functional equation).  zeta(-1/2 - k) is entry k + 2.
_ZETA = (
    2.612375348685488, -1.4603545088095868, -0.20788622497735457,
    -0.025485201889833036, 0.008516928777850331, 0.004441011335479432,
    -0.0030916692472158338, -0.0026714580198992244, 0.0027467679395368687,
    0.00326903957260022, -0.00441603287300489, -0.006672172296466641,
    0.011146122473942813, 0.02039697871594279, -0.04057496748119458,
    -0.08717525590621725, 0.2011740493842269, 0.4962712199120576,
    -1.303229250705114, -3.629759299774574, 10.687327069021993,
    33.168325785694606, -108.21747505877606, -370.3018783754786,
    1326.0458117490157, 4959.598315043044, -19338.94198837462,
    -78486.1485692177, 331023.6487454503, 1448811.3705827263,
    -6571686.491569958, -30854533.472396765, 149774871.27793476,
    750878449.993701, -3883945551.454817, -20707995961.81036,
    113704407197.95488, 642429955212.9208, -3731975458109.906,
    -22273587812036.406, 136480636625888.48, 858001934235335.9,
    -5530487585144642.0, -3.652848413068549e+16, 2.470817745547093e+17,
    1.7106064309209495e+18, -1.2115190377880257e+19, -8.773275579882408e+19,
    6.492842316752471e+20, 4.908497759780087e+21, -3.788876655878798e+22,
    -2.9849413203155725e+23, 2.3990942381357322e+24, 1.96641269075432e+25,
    -1.643062574433969e+26, -1.399033188337968e+27, 1.213513608731132e+28,
    1.0719086258305835e+29, -9.63887493342347e+29, -8.820928901118726e+30,
    8.212782458059954e+31, 7.777274302194957e+32, -7.488639476304185e+33,
    -7.329902036574517e+34, 7.291188384376156e+35, 7.36872206966174e+36,
)
# Terms of the branch-point sum: for |mu| <= 3.22 the k-th term shrinks
# like (|mu| / 2 pi)^k, below 1e-19 of the value by k = 64.
_EXPANSION_TERMS = 64
# Roundoff of the expansion, in units of the summed magnitudes: covers the
# Horner sum and the rounding of mu = log z (measured worst: 1.5 eps).
_ROUNDOFF = 4.0 * sys.float_info.epsilon

# Euler-Maclaurin for zeta(3/2, a): 16 direct terms, two endpoint terms and
# B_2j/(2j)!, j = 1..8 (tests regenerate them); the next term is < 3e-22 of it.
_HURWITZ_DIRECT = 16
_BERNOULLI_RATIOS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13,
)
_HURWITZ_TERMS = 2 * (_HURWITZ_DIRECT + 2 + len(_BERNOULLI_RATIOS))  # two zetas
# The two routes of g together err by at most about 50 eps |g|; demand 1e-12 |g|.
_KERNEL_AGREEMENT = 1e-12

# Kernel evaluation rejects angles within this distance of 0 mod 2*pi.
KERNEL_GUARD = 1e-3


class SeriesResult(NamedTuple):
    """Value of a series evaluation with an absolute error estimate."""

    value: complex
    error: float
    terms: int


# --------------------------------------------------------------------------
# finite partial sums


def sqrt_series(n: int, z: complex) -> complex:
    """Partial sum S_n(z) = sum_{k=1..n} sqrt(k) z^k by Horner evaluation."""
    if n < 0:
        raise DimensionError(f"order must be >= 0, got {n}")
    acc = 0j
    z = complex(z)
    for k in range(n, 0, -1):
        acc = acc * z + math.sqrt(k)
    return acc * z


def _sqrt_poly_coeffs(n: int) -> np.ndarray:
    """Coefficients of S_n, highest power first (constant term 0)."""
    c = np.sqrt(np.arange(n, 0, -1, dtype=np.float64))
    return np.concatenate([c, [0.0]])


def _polyval(coeffs_high_first: np.ndarray, pts: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(pts, dtype=np.complex128)
    for c in coeffs_high_first:
        acc = acc * pts + c
    return acc


# --------------------------------------------------------------------------
# the two routes for Li_{3/2} = F and Li_{-1/2} = S


def _direct_series(z: complex, power: float) -> SeriesResult:
    """sum_{n>=1} n^power z^n for |z| <= _DIRECT_RADIUS."""
    if z == 0:
        return SeriesResult(0j, 0.0, 0)
    n = np.arange(1, _DIRECT_TERMS + 1, dtype=np.float64)
    total = complex(np.sum(n**power * np.exp(n * cmath.log(z))))
    # n^power r^n falls by at least the ratio q beyond n = m
    m, r = _DIRECT_TERMS, abs(z)
    q = r * max(1.0, ((m + 2.0) / (m + 1.0)) ** power)
    tail = (m + 1.0) ** power * r ** (m + 1) / (1.0 - q)
    return SeriesResult(total, tail + 1e-15, _DIRECT_TERMS)


def _branch_point_series(mu: complex, shift: int) -> SeriesResult:
    """Li_s(e^mu) for s = 3/2 - shift (shift 0 or 2), Re mu <= 0, |mu| <= 3.22.

    The singular term Gamma(1 - s) (-mu)^(s-1) is Gamma(shift - 1/2)
    sqrt(-mu) / mu^shift; the regular sum runs by Horner's rule, next to a
    Horner sum of the term magnitudes that scales the roundoff estimate.
    """
    singular = math.gamma(shift - 0.5) * cmath.sqrt(-mu) / mu**shift
    total = 0j
    scale = 0.0
    radius = abs(mu)
    for k in range(_EXPANSION_TERMS - 1, 0, -1):
        total = (total + _ZETA[k + shift]) * mu / k
        scale = (scale + abs(_ZETA[k + shift])) * radius / k
    value = singular + total + _ZETA[shift]
    error = _ROUNDOFF * (abs(singular) + scale + abs(_ZETA[shift]))
    return SeriesResult(value, error, _EXPANSION_TERMS)


# --------------------------------------------------------------------------
# F = Li_{3/2} on the closed disk, f on the circle


def li_three_halves(z: complex) -> SeriesResult:
    """F(z) = sum z^n / (n sqrt n) on the closed unit disk.

    Direct summation for |z| <= 1/2, the branch-point expansion beyond it,
    up to and including z = 1 (F(1) = zeta(3/2)).  Both reach double
    precision; the error field is a truncation bound plus a roundoff floor
    proportional to the magnitudes summed.  Raises DomainError outside the
    closed disk.
    """
    z = complex(z)
    magnitude = abs(z)
    if magnitude > 1.0 + 1e-12:
        raise DomainError(f"|z| = {magnitude:.6g} > 1; use the second-sheet form")
    if magnitude <= _DIRECT_RADIUS:
        return _direct_series(z, -1.5)
    mu = cmath.log(z)
    # the tolerance above admits points just outside the circle: take them onto it
    return _branch_point_series(complex(min(mu.real, 0.0), mu.imag), 0)


def reduce_angle(phi: float) -> float:
    """Canonical representative of phi in (-pi, pi]."""
    r = math.remainder(phi, _TAU)
    return math.pi if r == -math.pi else r


def li_three_halves_circle(phi: float) -> SeriesResult:
    """f(phi) = F(e^{i phi}), the branch-point expansion at mu = i phi.

    Real coefficients give f(-phi) = conj(f(phi)) exactly.
    """
    return _branch_point_series(complex(0.0, reduce_angle(phi)), 0)


def li_three_halves_sheet2(z: complex) -> SeriesResult:
    """Second-sheet continuation of F: the same series in 1/z, |z| > 1."""
    z = complex(z)
    if abs(z) <= 1.0:
        raise DomainError(f"second sheet needs |z| > 1, got |z| = {abs(z):.6g}")
    return li_three_halves(1.0 / z)


# --------------------------------------------------------------------------
# the full sqrt series: disk, second sheet, and the circle kernel


def sqrt_series_disk(z: complex) -> SeriesResult:
    """S(z) = sum sqrt(n) z^n for |z| < 1, by the routes of ``li_three_halves``."""
    z = complex(z)
    magnitude = abs(z)
    if magnitude >= 1.0:
        raise DomainError(f"series converges only for |z| < 1, got {magnitude:.6g}")
    if magnitude <= _DIRECT_RADIUS:
        return _direct_series(z, 0.5)
    return _branch_point_series(cmath.log(z), 2)


def sqrt_series_sheet2(z: complex) -> SeriesResult:
    """Second-sheet value sum sqrt(n) z^{-n}, convergent for |z| > 1."""
    z = complex(z)
    if abs(z) <= 1.0:
        raise DomainError(f"second sheet needs |z| > 1, got |z| = {abs(z):.6g}")
    return sqrt_series_disk(1.0 / z)


def _hurwitz_zeta_three_halves(a: float) -> float:
    """zeta(3/2, a) = sum_{n>=0} (n + a)^(-3/2) for 0 < a < 1, by Euler-Maclaurin."""
    total = sum((n + a) ** -1.5 for n in range(_HURWITZ_DIRECT - 1, -1, -1))
    m = _HURWITZ_DIRECT + a
    total += 2.0 / math.sqrt(m) + 0.5 * m**-1.5
    # the j-th correction is B_2j/(2j)! (3/2)(5/2)...(2j - 1/2) m^(-1/2 - 2j)
    rising, power = 1.5, m**-2.5
    for j, ratio in enumerate(_BERNOULLI_RATIOS, start=1):
        total += ratio * rising * power
        rising *= (2 * j + 0.5) * (2 * j + 1.5)
        power /= m * m
    return total


def _kernel_hurwitz(phi: float) -> complex:
    """g(phi) by Hurwitz's formula, for a reduced angle phi != 0.

    The phases and Gamma(3/2)/(2 pi)^(3/2) combine to (-(A + B) + i (A - B))
    / (8 pi), A = zeta(3/2, x), B = zeta(3/2, 1 - x), both taken from phi
    directly; negating phi swaps A and B, so g(-phi) = conj(g(phi)) exactly.
    """
    if phi > 0.0:
        x, rest = phi / _TAU, (_TAU - phi) / _TAU
    else:
        x, rest = (_TAU + phi) / _TAU, -phi / _TAU
    a = _hurwitz_zeta_three_halves(x)
    b = _hurwitz_zeta_three_halves(rest)
    return complex(-(a + b), a - b) / (8.0 * math.pi)


def _check_kernel_angle(phi: float) -> float:
    phi = reduce_angle(phi)
    if abs(phi) < KERNEL_GUARD:
        raise NearSingularityError(
            f"kernel diverges at phi = 0 mod 2*pi; |phi| = {abs(phi):.3g} < {KERNEL_GUARD}"
        )
    return phi


def angle_kernel(phi: float) -> SeriesResult:
    """g(phi) by the branch-point expansion, cross-checked by Hurwitz's formula.

    Returns the expansion value; the error field is the larger of its own
    estimate and the observed disagreement with the Hurwitz route.
    Raises NearSingularityError within KERNEL_GUARD of 0 mod 2*pi and
    ConvergenceError if the routes differ by more than 1e-12 |g|.
    """
    phi = _check_kernel_angle(phi)
    primary = _branch_point_series(complex(0.0, phi), 2)
    disagreement = abs(primary.value - _kernel_hurwitz(phi))
    tolerance = _KERNEL_AGREEMENT * abs(primary.value)
    terms = primary.terms + _HURWITZ_TERMS
    if disagreement > tolerance:
        raise ConvergenceError(
            f"kernel routes disagree by {disagreement:.3e} > {tolerance:.3e} at phi = {phi}",
            best_estimate=primary.value,
            error_estimate=disagreement,
            terms=terms,
        )
    return SeriesResult(primary.value, max(primary.error, disagreement), terms)


# --------------------------------------------------------------------------
# two-sheet coordinate change


def map_to_y(z: complex) -> complex:
    """y = 4 z / (1 + z)**2; undefined at the pole z = -1."""
    z = complex(z)
    if z == -1.0:
        raise PoleError("map has a pole at z = -1")
    return 4.0 * z / (1.0 + z) ** 2


def map_to_z(y: complex, sheet: int = 1) -> complex:
    """Invert y = 4 z / (1 + z)**2 onto the requested sheet.

    The stable algebraic forms are z = y / (1 + w)**2 on sheet 1 and
    z = (1 + w)**2 / y on sheet 2, with w the principal sqrt(1 - y); the
    two are exact reciprocals.  The principal branch puts the cut on real
    y > 1: approach it with an explicit +-0j imaginary part to choose a
    side.  y = 0 maps to z = 0 on sheet 1 and to infinity on sheet 2.
    """
    if sheet not in (1, 2):
        raise DomainError(f"sheet must be 1 or 2, got {sheet}")
    y = complex(y)
    if y == 0:
        if sheet == 1:
            return 0j
        raise PoleError("sheet-2 image of y = 0 is the point at infinity")
    # build 1 - y preserving the sign of -y.imag so +-0j selects the cut side
    one_minus = complex(1.0 - y.real, -y.imag)
    w = cmath.sqrt(one_minus)
    if sheet == 1:
        return y / (1.0 + w) ** 2
    z = (1.0 + w) ** 2 / y
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PoleError(f"sheet-2 image of y = {y!r} overflows double range")
    return z


# --------------------------------------------------------------------------
# zeros of the partial sums


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """All complex roots of sqrt_series(degree, .), sorted by argument,
    with the per-root residuals |S_degree(root)|."""

    degree: int
    roots: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        for name, dtype in (("roots", np.complex128), ("residuals", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype, copy=True)
            if arr.ndim != 1 or arr.size != self.degree:
                raise DimensionError(
                    f"need exactly {self.degree} {name}, got shape {arr.shape}"
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def residual(self) -> float:
        """The worst per-root residual."""
        return float(np.max(self.residuals))

    def near_circle_fraction(self, band: float = 0.1) -> float:
        """Fraction of roots with ||z| - 1| < band."""
        return float(np.mean(np.abs(np.abs(self.roots) - 1.0) < band))


MAX_ZERO_DEGREE = 512


def sqrt_series_zeros(degree: int) -> ZeroSet:
    """Roots of S_degree via companion-matrix eigenvalues plus one Newton step.

    The constant term vanishes, so z = 0 is always among the roots.  The
    residual max |S_degree(root)| must stay below 1e-8 * max coefficient.
    """
    if not 1 <= degree <= MAX_ZERO_DEGREE:
        raise DimensionError(f"degree must be in 1..{MAX_ZERO_DEGREE}, got {degree}")
    coeffs = _sqrt_poly_coeffs(degree)
    try:
        roots = np.roots(coeffs)
    except np.linalg.LinAlgError as exc:
        raise ZeroFindingError(
            f"companion eigenvalue solver failed for degree {degree}",
            diagnostics={"degree": degree, "lapack_error": str(exc)},
        ) from exc
    if roots.size != degree:
        raise ZeroFindingError(
            f"expected {degree} eigenvalues, got {roots.size}",
            diagnostics={"degree": degree, "count": int(roots.size)},
        )
    roots = roots.astype(np.complex128)
    deriv = coeffs[:-1] * np.arange(degree, 0, -1)
    values = _polyval(coeffs, roots)
    slopes = _polyval(deriv, roots)
    safe = slopes != 0
    roots[safe] -= values[safe] / slopes[safe]

    order = np.lexsort((np.abs(roots), np.angle(roots)))
    roots = roots[order]
    zero_set = ZeroSet(degree=degree, roots=roots, residuals=np.abs(_polyval(coeffs, roots)))
    bound = 1e-8 * float(np.max(np.abs(coeffs)))
    if zero_set.residual > bound:
        raise ZeroFindingError(
            f"post-polish residual {zero_set.residual:.3e} exceeds bound {bound:.3e}",
            diagnostics={"degree": degree, "residual": zero_set.residual, "bound": bound},
        )
    return zero_set
