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

Every evaluator takes one point (an angle for f and g) or an array of
points of any shape, and returns per-point values and error estimates in
that shape; one point is a batch of one on the same numpy route and comes
back as numpy scalars, so its bits do not depend on its batch.  The series
are row sums over power tables built ``_BLOCK`` points at a time.  A point
outside a domain raises the usual error naming its index in the flattened
batch.

The analytic continuation beyond the circle lives on a double cover joined
along the cut [1, inf).  The coordinate change

    y = 4 z / (1 + z)**2,    z = y / (1 + sqrt(1 - y))**2   (first sheet)

maps both sheets onto one y-plane; the second sheet is z -> 1/z, and the
series on it is the same sum in 1/z.  Only the forward map ``map_to_y``
is library code; the tests invert it with the cancellation-free algebraic
form above (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
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
from .hilbert import check_dense_size

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
# its coefficients zeta(3/2 - shift - k) / k!, k = 0..63, for shift 0 (F) and 2 (S)
_EXPANSION_COEFFS = {
    shift: np.array([_ZETA[k + shift] / math.factorial(k) for k in range(_EXPANSION_TERMS)])
    for shift in (0, 2)
}
# Roundoff of the expansion, in units of the summed magnitudes: covers the
# rounding of mu = log z, of the power table and the coefficients, and of
# the products and their pairwise row sum (measured worst: 2.0 eps).
_ROUNDOFF = 4.0 * sys.float_info.epsilon
# Points per block of the tabulated series: a block's power tables take
# about 1 MiB at any batch size.
_BLOCK = 1024

# Euler-Maclaurin for zeta(3/2, a): 16 direct terms, two endpoint terms and
# B_2j/(2j)!, j = 1..8 (tests regenerate them); the next term is < 3e-22 of it.
_HURWITZ_DIRECT = 16
_BERNOULLI_RATIOS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13,
)
_HURWITZ_TERMS = 2 * (_HURWITZ_DIRECT + 2 + len(_BERNOULLI_RATIOS))  # two zetas
# the j-th correction is B_2j/(2j)! (3/2)(5/2)...(2j - 1/2) m^(-1/2 - 2j)
_EULER_MACLAURIN = np.array(_BERNOULLI_RATIOS) * np.cumprod(
    [1.5] + [(2 * j + 0.5) * (2 * j + 1.5) for j in range(1, len(_BERNOULLI_RATIOS))]
)
# The two routes of g together err by at most about 50 eps |g|; demand 1e-12 |g|.
_KERNEL_AGREEMENT = 1e-12

# Kernel evaluation rejects angles within this distance of 0 mod 2*pi.
KERNEL_GUARD = 1e-3


class SeriesResult(NamedTuple):
    """Values and absolute error estimates in the shape of the input points
    (numpy scalars for one point), and the terms summed over all points."""

    value: np.ndarray
    error: np.ndarray
    terms: int


def _pointwise(dtype):
    """Let a function of a 1-d array of points, its last argument, take one
    point or an array of any shape: its per-point results (an array, or the
    value and error of a SeriesResult) come back in the input's shape, as
    numpy scalars for one point."""

    def decorate(fn):
        @functools.wraps(fn)
        def pointwise(*args):
            points = np.asarray(args[-1], dtype=dtype)
            out = fn(*args[:-1], points.reshape(-1))
            if isinstance(out, SeriesResult):
                value, error = (v.reshape(points.shape)[()] for v in out[:2])
                return SeriesResult(value, error, out.terms)
            return out.reshape(points.shape)[()]

        return pointwise

    return decorate


def _reject(bad: np.ndarray, error: type, message: str, values: np.ndarray) -> None:
    """Raise ``error`` for the first point where ``bad`` holds, naming its index."""
    if bad.any():
        i = int(np.argmax(bad))
        raise error(f"{message.format(values[i])} at index {i}")


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """Rows z^0 .. z^(count-1), one per point, by a cumulative product.

    The series below are sums over the rows of such a table, not Python
    loops over the coefficients; q, q' and q'' of the zero finder take a
    short one (``_quotient_values``).
    """
    powers = np.repeat(z[:, None], count, axis=1)
    powers[:, 0] = 1.0
    np.cumprod(powers[:, 1:], axis=1, out=powers[:, 1:])
    return powers


def _by_blocks(series, points: np.ndarray, *args) -> list[np.ndarray]:
    """The per-point outputs of ``series(block, *args)``, _BLOCK points at a
    time; no points make one empty block."""
    blocks = [series(points[i : i + _BLOCK], *args) for i in range(0, max(points.size, 1), _BLOCK)]
    return [np.concatenate(outputs) for outputs in zip(*blocks)]


# --------------------------------------------------------------------------
# finite partial sums


@_pointwise(np.complex128)
def sqrt_series(n: int, z: np.ndarray) -> SeriesResult:
    """Partial sum S_n(z) = sum_{k=1..n} sqrt(k) z^k, by Horner's rule at every point.

    The error field is Horner's running error bound (N. J. Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 5.1), which
    counts the rounding of each sqrt(k) as well.  Step k forms
    acc_k = fl(fl(acc_{k+1} z) + fl(sqrt k)): the complex product errs by at
    most sqrt(2) gamma_2 |acc_{k+1} z| < 1.42 eps |acc_{k+1} z|, the sum and
    the square root by eps/2 of |acc_k| and sqrt(k), and
    |acc_{k+1} z| <= (1 + eps/2) |acc_k| + sqrt(k), so step k adds at most
    2 eps (|acc_k| + sqrt(k)).  An error made at step k reaches S_n times
    z^k, and the last product acc_1 z adds 1.42 eps |acc_1 z|:

        |S_n - computed| <= 2 eps (sum_k |z|^k (|acc_k| + sqrt(k)) + |acc_1 z|).
    """
    if n < 0:
        raise DimensionError(f"order must be >= 0, got {n}")
    check_dense_size(n, z.size, "the partial sum")
    acc = np.zeros_like(z)
    r, bound = np.abs(z), np.zeros(z.size)
    # large |z| overflows to inf or nan; the writers reject such values
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n, 0, -1):
            root = math.sqrt(k)
            acc = acc * z + root
            # bound = sum_{j >= k} |z|^(j-k) (|acc_j| + sqrt(j))
            bound *= r
            bound += np.abs(acc)
            bound += root
        value = acc * z
        error = 2.0 * sys.float_info.epsilon * (r * bound + np.abs(value))
        return SeriesResult(value, error, n * z.size)


# --------------------------------------------------------------------------
# the two routes for Li_{3/2} = F and Li_{-1/2} = S


def _direct_series(z: np.ndarray, power: float) -> tuple[np.ndarray, np.ndarray]:
    """sum_{n>=1} n^power z^n for |z| <= _DIRECT_RADIUS, with its error bound."""
    terms = _powers(z, _DIRECT_TERMS + 1)[:, 1:] * np.arange(1.0, _DIRECT_TERMS + 1) ** power
    # n^power r^n falls by at least the ratio q beyond n = m
    m, r = _DIRECT_TERMS, np.abs(z)
    q = r * max(1.0, ((m + 2.0) / (m + 1.0)) ** power)
    tail = (m + 1.0) ** power * r ** (m + 1) / (1.0 - q)
    return terms.sum(axis=1), np.where(z == 0, 0.0, tail + 1e-15)


def _branch_point_series(mu: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Li_s(e^mu) for s = 3/2 - shift (shift 0 or 2), Re mu <= 0, |mu| <= 3.22.

    The singular term Gamma(1 - s) (-mu)^(s-1) is Gamma(shift - 1/2)
    sqrt(-mu) / mu^shift; the regular sum, zeta(s - k) mu^k / k! over
    k < 64, is a row sum of the power table, next to the row sum of the
    term magnitudes that scales the roundoff estimate.
    """
    value, singular, powers = _branch_point_value(mu, shift)
    scale = (np.abs(powers) * np.abs(_EXPANSION_COEFFS[shift])).sum(axis=1)
    return value, _ROUNDOFF * (np.abs(singular) + scale)


def _branch_point_value(mu: np.ndarray, shift: int) -> tuple[np.ndarray, ...]:
    """The value of ``_branch_point_series``, its singular term and its power table."""
    powers = _powers(mu, _EXPANSION_TERMS)
    singular = math.gamma(shift - 0.5) * np.sqrt(-mu) / powers[:, shift]
    return singular + (powers * _EXPANSION_COEFFS[shift]).sum(axis=1), singular, powers


def _disk_series(z: np.ndarray, power: float, shift: int) -> SeriesResult:
    """sum n^power z^n: direct for |z| <= 1/2, else expanded at mu = log z."""
    direct = np.abs(z) <= _DIRECT_RADIUS
    value, error = np.empty(z.size, dtype=np.complex128), np.empty(z.size)
    value[direct], error[direct] = _by_blocks(_direct_series, z[direct], power)
    mu = np.log(z[~direct])
    # the closed-disk tolerance of F admits points just outside the circle: take them onto it
    mu.real = np.minimum(mu.real, 0.0)
    value[~direct], error[~direct] = _by_blocks(_branch_point_series, mu, shift)
    terms = _DIRECT_TERMS * np.count_nonzero(z[direct]) + _EXPANSION_TERMS * mu.size
    return SeriesResult(value, error, int(terms))


# --------------------------------------------------------------------------
# F = Li_{3/2} on the closed disk, f on the circle


@_pointwise(np.complex128)
def li_three_halves(z: np.ndarray) -> SeriesResult:
    """F(z) = sum z^n / (n sqrt n) on the closed unit disk.

    Direct summation for |z| <= 1/2, the branch-point expansion beyond it,
    up to and including z = 1 (F(1) = zeta(3/2)).  Both reach double
    precision; the error field is a truncation bound plus a roundoff floor
    proportional to the magnitudes summed.  Raises DomainError outside the
    closed disk.
    """
    r = np.abs(z)
    _reject(r > 1.0 + 1e-12, DomainError, "|z| = {:.6g} > 1; use the second-sheet form", r)
    return _disk_series(z, -1.5, 0)


@_pointwise(np.float64)
def reduce_angle(phi: np.ndarray) -> np.ndarray:
    """Canonical representative of phi in (-pi, pi], phi - 2 pi n exactly.

    fmod is exact, and so is the shift by 2 pi of a remainder beyond pi
    (Sterbenz), so this is math.remainder(phi, 2 pi) with -pi taken to pi.
    """
    _reject(~np.isfinite(phi), DomainError, "angle must be finite, got {}", phi)
    r = np.fmod(phi, _TAU)
    r = np.where(r > math.pi, r - _TAU, r)
    return np.where(r <= -math.pi, r + _TAU, r)


@_pointwise(np.float64)
def li_three_halves_circle(phi: np.ndarray) -> SeriesResult:
    """f(phi) = F(e^{i phi}), the branch-point expansion at mu = i phi.

    Real coefficients give f(-phi) = conj(f(phi)) exactly.
    """
    value, error = _by_blocks(_branch_point_series, 1j * reduce_angle(phi), 0)
    return SeriesResult(value, error, _EXPANSION_TERMS * phi.size)


@_pointwise(np.complex128)
def li_three_halves_sheet2(z: np.ndarray) -> SeriesResult:
    """Second-sheet continuation of F: the same series in 1/z, |z| > 1."""
    r = np.abs(z)
    _reject(r <= 1.0, DomainError, "second sheet needs |z| > 1, got |z| = {:.6g}", r)
    return li_three_halves(1.0 / z)


# --------------------------------------------------------------------------
# the full sqrt series: disk, second sheet, and the circle kernel


@_pointwise(np.complex128)
def sqrt_series_disk(z: np.ndarray) -> SeriesResult:
    """S(z) = sum sqrt(n) z^n for |z| < 1, by the routes of ``li_three_halves``."""
    r = np.abs(z)
    _reject(r >= 1.0, DomainError, "series converges only for |z| < 1, got {:.6g}", r)
    return _disk_series(z, 0.5, 2)


@_pointwise(np.complex128)
def sqrt_series_sheet2(z: np.ndarray) -> SeriesResult:
    """Second-sheet value sum sqrt(n) z^{-n}, convergent for |z| > 1."""
    r = np.abs(z)
    _reject(r <= 1.0, DomainError, "second sheet needs |z| > 1, got |z| = {:.6g}", r)
    return sqrt_series_disk(1.0 / z)


def _hurwitz_zeta_three_halves(a: np.ndarray) -> np.ndarray:
    """zeta(3/2, a) = sum_{n>=0} (n + a)^(-3/2) for 0 < a < 1, by Euler-Maclaurin."""
    direct = ((np.arange(_HURWITZ_DIRECT) + a[:, None]) ** -1.5).sum(axis=1)
    m = _HURWITZ_DIRECT + a
    corrections = (_powers(m**-2.0, len(_EULER_MACLAURIN)) * _EULER_MACLAURIN).sum(axis=1)
    return direct + 2.0 / np.sqrt(m) + 0.5 * m**-1.5 + m**-2.5 * corrections


@_pointwise(np.float64)
def _kernel_hurwitz(phi: np.ndarray) -> np.ndarray:
    """g(phi) by Hurwitz's formula, for reduced angles phi != 0.

    The phases and Gamma(3/2)/(2 pi)^(3/2) combine to (-(A + B) + i (A - B))
    / (8 pi), A = zeta(3/2, x), B = zeta(3/2, 1 - x).  Both are taken from
    |phi| directly, and the sign of phi only orders them, so
    g(-phi) = conj(g(phi)) exactly.
    """
    s = np.abs(phi)
    near, far = _hurwitz_zeta_three_halves(np.concatenate([s, _TAU - s]) / _TAU).reshape(2, -1)
    return (1j * np.copysign(near - far, phi) - (near + far)) / (8.0 * math.pi)


def _kernel_block(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g by the expansion, its error estimate, and its gap to Hurwitz's formula."""
    value, error = _branch_point_series(1j * phi, 2)
    return value, error, np.abs(value - _kernel_hurwitz(phi))


@_pointwise(np.float64)
def angle_kernel(phi: np.ndarray) -> SeriesResult:
    """g(phi) by the branch-point expansion, cross-checked by Hurwitz's formula.

    Returns the expansion value; the error field is the larger of its own
    estimate and the observed disagreement with the Hurwitz route.
    Raises NearSingularityError within KERNEL_GUARD of 0 mod 2*pi and
    ConvergenceError if the routes differ by more than 1e-12 |g|, each
    naming the first such point.
    """
    phi = reduce_angle(phi)
    r = np.abs(phi)
    message = f"kernel diverges at phi = 0 mod 2*pi; |phi| = {{:.3g}} < {KERNEL_GUARD}"
    _reject(r < KERNEL_GUARD, NearSingularityError, message, r)
    value, error, disagreement = _by_blocks(_kernel_block, phi)
    tolerance = _KERNEL_AGREEMENT * np.abs(value)
    terms = (_EXPANSION_TERMS + _HURWITZ_TERMS) * phi.size
    if np.any(disagreement > tolerance):
        i = int(np.argmax(disagreement > tolerance))
        raise ConvergenceError(
            f"kernel routes disagree by {disagreement[i]:.3e} > {tolerance[i]:.3e} "
            f"at phi = {phi[i]}, index {i}",
            best_estimate=value[i], error_estimate=disagreement[i], terms=terms,
        )
    return SeriesResult(value, np.maximum(error, disagreement), terms)


# --------------------------------------------------------------------------
# two-sheet coordinate change


@_pointwise(np.complex128)
def map_to_y(z: np.ndarray) -> np.ndarray:
    """y = 4 z / (1 + z)**2; undefined at the pole z = -1."""
    _reject(z == -1.0, PoleError, "map has a pole at z = -1", z)
    return 4.0 * z / (1.0 + z) ** 2


# --------------------------------------------------------------------------
# zeros of the partial sums


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """All complex roots of sqrt_series(degree, .), sorted by argument,
    with the per-root residuals |S_degree(root)| = |root| |q(root)|, q the
    quotient S_degree(z) / z that the zero finder evaluates.

    ``sqrt_series_zeros`` returns a set whose worst residual is at most
    1e-8 * sqrt(degree), the largest coefficient of S_degree, and whose
    non-real roots come in exact conjugate pairs."""

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

    def near_circle_fraction(self) -> float:
        """Fraction of roots with ||z| - 1| < 0.1."""
        return float(np.mean(np.abs(np.abs(self.roots) - 1.0) < 0.1))


MAX_ZERO_DEGREE = 4096


class _QuotientBlocks(NamedTuple):
    """The coefficients of q = S_degree / z, q' and q'', split for baby-step
    giant-step evaluation (M. S. Paterson and L. J. Stockmeyer, SIAM J.
    Comput. 2, 1973) in blocks of B = isqrt(degree) + 1."""

    step: int  # B: the baby steps are z^0 .. z^(B-1), the giant step z^B
    # (B + 1, blocks * 2): entry [i, 2 b + k] is the coefficient of z^(b B + i)
    # in q (k = 0) or q' (k = 1), zero past the polynomial; row B is zero, so
    # that a power table z^0 .. z^B multiplies it whole
    magnitudes: np.ndarray
    # the same with q'' as a third column (k = 2), acting on a complex power
    # table read as (re, im) pairs, with (re, im) pairs out: the inner sums
    # are one real matrix product
    pairs: np.ndarray


def _quotient_blocks(degree: int) -> _QuotientBlocks:
    # columns: sqrt(j+1), (j+1) sqrt(j+2) and (j+1)(j+2) sqrt(j+3), the
    # coefficients of q, q' and q''
    table = np.zeros((degree, 3))
    table[:, 0] = np.sqrt(np.arange(1, degree + 1))
    table[:-1, 1] = table[1:, 0] * np.arange(1, degree)
    table[:-1, 2] = table[1:, 1] * np.arange(1, degree)
    step = math.isqrt(degree) + 1
    count = -(-degree // step)
    padded = np.zeros((count * step, 3))
    padded[:degree] = table
    blocks = np.zeros((step + 1, count, 3))
    blocks[:step] = padded.reshape(count, step, 3).transpose(1, 0, 2)
    pairs = np.zeros((step + 1, 2, count, 3, 2))
    pairs[:, 0, ..., 0] = pairs[:, 1, ..., 1] = blocks
    magnitudes = blocks[..., :2].reshape(step + 1, -1)
    return _QuotientBlocks(step, magnitudes, pairs.reshape(2 * step + 2, -1))


def _giant_steps(inner: np.ndarray, giant: np.ndarray) -> np.ndarray:
    """sum_b inner[:, b] giant^b for (points, blocks, columns) sums: the table
    giant^0 .. giant^(blocks-1) times the inner sums, one batched product."""
    table = _powers(giant, inner.shape[1])
    return (table[:, None, :] @ inner)[:, 0, :]


def _quotient_values(z: np.ndarray, blocks: _QuotientBlocks, slack: bool = False):
    """q, q' and q'' at the points z, (points, 3).

    A (points x (B+1)) power table, one real product with the coefficient
    blocks for the inner sums of B terms, then the giant steps: a table of
    (z^B)^0 .. (z^B)^(blocks-1) times the inner sums, one batched product
    (``_giant_steps``).  With ``slack``, also sum_j |c_j| |z|^j for the
    coefficients c_j of q and of q', on the same route from |z^i| and |z^B|.

    Rounding, to first order in eps: the term c_j z^j, j = b B + i, errs by
    at most (1 + 1.42 j + 0.71 B + 0.71 blocks) eps |c_j| |z|^j.  Its
    coefficient is rounded once or twice (1 eps).  It takes at most
    max(i - 1, 0) + (B - 1) + (b - 1) + 1 <= j complex products: z^i and z^B
    from the power table, (z^B)^b from the giant table and the product with
    the inner sum (none of the last three for b = 0), each within
    sqrt(2) gamma_2 < 1.42 eps.  The inner sum of B real terms, taken in
    real and imaginary parts, errs by sqrt(2) gamma_B, and the sum over the
    blocks, a complex dot product of length blocks, by sqrt(2) gamma_blocks.
    With j <= degree - 1 and B, blocks <= sqrt(degree) + 1, that stays below
    4 degree eps sum_j |c_j| |z|^j, the finder's slack, at every degree
    from 2 to MAX_ZERO_DEGREE.  q'' only steers the iteration and enters no
    certificate, so it needs no such bound.
    """
    powers = _powers(z, blocks.step + 1)
    inner = (powers.view(np.float64) @ blocks.pairs).view(np.complex128)
    values = _giant_steps(inner.reshape(z.size, -1, 3), powers[:, -1])
    if not slack:
        return values
    del inner  # freed before the slack's inner sums are formed
    magnitudes = np.abs(powers)
    inner = (magnitudes @ blocks.magnitudes).reshape(z.size, -1, 2)
    return values, _giant_steps(inner, magnitudes[:, -1])


def _asymptotic_start(degree: int, inner: float, outer: float) -> np.ndarray:
    """The starts of the roots of q = S_degree / z in the upper half plane,
    then of the real one when m = degree - 1 is odd, within the annulus
    inner <= |z| <= outer.

    With n = degree, S_n = S - tail and, by the large-n Lerch expansion
    (DLMF 25.14),

        tail(z) = sum_{k>n} sqrt(k) z^k
                = z^(n+1) sqrt(n+1) / (1 - z) (1 + z / (2 (n+1) (1-z)) + O(n^-2)),

    so root j solves z^(n+1) = (1 - z) S(z) / (sqrt(n+1) (1 + ...)) on
    branch j.  Root j = 1..m/2 starts at angle 2 pi j/(n+1) on the outer
    circle and takes two fixed-point steps
    z <- exp((log((1 - z) S(z) / (sqrt(n+1) (1 + ...))) + 2 pi i j)/(n+1));
    the real root stays on the negative axis and takes the modulus of its
    step.  Each step is put back into the annulus.  The annulus lies beyond
    _DIRECT_RADIUS, so S is sqrt_series_disk's branch-point route, its
    value only, without its batch wrapper.
    """
    m = degree - 1
    half = m // 2
    branch = _TAU * np.arange(1, half + m % 2 + 1)
    z = outer * np.exp(1j * branch / (degree + 1))
    if m % 2:
        z[half] = -outer
    for _ in range(2):
        tail = math.sqrt(degree + 1) * (1.0 + z / (2 * (degree + 1) * (1.0 - z)))
        ratio = (1.0 - z) * _branch_point_value(np.log(z), 2)[0] / tail
        moved = np.exp((np.log(ratio) + 1j * branch) / (degree + 1))
        if m % 2:
            moved[half] = -abs(moved[half])
        modulus = np.abs(moved)
        z = moved * (np.clip(modulus, inner, outer) / modulus)
    return z


def _disk_gap(centers: np.ndarray, radii: np.ndarray) -> float:
    """The smallest gap |c_i - c_j| - r_i - r_j between distinct disks, by
    sort and sweep; -inf when a radius is not finite.

    With the centres sorted by real part, only pairs whose real parts lie
    within 4 R of each other are compared, R the largest radius: any other
    pair stands more than 4 R apart, so its gap exceeds 2 R and the disks
    are disjoint.  So the verdict (gap > 0) and every gap <= 0 are exactly
    those of all pairs; a positive gap is the smallest among the pairs
    compared.  Each pair takes the smaller of its two rounding orders,
    (d - r_i) - r_j and (d - r_j) - r_i, as the dense gap matrix did.
    """
    if not np.all(np.isfinite(radii)):
        return -math.inf
    order = np.argsort(centers.real)
    centers, radii = centers[order], radii[order]
    reach = 4.0 * np.max(radii)
    gap = math.inf
    # the real parts are sorted, so a pair offset by one more is no nearer
    for offset in range(1, centers.size):
        near = np.flatnonzero(centers.real[offset:] - centers.real[:-offset] <= reach)
        if not near.size:
            break
        distance = np.abs(centers[near + offset] - centers[near])
        a, b = radii[near], radii[near + offset]
        gap = min(gap, float(np.min(np.minimum(distance - a - b, distance - b - a))))
    return gap


# Halley sweeps before sqrt_series_zeros gives up; from the asymptotic start
# every degree in 1..MAX_ZERO_DEGREE converges in 3.
_SWEEPS = 64


def sqrt_series_zeros(degree: int) -> ZeroSet:
    """All roots of S_degree by a conjugate-symmetric Halley iteration.

    The constant term vanishes, so z = 0 is an exact root.  The other
    m = degree - 1 are the roots of q(z) = S_degree(z)/z = sum_{j<=m}
    sqrt(j+1) z^j, whose coefficients increase, so by Enestrom-Kakeya they
    lie in the annulus 1/sqrt(2) <= |z| <= sqrt(m/(m+1)).

    The start is the asymptotic root (``_asymptotic_start``).  At degree
    250 the starts lie within 1.7e-5 of the roots (median 1.4e-7), and every
    degree from 3 to 4096 converges in 3 sweeps.

    Each sweep takes Halley's step z <- z - (q/q') / (1 - (q/q') q''/(2 q'))
    (W. Gander, Amer. Math. Monthly 92, 1985).  At a simple root the sum
    over the other roots in Aberth's step (O. Aberth, Math. Comp. 27, 1973),
    sum_{j != i} 1/(z_i - z_j), equals q''(z_i)/(2 q'(z_i)); Halley's step
    takes it from q'' at the point, so it has the same cubic order and no
    (m/2 x m) difference matrix.  Only the roots in the upper half plane
    move, plus the real one when m is odd, kept real; the rest are their
    conjugates, so the returned roots come in exact conjugate pairs.  Every
    iterate is put back into the annulus.

    Three checks must hold, else ``ZeroFindingError`` carries the
    diagnostics: every iterate converged within the sweep cap; the
    inclusion disks |z - root| <= m |q/q'| (each holds a root of q; q and
    q' are widened by their rounding bound) are pairwise disjoint and
    exclude 0 (``_disk_gap``), so no two roots stand for one; and the worst
    residual |S_degree(root)| is at most 1e-8 * max coefficient =
    1e-8 sqrt(degree).  Halley's step does not keep two iterates apart, as
    Aberth's did; the disk check is what refuses two iterates on one root.
    q, q' and q'' are evaluated by blocks (``_quotient_values``), in the
    sweeps and at the inclusion disks, and the residuals are the
    |root| |q(root)| of the inclusion step.
    """
    if not 1 <= degree <= MAX_ZERO_DEGREE:
        raise DimensionError(f"degree must be in 1..{MAX_ZERO_DEGREE}, got {degree}")
    m = degree - 1
    half = m // 2
    inner, outer = math.sqrt(0.5), math.sqrt(m / degree)
    blocks = _quotient_blocks(degree)
    z = _asymptotic_start(degree, inner, outer)
    active = np.ones(z.size, dtype=bool)
    sweeps, worst_step = 0, 0.0
    while active.any() and sweeps < _SWEEPS:
        sweeps += 1
        idx = np.flatnonzero(active)
        q, slope, curvature = _quotient_values(z[idx], blocks).T
        newton = q / slope
        step = newton / (1.0 - newton * curvature / (2.0 * slope))
        if m % 2 and idx[-1] == half:
            step[-1] = step[-1].real
        moved = z[idx] - step
        modulus = np.abs(moved)
        z[idx] = moved * (np.clip(modulus, inner, outer) / modulus)
        worst_step = float(np.max(np.abs(step)))
        active[idx[np.abs(step) <= 4.0 * sys.float_info.epsilon * modulus]] = False

    disk_gap, residuals = math.inf, np.zeros(0)
    if m:
        # inclusion radii m (|q| + e) / (|q'| - e'), e and e' the rounding
        # bounds 4 (m + 1) eps sum |coefficient| |z|^j of q and q' (see
        # _quotient_values)
        values, slack = _quotient_values(z, blocks, slack=True)
        slack *= 4.0 * degree * sys.float_info.epsilon
        residuals = np.abs(z) * np.abs(values[:, 0])
        denominator = np.abs(values[:, 1]) - slack[:, 1]
        radii = np.full(z.size, np.inf)
        held = denominator > 0
        radii[held] = m * (np.abs(values[held, 0]) + slack[held, 0]) / denominator[held]
        centers = np.concatenate([z, z[:half].conj(), [0.0]])
        disk_gap = _disk_gap(centers, np.concatenate([radii, radii[:half], [0.0]]))

    # |S_degree| = |z| |q| at each root, the same at its conjugate, 0 at 0
    roots = np.concatenate([[0.0], z, z[:half].conj()])
    residuals = np.concatenate([[0.0], residuals, residuals[:half]])
    order = np.lexsort((np.abs(roots), np.angle(roots)))
    zero_set = ZeroSet(degree=degree, roots=roots[order], residuals=residuals[order])
    bound = 1e-8 * math.sqrt(degree)
    unconverged = int(np.count_nonzero(active))
    if unconverged or not disk_gap > 0.0 or not zero_set.residual <= bound:
        raise ZeroFindingError(
            f"Halley iteration for degree {degree} failed after {sweeps} sweeps: "
            f"{unconverged} unconverged, smallest inclusion-disk gap {disk_gap:.3e}, "
            f"residual {zero_set.residual:.3e} (bound {bound:.3e})",
            diagnostics={
                "degree": degree,
                "sweeps": sweeps,
                "unconverged": unconverged,
                "worst_step": worst_step,
                "disk_gap": disk_gap,
                "residual": zero_set.residual,
                "bound": bound,
            },
        )
    return zero_set
