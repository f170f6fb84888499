"""Truncated oscillator operators on the circle sites, checked against the levels.

All operators act on the N lowest oscillator levels (hbar = 1).  The
truncation forces a highest level, so the canonical commutators pick up an
exact defect concentrated in the top level:

    [a, a^dag] = I - N |N-1><N-1|,      [x, p] = i (I - N |N-1><N-1|).

In the circle-site ("ontological") basis every matrix element of a is
carried by one kernel value: with phi_k = 2*pi*s_k/N and
S_{N-1}(z) = sum_{n=1}^{N-1} sqrt(n) z^n,

    <s1| a |s2> = exp(-1j*phi1) * S_{N-1}(e^{1j*(phi1-phi2)}) / N.

The kernel depends only on (s1 - s2) mod N, and its N values
S_{N-1}(e^{2j*pi*d/N}) / N are exactly the inverse DFT of sqrt(0..N-1).
``compare_matrix_elements`` is the one entry point.  It builds the closed
form of a, a^dag = a^H, x = (a + a^dag)/sqrt(2) or p = 1j*(a^dag - a)/sqrt(2)
from that FFT kernel, so x and p are hermitian by construction, and checks
it against the one independent route: the level-basis matrix from
a|n> = sqrt(n)|n-1>, conjugated to U M U^dag by FFTs over rows and columns
(no dense U).  It checks the N x N size against
``hilbert.DENSE_ENTRY_CEILING`` first.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError
from .hilbert import _to_levels, check_dense_size, to_sites

# entries of a block of rows or columns formed at a time (1 MiB): by the
# conjugation and the comparison with the closed form
_BLOCK_ENTRIES = 1 << 16

_ELEMENT_KINDS = ("a", "adag", "x", "p")


def _blocks(dim: int):
    """Slices of _BLOCK_ENTRIES // dim rows or columns (at least one) that cover 0..dim-1."""
    step = max(1, _BLOCK_ENTRIES // dim)
    return (slice(i, i + step) for i in range(0, dim, step))


def _hermitian_part(a: np.ndarray, which: str, a_rows: np.ndarray | None = None) -> np.ndarray:
    """x = (a + a^dag)/sqrt(2) or p = 1j*(a^dag - a)/sqrt(2), a^dag = a^H.

    Built in one new array, in place.  Entry (j, i) is the exact conjugate
    of entry (i, j), so the result is hermitian to the last bit.  For the
    columns J of x or p, pass a[:, J] as a and a[J, :] as a_rows: the same
    operations give the same bits as those columns of the whole.
    """
    out = np.conjugate((a if a_rows is None else a_rows).T, order="C")
    if which == "x":
        np.add(a, out, out=out)
    else:
        np.subtract(out, a, out=out)
        np.multiply(1j, out, out=out)
    return np.divide(out, math.sqrt(2.0), out=out)


def _check_kind(which: str, dim: int) -> None:
    if which not in _ELEMENT_KINDS:
        raise DomainError(f"which must be one of {_ELEMENT_KINDS}, got {which!r}")
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    check_dense_size(dim, dim, "the operator")


def _kind_from_lowering(which: str, a: np.ndarray) -> np.ndarray:
    """a, adag, x or p as a new array from the lowering matrix a (a itself for "a").

    a is released once x, p or a^H is formed from it, so two dense arrays
    are live at most.
    """
    if which == "a":
        return a
    return _hermitian_part(a, which) if which != "adag" else np.conjugate(a.T)


def _level_lowering(dim: int) -> np.ndarray:
    """a on the levels: a|n> = sqrt(n)|n-1>."""
    a = np.zeros((dim, dim), dtype=np.complex128)
    rows = np.arange(dim - 1)
    a[rows, rows + 1] = np.sqrt(np.arange(1, dim, dtype=np.float64))
    return a


def _columns_to_sites(b: np.ndarray, cols: slice) -> np.ndarray:
    """Columns cols of U B: U applied to each column, that is to each row of B^T."""
    return to_sites(b[:, cols].T).T


def _site_factors(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The row phases e^{-i phi1}, as a column, and the circulant kernel as a dim x dim view."""
    kernel_by_diff = np.fft.ifft(np.sqrt(np.arange(dim)))  # S_{dim-1}(e^{2j*pi*d/dim}) / dim
    # windows of [k_1 .. k_{dim-1}, k_0 .. k_{dim-1}], reversed, put
    # k_{(s1 - s2) mod dim} at (s1, s2) as a view: no index array, no copy
    wrapped = np.concatenate((kernel_by_diff[1:], kernel_by_diff))
    kernel = np.lib.stride_tricks.sliding_window_view(wrapped, dim)[:, ::-1]
    return np.exp(-2j * np.pi * np.arange(dim) / dim)[:, None], kernel


def _site_lowering(dim: int) -> np.ndarray:
    """a on the circle sites: row phase e^{-i phi1} times the circulant kernel."""
    phase, kernel = _site_factors(dim)
    return phase * kernel


def _site_columns(which: str, phase: np.ndarray, kernel: np.ndarray, cols: slice) -> np.ndarray:
    """Columns cols of the closed-form site matrix of a kind, bit for bit those of the whole."""
    a = phase * kernel[:, cols]
    if which == "a":
        return a
    a_rows = phase[cols] * kernel[cols]
    if which == "adag":
        return np.conjugate(a_rows.T)
    return _hermitian_part(a, which, a_rows)


def _conjugation_gap(which: str, dim: int) -> float:
    """max |closed form - U M U^dag| over the entries, M the level-basis matrix of a kind.

    U and U^dag are symmetric, so B = M U^dag applies U^dag to every row of
    M, and U B = (B^T U)^T applies U to every row of B^T.  M is transformed
    in place into B a block of rows at a time, then U B and the closed form
    are formed and compared a block of columns at a time: B is the one
    dense array.
    """
    b = _kind_from_lowering(which, _level_lowering(dim))
    for rows in _blocks(dim):
        b[rows] = _to_levels(b[rows])
    phase, kernel = _site_factors(dim)

    def block_gap(cols: slice) -> float:
        closed = _site_columns(which, phase, kernel, cols)
        return float(np.max(np.abs(closed - _columns_to_sites(b, cols))))

    return max(block_gap(cols) for cols in _blocks(dim))


def compare_matrix_elements(which: str, dim: int) -> tuple[np.ndarray, float]:
    """The closed-form circle-site matrix of a kind and its max entrywise gap to U M U^dag.

    The gap is taken first, with the level-basis matrix transformed in
    place and the rest in column blocks; the closed form is built once
    that array is gone.  So two dense arrays are live at most: those of
    the closed form's own build.
    """
    _check_kind(which, dim)
    gap = _conjugation_gap(which, dim)
    return _kind_from_lowering(which, _site_lowering(dim)), gap
