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
once, from that FFT kernel, so x and p are hermitian by construction.  It
checks it against the one independent route, U M U^dag with M the
level-basis operator, taken a block of columns at a time and with no
matrix for M: U^dag (an FFT) on the unit vectors of the block, then
a|n> = sqrt(n)|n-1> and a^dag = a^H on each vector, then U.  It checks the
N x N size against ``hilbert.DENSE_ENTRY_CEILING`` first.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError
from .hilbert import _to_levels, check_dense_size, to_sites

# entries of a block of columns formed at a time (1 MiB) by the comparison
_BLOCK_ENTRIES = 1 << 16

_ELEMENT_KINDS = ("a", "adag", "x", "p")


def _check_kind(which: str, dim: int) -> None:
    if which not in _ELEMENT_KINDS:
        raise DomainError(f"which must be one of {_ELEMENT_KINDS}, got {which!r}")
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    check_dense_size(dim, dim, "the operator")


def _kind(which: str, lowering, raising) -> np.ndarray:
    """a, a^dag, x = (a + a^dag)/sqrt(2) or p = 1j*(a^dag - a)/sqrt(2) from its two parts.

    lowering() and raising() return the a-part and the a^dag-part, each
    called only for the kinds that use it.  x or p is formed in place in
    the a^dag-part, a new array: two arrays are live at most.
    """
    if which == "adag":
        return raising()
    lower = lowering()
    if which == "a":
        return lower
    out = raising()
    if which == "x":
        np.add(lower, out, out=out)
    else:
        np.subtract(out, lower, out=out)
        np.multiply(1j, out, out=out)
    return np.divide(out, math.sqrt(2.0), out=out)


def _site_lowering(dim: int) -> np.ndarray:
    """a on the circle sites: row phase e^{-i phi1} times the circulant kernel."""
    kernel_by_diff = np.fft.ifft(np.sqrt(np.arange(dim)))  # S_{dim-1}(e^{2j*pi*d/dim}) / dim
    # windows of [k_1 .. k_{dim-1}, k_0 .. k_{dim-1}], reversed, put
    # k_{(s1 - s2) mod dim} at (s1, s2) as a view: no index array, no copy
    wrapped = np.concatenate((kernel_by_diff[1:], kernel_by_diff))
    kernel = np.lib.stride_tricks.sliding_window_view(wrapped, dim)[:, ::-1]
    return np.exp(-2j * np.pi * np.arange(dim) / dim)[:, None] * kernel


def _site_matrix(which: str, dim: int) -> np.ndarray:
    """The closed-form site matrix of a kind: a^H holds the exact conjugates of a's entries."""
    a = _site_lowering(dim)
    # a^H alone keeps the transposed layout, one plain pass; x and p are
    # formed in a row-major a^H, the layout the artifact columns ravel fast
    order = "K" if which == "adag" else "C"
    return _kind(which, lambda: a, lambda: np.conjugate(a.T, order=order))


def _level_rows(which: str, rows: np.ndarray, root: np.ndarray) -> np.ndarray:
    """The level-basis kind applied to each row of rows, root = sqrt(1..N-1).

    a|n> = sqrt(n)|n-1> moves entry n of a row to n - 1, and a^dag = a^H
    moves entry n - 1 to n with the same factor: no matrix is formed.
    """

    def shifted(source: slice, target: slice) -> np.ndarray:
        out = np.zeros_like(rows)
        np.multiply(root, rows[:, source], out=out[:, target])
        return out

    up, down = slice(1, None), slice(None, -1)
    return _kind(which, lambda: shifted(up, down), lambda: shifted(down, up))


def compare_matrix_elements(which: str, dim: int) -> tuple[np.ndarray, float]:
    """The closed-form circle-site matrix of a kind and its max entrywise gap to U M U^dag.

    The closed form is built once, whole.  The gap is then taken
    _BLOCK_ENTRIES entries at a time: columns c of U M U^dag, as rows, are
    U M U^dag e_c, that is ``to_sites`` of the level-basis kind applied to
    ``_to_levels`` of the unit rows e_c.  So the closed form's own build,
    two dense arrays for a^dag, x and p and one for a, is the peak.
    """
    _check_kind(which, dim)
    closed = _site_matrix(which, dim)
    root = np.sqrt(np.arange(1.0, dim))
    step = max(1, _BLOCK_ENTRIES // dim)
    gap = 0.0
    for start in range(0, dim, step):
        unit = np.eye(min(step, dim - start), dim, start, dtype=np.complex128)
        conjugated = to_sites(_level_rows(which, _to_levels(unit), root))
        gap = max(gap, float(np.max(np.abs(closed[:, start : start + step] - conjugated.T))))
    return closed, gap
