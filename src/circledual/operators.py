"""Truncated oscillator operators in both bases, and the check that ties them.

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
``ontological_matrix`` builds a from that FFT kernel, ``level_matrix`` from
a|n> = sqrt(n)|n-1>; both take a^dag = a^H, x = (a + a^dag)/sqrt(2) and
p = 1j*(a^dag - a)/sqrt(2) from it, so x and p are hermitian by
construction.  ``conjugate_to_ontological`` is the one independent
cross-check, U M U^dag by FFTs over rows and columns (no dense U), and
``compare_matrix_elements`` applies it to one kind.  Every dense
constructor checks its N x N size against ``hilbert.DENSE_ENTRY_CEILING``
first.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import BasisError, DimensionError, DomainError
from .hilbert import Basis, _as_readonly_complex, _to_levels, check_dense_size, to_sites

HERMITICITY_TOL = 1e-12
# entries of M - M^H formed at a time by the hermiticity check (1 MiB)
_DEFECT_BLOCK_ENTRIES = 1 << 16

_ELEMENT_KINDS = ("a", "adag", "x", "p")


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense N x N complex operator tagged with its basis.

    The entries are a read-only copy of the array given, except that the
    builders here pass ``owned=True`` to freeze a fresh array in place.
    """

    basis: Basis
    entries: np.ndarray
    hermitian: bool = False
    owned: InitVar[bool] = False

    def __post_init__(self, owned):
        if not isinstance(self.basis, Basis):
            raise BasisError(f"not a Basis tag: {self.basis!r}")
        arr = _as_readonly_complex(self.entries, 2, copy=not owned)
        if arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"operator must be square, got {arr.shape}")
        object.__setattr__(self, "entries", arr)
        if self.hermitian and self.hermiticity_defect() > HERMITICITY_TOL:
            raise DomainError(
                f"declared hermitian but defect {self.hermiticity_defect():.3e} "
                f"> {HERMITICITY_TOL:.0e}"
            )

    def hermiticity_defect(self) -> float:
        """max |M - M^H|, over row blocks so the temporaries stay small."""
        m = self.entries
        return _max_over_row_blocks(m.shape[0], lambda rows: m[rows] - m.T[rows].conj())


def _max_over_row_blocks(dim: int, block_gap) -> float:
    """max |block_gap(rows)| over row slices, one block of the gap at a time."""
    step = max(1, _DEFECT_BLOCK_ENTRIES // dim)
    return max(
        float(np.max(np.abs(block_gap(slice(i, i + step))))) for i in range(0, dim, step)
    )


def _hermitian_part(a: np.ndarray, which: str) -> np.ndarray:
    """x = (a + a^dag)/sqrt(2) or p = 1j*(a^dag - a)/sqrt(2), a^dag = a^H.

    Built in one new array, in place.  Entry (j, i) is the exact conjugate
    of entry (i, j), so the result is hermitian to the last bit.
    """
    out = np.conjugate(a.T, order="C")
    if which == "x":
        np.add(a, out, out=out)
    else:
        np.subtract(out, a, out=out)
        np.multiply(1j, out, out=out)
    return np.divide(out, math.sqrt(2.0), out=out)


def _from_lowering(which: str, dim: int, basis: Basis, lowering) -> OperatorMatrix:
    """a, adag, x or p in basis from ``lowering(dim)``, checked before allocating.

    a is released once x, p or a^H is formed from it, so two dense arrays
    are live at most.
    """
    if which not in _ELEMENT_KINDS:
        raise DomainError(f"which must be one of {_ELEMENT_KINDS}, got {which!r}")
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    check_dense_size(dim, dim, "the operator")
    a = lowering(dim)
    if which == "a":
        return OperatorMatrix(basis, a, owned=True)
    hermitian = which != "adag"
    out = _hermitian_part(a, which) if hermitian else np.conjugate(a.T)
    del a
    return OperatorMatrix(basis, out, hermitian=hermitian, owned=True)


def _level_lowering(dim: int) -> np.ndarray:
    """a on the levels: a|n> = sqrt(n)|n-1>."""
    a = np.zeros((dim, dim), dtype=np.complex128)
    rows = np.arange(dim - 1)
    a[rows, rows + 1] = np.sqrt(np.arange(1, dim, dtype=np.float64))
    return a


def level_matrix(which: str, dim: int) -> OperatorMatrix:
    """Energy-basis matrix of a, adag, x or p.  Only the requested kind is built."""
    return _from_lowering(which, dim, Basis.ENERGY, _level_lowering)


def build_hamiltonian(dim: int, omega: float = 1.0) -> OperatorMatrix:
    """diag(0, omega, 2*omega, ...): level n costs n*omega, ground energy 0."""
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    check_dense_size(dim, dim, "the operator")
    if not (omega > 0.0 and math.isfinite(omega)):
        raise DomainError(f"omega must be positive and finite, got {omega}")
    levels = np.arange(dim, dtype=np.complex128) * omega
    return OperatorMatrix(Basis.ENERGY, np.diag(levels), hermitian=True, owned=True)


def conjugate_to_ontological(op: OperatorMatrix) -> OperatorMatrix:
    """Basis-change an energy-basis operator to the circle sites: U M U^dag.

    U and U^dag are symmetric, so M U^dag applies U^dag to every row of M,
    and U B = (B^T U)^T applies U to every row of B^T.
    """
    if op.basis is not Basis.ENERGY:
        raise BasisError("operator is not in the energy basis")
    out = to_sites(_to_levels(op.entries).T).T
    return OperatorMatrix(Basis.ONTOLOGICAL, out, hermitian=op.hermitian, owned=True)


def _site_lowering(dim: int) -> np.ndarray:
    """a on the circle sites: row phase e^{-i phi1} times the circulant kernel."""
    kernel_by_diff = np.fft.ifft(np.sqrt(np.arange(dim)))  # S_{dim-1}(e^{2j*pi*d/dim}) / dim
    # windows of [k_1 .. k_{dim-1}, k_0 .. k_{dim-1}], reversed, put
    # k_{(s1 - s2) mod dim} at (s1, s2) as a view: no index array, no copy
    wrapped = np.concatenate((kernel_by_diff[1:], kernel_by_diff))
    kernel = np.lib.stride_tricks.sliding_window_view(wrapped, dim)[:, ::-1]
    return np.exp(-2j * np.pi * np.arange(dim) / dim)[:, None] * kernel


def ontological_matrix(which: str, dim: int) -> OperatorMatrix:
    """Circle-site matrix of a, adag, x or p.  Only the requested kind is built."""
    return _from_lowering(which, dim, Basis.ONTOLOGICAL, _site_lowering)


def compare_matrix_elements(which: str, dim: int) -> tuple[OperatorMatrix, float]:
    """The closed-form circle-site matrix and its max entrywise gap to U M U^dag.

    The conjugation of the level-basis matrix is built first, so the closed
    form is not alive while the level-basis operator is, and the gap is
    taken over row blocks, so no N x N difference or modulus exists.
    """
    conjugated = conjugate_to_ontological(level_matrix(which, dim)).entries
    closed = ontological_matrix(which, dim)
    gap = _max_over_row_blocks(dim, lambda rows: closed.entries[rows] - conjugated[rows])
    return closed, gap
