"""Finite-dimensional state spaces and the energy/ontological basis change.

An N-level system carries two distinguished orthonormal bases: the energy
eigenbasis ``|n>``, n = 0..N-1, and the "ontological" basis ``|s>`` whose
labels correspond one-to-one to the N sites ``phi_s = 2*pi*s/N`` of a
particle on the unit circle.  The two are connected by the unitary DFT-type
matrix

    U[s, n] = exp(2j*pi*n*s/N) / sqrt(N)

so that a state's ontological amplitudes are ``U @ energy_amplitudes`` and
the inverse transform uses ``U^dagger``.  U is a unitary DFT: ``U @ psi``
is ``ifft(psi, norm="ortho")`` and ``U^dagger @ psi`` is
``fft(psi, norm="ortho")``.  This module is the one place that applies U:
``to_sites`` and ``_to_levels`` take those O(N log N) routes along the last
axis; ``dynamics`` uses them on batches of states, ``to_energy`` on one
state, and ``operators.compare_matrix_elements`` on blocks of unit
vectors, around a level-basis operator applied to each.  The library
builds no dense U; ``to_sites(np.eye(N))`` is U.

Dense N x N storage is capped at ``DENSE_ENTRY_CEILING`` complex entries
(4096^2, 256 MiB); every dense constructor checks the size it is about to
allocate against it and raises ``DimensionError`` above it, and so do the
state constructors, for a whole batch too, and the ``figdata`` producers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BasisError, DimensionError

DENSE_ENTRY_CEILING = 4096 * 4096


class Basis(Enum):
    ENERGY = "energy"
    ONTOLOGICAL = "ontological"


def check_dense_size(rows: int, cols: int, what: str) -> None:
    """Raise DimensionError, before allocating, if rows x cols entries exceed the ceiling."""
    entries = int(rows) * int(cols)
    if entries > DENSE_ENTRY_CEILING:
        raise DimensionError(
            f"{what} needs {rows} x {cols} = {entries} dense entries, above the "
            f"ceiling of {DENSE_ENTRY_CEILING}"
        )


def to_sites(amplitudes: np.ndarray) -> np.ndarray:
    """U applied along the last axis: energy amplitudes to circle-site amplitudes."""
    return np.fft.ifft(amplitudes, axis=-1, norm="ortho")


def _to_levels(amplitudes: np.ndarray) -> np.ndarray:
    """U^dagger applied along the last axis: circle-site amplitudes to energy amplitudes."""
    return np.fft.fft(amplitudes, axis=-1, norm="ortho")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes tagged with the basis they are expressed in."""

    basis: Basis
    amplitudes: np.ndarray

    def __post_init__(self):
        if not isinstance(self.basis, Basis):
            raise BasisError(f"not a Basis tag: {self.basis!r}")
        arr = np.array(self.amplitudes, dtype=np.complex128)  # a copy, frozen below
        if arr.ndim != 1:
            raise DimensionError(f"expected 1-d array, got shape {arr.shape}")
        if arr.size < 1:
            raise DimensionError("state needs at least one amplitude")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def energy_state(n: int, dim: int) -> StateVector:
    """One-hot energy eigenstate |n> in a dim-level space."""
    if not 0 <= n < dim:
        raise DimensionError(f"level {n} outside 0..{dim - 1}")
    check_dense_size(dim, 1, "the state")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(Basis.ENERGY, amps)


def ontological_state(s: int, dim: int) -> StateVector:
    """One-hot circle-site state |s> in a dim-level space."""
    if not 0 <= s < dim:
        raise DimensionError(f"site {s} outside 0..{dim - 1}")
    check_dense_size(dim, 1, "the state")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[s] = 1.0
    return StateVector(Basis.ONTOLOGICAL, amps)


def random_states(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """(count x dim) normalized energy amplitudes, row t bit for bit the t-th of ``count``
    consecutive ``random_state`` calls: one (count, 2, dim) draw gives each row its real,
    then its imaginary parts, and each row norm takes the strided dots of ``np.linalg.norm``."""
    if count < 1 or dim < 1:
        raise DimensionError(f"need at least one state of one level, got {count} x {dim}")
    check_dense_size(count, dim, "the batch of states")
    draw = rng.standard_normal((count, 2, dim))
    amps = 1j * draw[:, 1]
    amps += draw[:, 0]
    re, im = amps.real[:, None, :], amps.imag[:, None, :]
    sqnorm = np.matmul(re, re.swapaxes(1, 2)) + np.matmul(im, im.swapaxes(1, 2))
    amps /= np.sqrt(sqnorm[:, 0])
    return amps


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Normalized energy-basis state with Gaussian random complex amplitudes."""
    return StateVector(Basis.ENERGY, random_states(1, dim, rng)[0])


def to_energy(state: StateVector) -> StateVector:
    """Re-express a circle-site state over the energy levels (U^dagger psi, by FFT)."""
    if state.basis is not Basis.ONTOLOGICAL:
        raise BasisError("to_energy expects an ontological-basis state")
    return StateVector(Basis.ENERGY, _to_levels(state.amplitudes))
