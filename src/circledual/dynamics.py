"""Quantum phase evolution, Born weights over the circle sites, and the transport theorem.

The classical side is a particle hopping around the N circle sites
phi_s = 2*pi*s/N: ``transport_steps`` moves a site distribution forward by
one hop of 2*pi/N per step, and probability in equals probability out.
The dual N-level system evolves each energy amplitude by
exp(-1j*n*omega*t).  At the stroboscopic times t = 2*pi*k/(N*omega) the
quantum evolution maps circle-site basis states one-hot to one-hot,
shifting the site label by k, so any Born distribution over the sites is
transported rigidly:

    born(evolve_quantum(psi, t)) == transport_steps(born(psi), k)      (exactly)

At step k level n gains the phase exp(-2j*pi*((n*k) mod N)/N), exact for
every integer k, so step k depends on k only through its residue k mod N.
``duality_deviations`` measures the max-norm gap between the two routes
for a batch of states: each distinct residue is evaluated once, as many
residues per (residues x states x N) FFT as fit in a block of 2^14
entries, with the step phases gathered from one table of the N roots of
unity.  ``sampled_duality_deviations`` draws the random states in blocks
of about 2^18 amplitudes from one generator and keeps the running
maximum, so its memory does not grow with the trial count.  The contract
is <= 1e-10 for every normalized state and every integer k.
``evolve_report`` runs one state to a step k or to any time t.  Between
grid times site transport is not defined at finite N, so it reports the
gap to the nearest rotation instead of interpolating.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BasisError, DimensionError, DomainError, NormalizationError
from .hilbert import Basis, StateVector, check_dense_size, random_states, to_energy, to_sites

_TAU = 2.0 * math.pi

WEIGHT_TOL = 1e-12
STATE_NORM_TOL = 1e-9

# complex entries per FFT of several step residues, and amplitudes per block of drawn states
_RESIDUE_BLOCK = 2**14
_DRAW_BLOCK = 2**18


@dataclass(frozen=True, eq=False)
class AngleDistribution:
    """Nonnegative weights over the N circle sites, summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        arr = np.array(self.weights, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError(f"weights must be a nonempty vector, got {arr.shape}")
        if np.any(arr < -WEIGHT_TOL):
            raise NormalizationError(f"negative weight {arr.min():.3e}")
        total = float(np.sum(arr))
        if abs(total - 1.0) > WEIGHT_TOL:
            raise NormalizationError(f"weights sum to {total!r}, not 1")
        arr = np.maximum(arr, 0.0)
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)


def _phases(dim: int, t: float, omega: float) -> np.ndarray:
    """exp(-1j*n*omega*t) for n = 0..dim-1."""
    # the largest phase, not t alone: a finite t can still overflow n*omega*t
    if not math.isfinite(dim * omega * t):
        raise DomainError(f"phase N*omega*t must be finite, got t = {t}, omega = {omega}")
    return np.exp(-1j * np.arange(dim) * omega * t)


def _roots_of_unity(dim: int) -> np.ndarray:
    """exp(-2j*pi*j/N) for j = 0..N-1."""
    return np.exp(-2j * np.pi * np.arange(dim) / dim)


def _step_phases(roots: np.ndarray, residues) -> np.ndarray:
    """exp(-1j*n*omega*t) at t = 2*pi*r/(N*omega) for a residue r in 0..N-1, or one
    row per residue of an array: the N roots of unity gathered at the exact
    integer indices (n*r) mod N."""
    dim = roots.size
    return roots[np.multiply.outer(residues, np.arange(dim)) % dim]


def evolve_quantum(state: StateVector, t: float, omega: float = 1.0) -> StateVector:
    """Multiply energy amplitude n by exp(-1j*n*omega*t); norm is preserved."""
    if state.basis is not Basis.ENERGY:
        raise BasisError(f"quantum evolution needs an energy-basis state, got {state.basis}")
    return StateVector(Basis.ENERGY, _phases(state.dim, t, omega) * state.amplitudes)


def _check_norms(amplitudes: np.ndarray) -> None:
    """Every row of amplitudes must have unit norm within STATE_NORM_TOL."""
    norms = np.sum(np.abs(amplitudes) ** 2, axis=-1)
    if np.any(np.abs(norms - 1.0) > STATE_NORM_TOL):
        raise NormalizationError(
            f"state norm deviates from 1 by more than {STATE_NORM_TOL}"
        )


def _site_weights(site_amplitudes: np.ndarray) -> np.ndarray:
    """|amplitude|^2 along the last axis, rescaled by each row's exact sum."""
    weights = np.abs(site_amplitudes) ** 2
    return weights / np.sum(weights, axis=-1, keepdims=True)


def born_distribution(state: StateVector) -> AngleDistribution:
    """Site weights |<s|state>|^2 in the ontological basis.

    The state must be normalized to 1e-9; the squared magnitudes are then
    rescaled by their exact sum so the distribution invariant (sum = 1
    within 1e-12) holds regardless of roundoff in the basis change.
    """
    _check_norms(state.amplitudes)
    amps = state.amplitudes
    if state.basis is Basis.ENERGY:
        amps = to_sites(amps)
    return AngleDistribution(_site_weights(amps))


def transport_steps(rho: AngleDistribution, k: int) -> AngleDistribution:
    """Move the distribution k hops of 2*pi/N forward (mass conserved exactly).

    This is the classical motion: each stroboscopic step of the quantum
    evolution carries the Born weights one site forward.  k must be an integer.
    """
    return AngleDistribution(np.roll(rho.weights, operator.index(k)))


def duality_deviations(amplitudes, ks) -> np.ndarray:
    """Per-k max-norm gap between quantum-evolved and transported weights.

    ``amplitudes`` is a (states x N) array of normalized energy-basis
    states.  For each integer k in ``ks`` every state is evolved by k
    stroboscopic steps, and its Born distribution is compared against the
    k-site rotation of its initial one; entry i of the result is the
    largest gap over all states at ks[i].  Steps k and k + N give
    bit-identical gaps, so each distinct residue k mod N is evaluated once,
    and as many residues as fit in ``_RESIDUE_BLOCK`` entries share one FFT
    (one residue per FFT once the batch alone fills the block).
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 2 or amps.shape[1] < 1:
        raise DimensionError(f"expected a (states x N) array, got shape {amps.shape}")
    trials, dim = amps.shape
    check_dense_size(trials, dim, "the batch of states")
    residues = np.array([operator.index(k) % dim for k in ks], dtype=np.int64)
    _check_norms(amps)
    initial = _site_weights(to_sites(amps))
    asked = np.zeros(dim, dtype=bool)
    asked[residues] = True
    distinct = np.flatnonzero(asked)
    roots = _roots_of_unity(dim)
    sites = np.arange(dim)
    per_fft = max(1, _RESIDUE_BLOCK // amps.size)
    gap = np.empty(dim)  # by residue
    for start in range(0, distinct.size, per_fft):
        block = distinct[start : start + per_fft]
        quantum = _site_weights(to_sites(_step_phases(roots, block)[:, None, :] * amps))
        # the k-site rotation of the initial weights: site s takes the weight of site s - k
        quantum -= np.take(initial, sites - block[:, None], axis=1, mode="wrap").swapaxes(0, 1)
        gap[block] = np.max(np.abs(quantum), axis=(1, 2))
    return gap[residues]


def sampled_duality_deviations(trials: int, dim: int, ks, rng: np.random.Generator) -> np.ndarray:
    """``duality_deviations`` over ``trials`` random states of ``dim`` levels.

    The states are the rows of ``random_states(trials, dim, rng)``, drawn and
    checked in blocks of about ``_DRAW_BLOCK`` amplitudes; consecutive draws
    from one generator continue one stream, and the running maximum over
    blocks is exact, so the gaps are bit for bit those of the whole batch at
    a memory that does not grow with ``trials``.  The batch size is checked
    against the dense ceiling before any state is drawn.
    """
    if trials < 1 or dim < 1:
        raise DimensionError(f"need at least one state of one level, got {trials} x {dim}")
    check_dense_size(trials, dim, "the batch of states")
    per_draw = max(1, _DRAW_BLOCK // dim)
    worst = duality_deviations(random_states(min(per_draw, trials), dim, rng), ks)
    for start in range(per_draw, trials, per_draw):
        states = random_states(min(per_draw, trials - start), dim, rng)
        np.maximum(worst, duality_deviations(states, ks), out=worst)
    return worst


class EvolveReport(NamedTuple):
    """One evolved state against the rigid rotation of its initial weights."""

    time: float
    k: int  # the step count, or the nearest rotation mod N for an off-grid time
    initial: AngleDistribution
    quantum: AngleDistribution
    transported: AngleDistribution
    deviation: float  # max |quantum - transported|


def evolve_report(state: StateVector, omega: float, *, steps=None, time=None) -> EvolveReport:
    """Evolve a state by ``steps`` stroboscopic steps or to ``time``, and compare.

    Give exactly one of the two.  A step count k is evolved with the exact
    stroboscopic phases and compared with the k-site rotation; an arbitrary
    time, which transport does not define, is compared with the nearest
    rotation.  Each Born distribution is taken once.
    """
    if (steps is None) == (time is None):
        raise DomainError("give exactly one of steps or time")
    energy = state if state.basis is Basis.ENERGY else to_energy(state)
    dim = energy.dim
    if steps is not None:
        k = operator.index(steps)
        try:
            time = _TAU * k / (dim * omega)
        except (OverflowError, ZeroDivisionError):
            time = math.inf
        if not math.isfinite(time):
            raise DomainError(f"time 2*pi*k/(N*omega) is not a finite float at omega = {omega}")
        phases = _step_phases(_roots_of_unity(dim), k % dim)
        evolved = StateVector(Basis.ENERGY, phases * energy.amplitudes)
    else:
        evolved = evolve_quantum(energy, time, omega)  # refuses a phase that is not finite
        k = round(time * dim * omega / _TAU) % dim
    initial = born_distribution(energy)
    quantum = born_distribution(evolved)
    transported = transport_steps(initial, k)
    deviation = float(np.max(np.abs(quantum.weights - transported.weights)))
    return EvolveReport(time, k, initial, quantum, transported, deviation)
