"""Classical circle motion, quantum phase evolution, and the transport theorem.

A particle on the unit circle moves as phi(t) = phi(0) + omega*t mod 2*pi.
The dual N-level system evolves each energy amplitude by exp(-1j*n*omega*t).
At the stroboscopic times t = 2*pi*k/(N*omega) the quantum evolution maps
circle-site basis states one-hot to one-hot, shifting the site label by k,
so any Born distribution over the sites is transported rigidly:

    born(evolve_quantum(psi, t)) == rotate_by_k(born(psi))      (exactly)

``duality_deviation`` measures the max-norm gap between the two routes; the
contract is <= 1e-10 for every normalized state and every integer k.
Between grid times the site-to-site transport is not defined at finite N;
``offgrid_deviation`` reports how far the evolved distribution is from the
nearest rigid rotation instead of interpolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisError, DimensionError, DomainError, NormalizationError, StroboscopicError
from .hilbert import (
    Basis,
    DualityMap,
    StateVector,
    build_duality_map,
    to_ontological,
)

_TAU = 2.0 * math.pi

WEIGHT_TOL = 1e-12
STATE_NORM_TOL = 1e-9


@dataclass(frozen=True)
class CirclePhase:
    """Angle on the circle, canonically reduced to [0, 2*pi)."""

    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise DomainError(f"phase must be finite, got {self.phi}")
        object.__setattr__(self, "phi", self.phi % _TAU)


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

    @property
    def dim(self) -> int:
        return self.weights.size


def evolve_classical(phase: CirclePhase, t: float, omega: float = 1.0) -> CirclePhase:
    """Rigid rotation phi -> phi + omega*t mod 2*pi."""
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t}")
    return CirclePhase(phase.phi + omega * t)


def evolve_quantum(state: StateVector, t: float, omega: float = 1.0) -> StateVector:
    """Multiply energy amplitude n by exp(-1j*n*omega*t); norm is preserved."""
    if state.basis is not Basis.ENERGY:
        raise BasisError(f"quantum evolution needs an energy-basis state, got {state.basis}")
    # the largest phase, not t alone: a finite t can still overflow n*omega*t
    if not math.isfinite(state.dim * omega * t):
        raise DomainError(f"phase N*omega*t must be finite, got t = {t}, omega = {omega}")
    n = np.arange(state.dim)
    phases = np.exp(-1j * n * omega * t)
    return StateVector(Basis.ENERGY, phases * state.amplitudes)


def born_distribution(state: StateVector, dmap: DualityMap | None = None) -> AngleDistribution:
    """Site weights |<s|state>|^2 in the ontological basis.

    The state must be normalized to 1e-9; the squared magnitudes are then
    rescaled by their exact sum so the distribution invariant (sum = 1
    within 1e-12) holds regardless of roundoff in the basis change.
    """
    if abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) > STATE_NORM_TOL:
        raise NormalizationError(
            f"state norm deviates from 1 by more than {STATE_NORM_TOL}"
        )
    if state.basis is Basis.ENERGY:
        if dmap is None:
            dmap = build_duality_map(state.dim)
        site_state = to_ontological(state, dmap)
    else:
        site_state = state
    weights = np.abs(site_state.amplitudes) ** 2
    return AngleDistribution(weights / np.sum(weights))


def transport_steps(rho: AngleDistribution, k: int) -> AngleDistribution:
    """Rotate the distribution forward by k sites (mass conserved exactly)."""
    return AngleDistribution(np.roll(rho.weights, int(k)))


def transport_distribution(
    rho: AngleDistribution, t: float, omega: float = 1.0
) -> AngleDistribution:
    """Rigid site transport for a stroboscopic time t = 2*pi*k/(N*omega).

    Non-stroboscopic times are rejected: at finite N the exact theorem is
    a grid statement, and interpolation is deliberately not offered.
    """
    steps = t * rho.dim * omega / _TAU
    k = round(steps)
    if abs(steps - k) > 1e-9 * max(1.0, abs(steps)):
        raise StroboscopicError(
            f"t = {t!r} is {steps:.6f} transport steps; site transport needs an "
            f"integer multiple of 2*pi/(N*omega) = {_TAU / (rho.dim * omega):.6g}"
        )
    return transport_steps(rho, k)


def duality_deviation(
    state: StateVector,
    k: int,
    omega: float = 1.0,
    dmap: DualityMap | None = None,
) -> float:
    """Max-norm gap between quantum-evolved and classically transported weights.

    Evolves the state to t = 2*pi*k/(N*omega) and compares the Born
    distribution against the k-site rotation of the initial one.
    """
    if dmap is None:
        dmap = build_duality_map(state.dim)
    t = _TAU * k / (state.dim * omega)
    quantum = born_distribution(evolve_quantum(state, t, omega), dmap)
    classical = transport_steps(born_distribution(state, dmap), k)
    return float(np.max(np.abs(quantum.weights - classical.weights)))


def offgrid_deviation(
    state: StateVector,
    t: float,
    omega: float = 1.0,
    dmap: DualityMap | None = None,
) -> tuple[int, float]:
    """Distance of the evolved distribution from the nearest site rotation.

    Returns (k_nearest, max-norm deviation).  This measures, rather than
    defines, transport at times off the stroboscopic grid.
    """
    if dmap is None:
        dmap = build_duality_map(state.dim)
    k = round(t * state.dim * omega / _TAU) % state.dim
    quantum = born_distribution(evolve_quantum(state, t, omega), dmap)
    classical = transport_steps(born_distribution(state, dmap), k)
    return int(k), float(np.max(np.abs(quantum.weights - classical.weights)))
