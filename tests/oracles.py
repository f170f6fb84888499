"""Test-side oracles that share no code with the library.

``duality_matrix`` is the basis change U written out entry by entry from
its exp formula, the reference that pins the library's FFT convention.
``abel_kernel`` is the definition of g taken literally: the Abel limit
r -> 1- of the divergent series sum sqrt(n) (r e^{i phi})^n, from damped
partial sums extrapolated polynomially in (1 - r).
"""

import math

import numpy as np


def duality_matrix(n):
    """Dense U[s, m] = exp(2j*pi*m*s/n)/sqrt(n), the phase index reduced mod n."""
    idx = np.arange(n)
    return np.exp(2j * np.pi * (np.outer(idx, idx) % n) / n) / np.sqrt(n)


def neville_at_zero(xs, ys):
    """Neville polynomial extrapolation of the samples (xs, ys) to x = 0."""
    tbl = [complex(y) for y in ys]
    n = len(tbl)
    for k in range(1, n):
        for i in range(n - k):
            tbl[i] = (xs[i + k] * tbl[i] - xs[i] * tbl[i + 1]) / (xs[i + k] - xs[i])
    return tbl[0]


def abel_kernel(phi):
    """g(phi) for 0.1 <= |phi| <= pi, good to about 2e-9 relative.

    Seven radii with 1 - r halving from |1 - e^{i phi}| / 4 (at most 1/16);
    each damped sum stops where its terms fall below e^-52 of the first.
    """
    distance = 2.0 * abs(math.sin(phi / 2.0))
    if distance < 0.09:
        raise ValueError(f"the oracle needs |phi| >= 0.1, got {phi}")
    eps0 = min(1.0 / 16.0, distance / 4.0)
    grid = [eps0 * 0.5**j for j in range(7)]
    sums = []
    for eps in grid:
        n = np.arange(1, math.ceil(52.0 / eps) + 9, dtype=np.float64)
        sums.append(complex(np.sum(np.sqrt(n) * np.exp(n * complex(math.log1p(-eps), phi)))))
    return neville_at_zero(grid, sums)
