"""Test-side oracles that share no code with the library.

``duality_matrix`` is the basis change U written out entry by entry from
its exp formula, the reference that pins the library's FFT convention.
``abel_kernel`` is the definition of g taken literally: the Abel limit
r -> 1- of the divergent series sum sqrt(n) (r e^{i phi})^n, from damped
partial sums extrapolated polynomially in (1 - r).
``site_operator_entries`` is the circle-site a, a^dag, x or p formed the
direct way, through an N x N difference-index array, and
``level_operator_entries`` the same kinds over the levels, from
a|n> = sqrt(n)|n-1> written entry by entry.  ``reference_csv`` and
``reference_json`` are the artifact writers cell by cell: every value goes
through one scalar formatter, every JSON array through one recursive
renderer; ``reference_fields`` is the text of one writer block by the same
formatter.  ``companion_roots`` finds the roots of S_n as eigenvalues of
the companion matrix (``np.roots``) polished by one Newton step,
``dense_disk_gap`` checks inclusion disks through the full (disks x disks)
gap matrix, and ``horner_giant_steps`` sums the zero finder's blocks by
Horner's rule in the giant step.
``gaussian_states_one_by_one`` draws random states one per call, n real
then n imaginary parts, each over its ``np.linalg.norm``.
``duality_gaps_per_residue`` is the transport-theorem gap one residue at a
time: its own step phases, one (states x N) FFT and an ``np.roll`` per
distinct residue k mod N.
``map_to_z`` inverts the library's sheet map y = 4 z / (1 + z)**2 onto
either sheet, one point at a time in cmath; it raises the library's error
types, so a test can expect the same errors from both directions.
"""

import cmath
import json
import math

import numpy as np

from circledual.errors import DomainError, PoleError


def duality_matrix(n):
    """Dense U[s, m] = exp(2j*pi*m*s/n)/sqrt(n), the phase index reduced mod n."""
    idx = np.arange(n)
    return np.exp(2j * np.pi * (np.outer(idx, idx) % n) / n) / np.sqrt(n)


def gaussian_states_one_by_one(trials, n, rng):
    """trials normalized Gaussian states, one standard_normal pair and one norm per state."""
    rows = []
    for _ in range(trials):
        amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rows.append(amps / np.linalg.norm(amps))
    return np.array(rows)


def duality_gaps_per_residue(amplitudes, ks):
    """Per-k max gap between evolved and rotated Born weights, one FFT per distinct k mod N."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    dim = amps.shape[1]
    levels = np.arange(dim)

    def weights(site_amplitudes):
        squared = np.abs(site_amplitudes) ** 2
        return squared / np.sum(squared, axis=-1, keepdims=True)

    initial = weights(np.fft.ifft(amps, axis=-1, norm="ortho"))
    residues = [k % dim for k in ks]
    gap = {}
    for r in dict.fromkeys(residues):
        phases = np.exp(-2j * np.pi * ((levels * r) % dim) / dim)
        quantum = weights(np.fft.ifft(phases * amps, axis=-1, norm="ortho"))
        gap[r] = np.max(np.abs(quantum - np.roll(initial, r, axis=1)))
    return np.array([gap[r] for r in residues])


def site_operator_entries(which, n):
    """a[s1, s2] = e^{-2j*pi*s1/n} ifft(sqrt(0..n-1))[(s1 - s2) mod n], then a^H, x, p."""
    sites = np.arange(n)
    kernel_by_diff = np.fft.ifft(np.sqrt(sites))
    kernel = kernel_by_diff[np.mod(sites[:, None] - sites[None, :], n)]
    return _kind(which, np.exp(-2j * np.pi * sites / n)[:, None] * kernel)


def level_operator_entries(which, n):
    """a[m, m + 1] = sqrt(m + 1) over the n levels, then a^H, x, p."""
    a = np.zeros((n, n), dtype=np.complex128)
    for m in range(n - 1):
        a[m, m + 1] = math.sqrt(m + 1)
    return _kind(which, a)


def _kind(which, a):
    """a, a^H, x = (a + a^H)/sqrt(2) or p = 1j*(a^H - a)/sqrt(2)."""
    adag = a.conj().T
    if which == "a":
        return a
    if which == "adag":
        return adag
    if which == "x":
        return (a + adag) / math.sqrt(2.0)
    return 1j * (adag - a) / math.sqrt(2.0)


def _reference_number(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value, ".17g")


def _reference_render(obj, indent=0):
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {_reference_render(val, indent + 1)}"
            for key, val in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_reference_render(v, indent + 1) for v in obj) + "]"
    return _reference_number(obj)


def reference_csv(fig):
    """The CSV artifact of a FigureData as bytes: header, then one row per loop turn."""
    names = list(fig.columns)
    arrays = [np.asarray(fig.columns[name]) for name in names]
    lines = [",".join(names)]
    lines.extend(",".join(_reference_number(value) for value in row) for row in zip(*arrays))
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_json(fig):
    """The JSON artifact of a FigureData as bytes, metadata and columns alike rendered recursively."""
    payload = {"metadata": fig.metadata, "columns": dict(fig.columns)}
    return (_reference_render(payload) + "\n").encode("utf-8")


def reference_fields(columns, seps):
    """Rows of the columns as bytes, cell by cell, each field followed by its column's separator."""
    arrays = [np.asarray(column) for column in columns]
    rows = ("".join(_reference_number(arr[i]) + sep for arr, sep in zip(arrays, seps))
            for i in range(len(arrays[0])))
    return "".join(rows).encode("utf-8")


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


def companion_roots(n):
    """All roots of S_n(z) = sum_{k=1}^{n} sqrt(k) z^k.

    Eigenvalues of the companion matrix, then one Newton step each.
    """
    coeffs = np.concatenate([np.sqrt(np.arange(n, 0, -1, dtype=np.float64)), [0.0]])
    roots = np.roots(coeffs).astype(np.complex128)
    slopes = np.polyval(coeffs[:-1] * np.arange(n, 0, -1), roots)
    safe = slopes != 0
    roots[safe] -= np.polyval(coeffs, roots[safe]) / slopes[safe]
    return roots


def dense_disk_gap(centers, radii):
    """The smallest gap |c_i - c_j| - r_i - r_j over every pair of distinct disks.

    The full gap matrix, each pair in both rounding orders, its diagonal excluded; an
    infinite radius gives -inf.
    """
    gaps = np.abs(centers[:, None] - centers) - radii[:, None] - radii
    np.fill_diagonal(gaps, np.inf)
    return float(np.min(gaps))


def horner_giant_steps(inner, giant):
    """sum_b inner[:, b] giant^b for (points, blocks, columns) block sums, by Horner's rule
    in giant, one block per step from the last."""
    acc = inner[:, -1]
    for b in range(inner.shape[1] - 2, -1, -1):
        acc = acc * giant[:, None] + inner[:, b]
    return acc


def map_to_z(y, sheet=1):
    """Invert y = 4 z / (1 + z)**2 onto the requested sheet.

    The stable algebraic forms are z = y / (1 + w)**2 on sheet 1 and
    z = (1 + w)**2 / y on sheet 2, with w the principal sqrt(1 - y); the
    two are exact reciprocals, and neither cancels for small |y| the way
    the textbook -1 + (2/y)(1 -+ w) does.  The principal branch puts the
    cut on real y > 1: approach it with an explicit +-0j imaginary part to
    choose a side.  y = 0 maps to z = 0 on sheet 1 and to infinity on sheet 2.
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
