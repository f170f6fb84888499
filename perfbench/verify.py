"""Independent checks of the artifacts the benchmark's ops write.

Each reference is built from the paper's formulas with numpy or mpmath,
never from circledual, so a wrong program route cannot agree with itself:

- transport: the artifact's own deviation and pass flag, and for ``evolve``
  the Born weights recomputed with an FFT, using U psi = sqrt(N) ifft(psi)
  for U[s, n] = exp(2 pi i n s / N) / sqrt(N).
- elements: a seeded sample of entries recomputed as
  sum_n U[s1, n] sqrt(n + 1) conj(U[s2, n + 1]), with x and p from a and a^dag.
- special: mpmath at 30 digits, polylog(3/2, .) for f, F and F2 and
  polylog(-1/2, .) for g, G and G2; numpy residuals for the zeros; the sheet
  map y = 4z / (1 + z)^2 for map-domains.

``check`` returns a ``Verdict``; it never raises for a wrong artifact.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

DUALITY_TOL = 1e-10
WEIGHT_TOL = 1e-12
ELEMENT_TOL = 1e-10
SERIES_TOL = 1e-12  # SeriesAccuracy.abs_tol, the evaluators' contract
SAMPLED_ENTRIES = 48
SAMPLED_ROWS = 12


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    # values whose distance from the reference exceeds their own error_estimate
    estimate_misses: int = 0


class Mismatch(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def check(argv: list[str], path: str) -> Verdict:
    flags = _flags(argv)
    try:
        return _CHECKS[argv[0]](flags, path)
    except Mismatch as exc:
        return Verdict(False, str(exc))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Verdict(False, f"unreadable artifact: {type(exc).__name__}: {exc}")


def _flags(argv: list[str]) -> dict[str, str]:
    out = {}
    for token in argv[1:]:
        key, _, value = token.partition("=")
        out[key.lstrip("-")] = value
    return out


def _read(path: str, fmt: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(parameters, columns) of a CSV or JSON artifact."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        payload = json.loads(text)
        columns = {k: np.asarray(v, dtype=np.float64) for k, v in payload["columns"].items()}
        return payload["metadata"]["parameters"], columns
    lines = text.rstrip("\n").split("\n")
    names = lines[0].split(",")
    data = np.array([line.split(",") for line in lines[1:]], dtype=np.float64).reshape(-1, len(names))
    return {}, {name: data[:, i] for i, name in enumerate(names)}


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().rstrip("\n").split("\n")


# --------------------------------------------------------------------------
# transport


def _check_duality(flags, path) -> Verdict:
    n = int(flags["n"])
    params, cols = _read(path, flags.get("format", "json"))
    _expect(np.array_equal(cols["k"], np.arange(2 * n + 1)), "k column is not 0..2n")
    dev = cols["max_deviation"]
    _expect(bool(np.all(dev <= DUALITY_TOL)), f"deviation {dev.max():.3e} > {DUALITY_TOL}")
    _expect(params["passed"] is True, "report says passed = false")
    _expect(params["max_deviation"] == float(dev.max()), "overall deviation != max over k")
    return Verdict(True)


def _dft_weights(psi: np.ndarray) -> np.ndarray:
    amps = math.sqrt(psi.size) * np.fft.ifft(psi)
    weights = np.abs(amps) ** 2
    return weights / weights.sum()


def _initial_energy_state(state: str, n: int, seed: int) -> np.ndarray:
    if state == "random":
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return amps / np.linalg.norm(amps)
    kind, _, index = state.partition(":")
    one_hot = np.zeros(n, dtype=np.complex128)
    one_hot[int(index)] = 1.0
    if kind == "energy":
        return one_hot
    return np.fft.fft(one_hot) / math.sqrt(n)  # U^dagger |s>


def _check_evolve(flags, path) -> Verdict:
    n, omega = int(flags["n"]), float(flags["omega"])
    psi = _initial_energy_state(flags["state"], n, int(flags["seed"]))
    if "steps" in flags:
        steps = int(flags["steps"])
        t = 2.0 * math.pi * steps / (n * omega)
    else:
        t = float(flags["time"])
    evolved = np.exp(-1j * np.arange(n) * omega * t) * psi
    initial, final = _dft_weights(psi), _dft_weights(evolved)
    params, cols = _read(path, flags.get("format", "csv"))
    _expect(np.array_equal(cols["site"], np.arange(n)), "site column is not 0..n-1")
    gap = np.max(np.abs(cols["weight_initial"] - initial))
    _expect(gap <= WEIGHT_TOL, f"weight_initial off the FFT reference by {gap:.3e}")
    gap = np.max(np.abs(cols["weight_quantum"] - final))
    _expect(gap <= WEIGHT_TOL, f"weight_quantum off the FFT reference by {gap:.3e}")
    if "steps" in flags:
        gap = np.max(np.abs(cols["weight_transport"] - np.roll(initial, steps)))
        _expect(gap <= WEIGHT_TOL, f"weight_transport off the rotated reference by {gap:.3e}")
        moved = np.max(np.abs(cols["weight_transport"] - cols["weight_quantum"]))
        _expect(moved <= DUALITY_TOL, f"transport theorem gap {moved:.3e} > {DUALITY_TOL}")
    return Verdict(True)


# --------------------------------------------------------------------------
# elements


def _duality_entry(s: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """U[s, m] with the phase reduced mod n before scaling."""
    return np.exp(2j * np.pi * np.mod(np.multiply.outer(s, m), n) / n) / math.sqrt(n)


def _lowering_entries(s1: np.ndarray, s2: np.ndarray, n: int) -> np.ndarray:
    """<s1|a|s2> = sum_m U[s1, m] sqrt(m + 1) conj(U[s2, m + 1])."""
    m = np.arange(n - 1)
    terms = _duality_entry(s1, m, n) * np.sqrt(m + 1.0) * np.conj(_duality_entry(s2, m + 1, n))
    return terms.sum(axis=1)


def _reference_elements(kind: str, s1: np.ndarray, s2: np.ndarray, n: int) -> np.ndarray:
    a = _lowering_entries(s1, s2, n)
    adag = np.conj(_lowering_entries(s2, s1, n))
    return {
        "a": a,
        "adag": adag,
        "x": (a + adag) / math.sqrt(2.0),
        "p": 1j * (adag - a) / math.sqrt(2.0),
    }[kind]


def _check_elements(flags, path) -> Verdict:
    n = int(flags["n"])
    which = flags.get("which", "all")
    kinds = ("a", "adag", "x", "p") if which == "all" else (which,)
    rng = random.Random(f"{n}:{which}")
    rows = sorted({0, n * n - 1, *(rng.randrange(n * n) for _ in range(SAMPLED_ENTRIES))})
    s1, s2 = np.array(rows) // n, np.array(rows) % n
    if flags.get("format", "csv") == "json":
        params, cols = _read(path, "json")
        _expect(params["passed"] is True, "report says passed = false")
        _expect(len(cols["s1"]) == n * n, f"{len(cols['s1'])} rows, expected {n * n}")
        picked = {name: col[rows] for name, col in cols.items()}
    else:
        lines = _read_lines(path)
        names = lines[0].split(",")
        _expect(len(lines) == n * n + 1, f"{len(lines) - 1} rows, expected {n * n}")
        data = np.array([lines[1 + r].split(",") for r in rows], dtype=np.float64)
        picked = {name: data[:, i] for i, name in enumerate(names)}
    _expect(np.array_equal(picked["s1"], s1) and np.array_equal(picked["s2"], s2),
            "site columns are not row-major")
    for kind in kinds:
        ref = _reference_elements(kind, s1, s2, n)
        got = picked[f"re_{kind}"] + 1j * picked[f"im_{kind}"]
        gap = float(np.max(np.abs(got - ref)))
        _expect(gap <= ELEMENT_TOL, f"{kind} entries off the reference by {gap:.3e}")
    return Verdict(True)


def _check_spectrum(flags, path) -> Verdict:
    n, omega = int(flags["n"]), float(flags["omega"])
    _, cols = _read(path, flags.get("format", "csv"))
    _expect(np.array_equal(cols["level"], np.arange(n)), "level column is not 0..n-1")
    _expect(np.array_equal(cols["energy"], np.arange(n) * omega), "energy != level * omega")
    return Verdict(True)


# --------------------------------------------------------------------------
# special


def _polylog(s: float, z: complex) -> complex:
    import mpmath

    with mpmath.workdps(30):
        return complex(mpmath.polylog(s, mpmath.mpc(z.real, z.imag)))


_POINT_FUNCTIONS = {
    # function: (polylog order, evaluate at 1/z)
    "F": (1.5, False),
    "F2": (1.5, True),
    "G": (-0.5, False),
    "G2": (-0.5, True),
}


def _check_auxfun(flags, path) -> Verdict:
    function = flags["function"]
    _, cols = _read(path, flags.get("format", "csv"))
    if function in ("f", "g"):
        angles = [float(tok) for tok in flags["phi"].split(",")]
        _expect(np.array_equal(cols["phi"], angles), "phi column != requested angles")
        order = 1.5 if function == "f" else -0.5
        points = [complex(math.cos(p), math.sin(p)) for p in angles]
    else:
        points = [complex(float(a), float(b)) for a, b in
                  (tok.split(":") for tok in flags["z"].split(","))]
        _expect(np.array_equal(cols["re_z"], [z.real for z in points])
                and np.array_equal(cols["im_z"], [z.imag for z in points]),
                "z columns != requested points")
        order, invert = _POINT_FUNCTIONS[function]
        if invert:
            points = [1.0 / z for z in points]
    misses = 0
    for i, z in enumerate(points):
        ref = _polylog(order, z)
        got = complex(cols["re"][i], cols["im"][i])
        gap = abs(got - ref)
        tol = max(1e-6, 1e-4 * abs(ref)) if function == "g" else SERIES_TOL
        _expect(gap <= tol, f"{function} at {z!r}: off mpmath by {gap:.3e} > {tol:.1e}")
        misses += int(gap > cols["error_estimate"][i])
    return Verdict(True, estimate_misses=misses)


def _check_zeros(flags, path) -> Verdict:
    n = int(flags["n"])
    _, cols = _read(path, flags.get("format", "json"))
    roots = cols["re"] + 1j * cols["im"]
    _expect(roots.size == n, f"{roots.size} roots, expected {n}")
    coeffs = np.sqrt(np.arange(1, n + 1, dtype=np.float64))
    values = np.polyval(np.concatenate([coeffs[::-1], [0.0]]), roots)
    bound = 1e-8 * float(coeffs.sum())
    worst = float(np.max(np.abs(values)))
    _expect(worst <= bound, f"root residual {worst:.3e} > {bound:.3e}")
    return Verdict(True)


def _check_f_curve(flags, path) -> Verdict:
    samples = int(flags["samples"])
    _, cols = _read(path, flags.get("format", "csv"))
    _expect(cols["phi"].size == samples + 1, f"{cols['phi'].size} rows, expected {samples + 1}")
    phi = -math.pi + 2.0 * math.pi * np.arange(samples + 1) / samples
    _expect(np.array_equal(cols["phi"], phi), "phi grid is not [-pi, pi] in equal steps")
    rng = random.Random(samples)
    for i in sorted({0, samples, *(rng.randrange(samples + 1) for _ in range(SAMPLED_ROWS))}):
        ref = _polylog(1.5, complex(math.cos(phi[i]), math.sin(phi[i])))
        gap = abs(complex(cols["re_f"][i], cols["im_f"][i]) - ref)
        _expect(gap <= SERIES_TOL, f"f({phi[i]!r}) off mpmath by {gap:.3e}")
    return Verdict(True)


def _check_map_domains(flags, path) -> Verdict:
    samples = int(flags["samples"])
    _, cols = _read(path, flags.get("format", "csv"))
    radii = 0.05 * np.arange(1, 21)
    _expect(cols["radius"].size == radii.size * (samples + 1), "row count != radii x (samples + 1)")
    rng = random.Random(samples)
    for i in sorted(rng.randrange(cols["radius"].size) for _ in range(SAMPLED_ROWS * 4)):
        z = cols["radius"][i] * complex(math.cos(cols["theta"][i]), math.sin(cols["theta"][i]))
        ref = 4.0 * z / (1.0 + z) ** 2
        gap = abs(complex(cols["re_y"][i], cols["im_y"][i]) - ref)
        _expect(gap <= 1e-12 * max(1.0, abs(ref)), f"y at row {i} off 4z/(1+z)^2 by {gap:.3e}")
    return Verdict(True)


_CHECKS = {
    "duality-check": _check_duality,
    "evolve": _check_evolve,
    "matrix-elements": _check_elements,
    "spectrum": _check_spectrum,
    "auxfun-eval": _check_auxfun,
    "zeros": _check_zeros,
    "f-curve": _check_f_curve,
    "map-domains": _check_map_domains,
}
