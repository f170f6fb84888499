"""Acceptance suite: every shipping criterion at its contracted tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (run with
`pytest -s tests/test_acceptance.py` to see them live) and then asserts.
"""

import cmath
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from circledual import (
    build_hamiltonian,
    conjugate_to_ontological,
    duality_deviations,
    level_matrix,
    li_three_halves_circle,
    map_to_y,
    ontological_matrix,
    random_states,
    sqrt_series_disk,
    sqrt_series_sheet2,
    sqrt_series_zeros,
)
from circledual import angle_kernel
from circledual.cli import main
from circledual.hilbert import to_sites
from oracles import abel_kernel, map_to_z, neville_at_zero

SRC = str(Path(__file__).resolve().parent.parent / "src")


def report(number, label, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({label}): {verdict} — {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_unitarity():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 11, 64, 256, 1024):
        u = to_sites(np.eye(n))  # the U the library applies, column by column
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(n)))))
    elapsed = time.perf_counter() - start
    report(
        1,
        "duality-map unitarity",
        worst <= 1e-12 and elapsed < 5.0,
        f"max defect {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_spectrum():
    n = 11
    h = build_hamiltonian(n)
    diagonal = np.diag(h.entries)
    exact = np.array_equal(diagonal.real, np.arange(11.0)) and np.all(diagonal.imag == 0.0)
    h_site = conjugate_to_ontological(h)
    eig_gap = float(np.max(np.abs(np.sort(np.linalg.eigvalsh(h_site.entries)) - np.arange(11.0))))
    report(
        2,
        "spectrum reproduction",
        exact and eig_gap <= 1e-9,
        f"levels exact: {exact}, site-basis eigenvalue gap {eig_gap:.2e}",
    )


def test_criterion_03_stroboscopic_duality():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in (2, 3, 11, 64, 256):
        states = random_states(100, n, rng)
        worst = max(worst, float(np.max(duality_deviations(states, range(2 * n + 1)))))
    elapsed = time.perf_counter() - start
    report(
        3,
        "stroboscopic duality",
        worst <= 1e-10 and elapsed < 60.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_closed_form_elements():
    # all four kinds up to N = 2048, and a also at the CLI's ceiling N = 4096
    cases = [(n, kind) for n in (2, 16, 64, 256, 1024, 2048) for kind in ("a", "adag", "x", "p")]
    worst = 0.0
    for n, kind in cases + [(4096, "a")]:
        closed = ontological_matrix(kind, n).entries
        conjugated = conjugate_to_ontological(level_matrix(kind, n)).entries
        worst = max(worst, float(np.max(np.abs(closed - conjugated))))
        del closed, conjugated
    report(
        4,
        "closed-form matrix elements",
        worst <= 1e-10,
        f"max |closed - conjugated| = {worst:.2e}",
    )


def test_criterion_05_hermiticity_and_reality():
    worst_defect = 0.0
    for n in (2, 3, 11, 64, 128, 256, 1024, 2048):
        for kind in ("x", "p"):
            site = conjugate_to_ontological(level_matrix(kind, n))
            worst_defect = max(worst_defect, site.hermiticity_defect())
    # the closed-form x and p are hermitian by construction at every size
    for n in (384, 1024, 2048):
        for kind in ("x", "p"):
            worst_defect = max(worst_defect, ontological_matrix(kind, n).hermiticity_defect())
    rng = np.random.default_rng(1)
    worst_reality = 0.0
    for _ in range(1000):
        radius = (1.0 - 1e-5) * math.sqrt(rng.uniform())
        z = radius * cmath.exp(2j * math.pi * rng.uniform())
        direct = sqrt_series_disk(z).value
        mirrored = sqrt_series_disk(z.conjugate()).value
        worst_reality = max(worst_reality, abs(direct.conjugate() - mirrored))
    report(
        5,
        "hermiticity and reality",
        worst_defect <= 1e-12 and worst_reality <= 1e-12,
        f"hermiticity defect {worst_defect:.2e}, reality gap {worst_reality:.2e}",
    )


def test_criterion_06_truncation_commutator():
    worst = 0.0
    for n in (2, 4, 64):
        x, p = level_matrix("x", n).entries, level_matrix("p", n).entries
        defect = x @ p - p @ x
        expected = 1j * np.eye(n)
        expected[n - 1, n - 1] = 1j * (1.0 - n)
        worst = max(worst, float(np.max(np.abs(defect - expected))))
    report(
        6,
        "truncation commutator",
        worst <= 1e-10,
        f"max entrywise gap {worst:.2e}",
    )


def test_criterion_07_f_values():
    terms = 10_000_000
    n = np.arange(1, terms + 1, dtype=np.float64)
    partial = float(np.sum(n**-1.5))
    a = float(terms + 1)
    oracle = partial + 2.0 * a**-0.5 + 0.5 * a**-1.5 + 0.125 * a**-2.5

    f0_gap = abs(li_three_halves_circle(0.0).value - oracle)
    pi_imag = abs(li_three_halves_circle(math.pi).value.imag)
    rng = np.random.default_rng(2)
    worst_conj = 0.0
    for _ in range(100):
        phi = rng.uniform(1e-3, math.pi)
        plus = li_three_halves_circle(phi).value
        minus = li_three_halves_circle(-phi).value
        worst_conj = max(worst_conj, abs(minus - plus.conjugate()))
    report(
        7,
        "F/f evaluation",
        f0_gap <= 1e-8 and pi_imag <= 1e-8 and worst_conj <= 1e-8,
        f"f(0) gap {f0_gap:.2e}, Im f(pi) {pi_imag:.2e}, conj gap {worst_conj:.2e}",
    )


def test_criterion_08_kernel_consistency():
    rng = np.random.default_rng(3)
    angles = rng.uniform(0.1, math.pi, size=25)
    angles = np.concatenate([angles, -rng.uniform(0.1, math.pi, size=25)])
    worst_ratio = 0.0
    for phi in angles:
        expansion = angle_kernel(float(phi))
        abel = abel_kernel(float(phi))
        tolerance = max(1e-6, 1e-4 * abs(expansion.value))
        worst_ratio = max(worst_ratio, abs(expansion.value - abel) / tolerance)
    report(
        8,
        "kernel route agreement",
        worst_ratio <= 1.0,
        f"worst disagreement at {worst_ratio:.3f} of tolerance over 50 angles",
    )


def test_criterion_09_sheet_algebra():
    rng = np.random.default_rng(4)
    worst_trip = 0.0
    worst_product = 0.0
    count = 0
    while count < 1000:
        y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(y.imag) < 1e-6 and y.real >= 0.99:
            continue  # off the cut, where a side must be chosen explicitly
        if abs(y) < 1e-12:
            continue
        count += 1
        z1 = map_to_z(y, 1)
        z2 = map_to_z(y, 2)
        worst_trip = max(worst_trip, abs(map_to_y(z1) - y) / max(1.0, abs(y)))
        worst_product = max(worst_product, abs(z1 * z2 - 1.0))

    eps = [0.04 * 0.5**j for j in range(7)]
    worst_match = 0.0
    for j in range(1, 17):
        phi = 2.0 * math.pi * j / 17.0
        inside = neville_at_zero(
            eps, [sqrt_series_disk((1 - e) * cmath.exp(1j * phi)).value for e in eps]
        )
        outside = neville_at_zero(
            eps, [sqrt_series_sheet2((1 + e) * cmath.exp(1j * phi)).value for e in eps]
        )
        worst_match = max(worst_match, abs(outside - inside.conjugate()))
    report(
        9,
        "sheet algebra",
        worst_trip <= 1e-12 and worst_product <= 1e-12 and worst_match <= 1e-4,
        f"round trip {worst_trip:.2e}, sheet product {worst_product:.2e}, "
        f"boundary match {worst_match:.2e}",
    )


def test_criterion_10_zeros():
    start = time.perf_counter()
    fractions = []
    residual_ok = True
    # reported, not gated: the radial approach n (1 - min|z|) / log n, and the
    # asymptotic start's prediction at z = -1, where |z|^(n+1) = |2 S(-1)| / sqrt(n+1)
    log_two_s = math.log(abs(2.0 * angle_kernel(math.pi).value))  # S(-1) = g(pi)
    approach = []
    for degree in (16, 64, 256, 512):
        zero_set = sqrt_series_zeros(degree)
        # the enforced bound: 1e-8 times the largest coefficient, sqrt(degree)
        residual_ok = residual_ok and zero_set.residual <= 1e-8 * math.sqrt(degree)
        fractions.append(zero_set.near_circle_fraction())
        inner = np.min(np.abs(zero_set.roots[zero_set.roots != 0]))
        predicted = degree / (degree + 1) * (0.5 * math.log(degree + 1) - log_two_s)
        approach.append(
            f"{degree}: {degree * (1.0 - inner) / math.log(degree):.3f}"
            f" (predicted {predicted / math.log(degree):.3f})"
        )
    elapsed = time.perf_counter() - start
    monotone = fractions == sorted(fractions)
    report(
        10,
        "kernel polynomial zeros",
        residual_ok and monotone and elapsed < 120.0,
        f"near-circle fractions {[f'{f:.3f}' for f in fractions]}, "
        f"n (1 - min|z|) / log n {', '.join(approach)}, {elapsed:.1f}s",
    )


def test_criterion_11_cli_determinism(tmp_path):
    figure_commands = {
        "spectrum": ["spectrum", "--n", "11"],
        "f-curve": ["f-curve"],
        "map-domains": ["map-domains"],
    }
    slowest = 0.0
    identical = True
    for name, argv in figure_commands.items():
        artifacts = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}.csv"
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "circledual", *argv, "--out", str(out)],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            )
            slowest = max(slowest, time.perf_counter() - start)
            assert proc.returncode == 0, proc.stderr
            artifacts.append(out.read_bytes())
        identical = identical and artifacts[0] == artifacts[1]
    # a seeded random suite must also reproduce byte-for-byte
    for attempt in ("a", "b"):
        out = tmp_path / f"duality-{attempt}.json"
        assert main(["duality-check", "--n", "11", "--trials", "100", "--seed", "7",
                     "--out", str(out)]) == 0
    identical = identical and (
        (tmp_path / "duality-a.json").read_bytes()
        == (tmp_path / "duality-b.json").read_bytes()
    )
    report(
        11,
        "CLI determinism",
        identical and slowest < 30.0,
        f"byte-identical: {identical}, slowest figure command {slowest:.1f}s",
    )
