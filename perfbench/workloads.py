"""Seeded, stratified op lists for the three benchmark workloads.

An op is the argv of one ``circledual`` command without ``--out``.  Every
workload is a fixed table of strata: each stratum has an exact op count and
a value range, and the seed only picks values inside the ranges.  So every
seed runs the same number of ops of each size class, format and angle
decade, and the cost of a pass moves little from seed to seed.  Values are
always passed as ``--flag=value``: argparse reads ``--phi -0.3,0.5`` as an
unknown flag.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("transport", "elements", "special")
MIN_OPS = 100  # ops per list, so that at least 10 lie beyond p90

# One untimed op per workload, run before measuring: the first call of a
# command pays for lazy imports and numpy/BLAS first-touch set-up.
WARMUP = {
    "transport": ["duality-check", "--n=64", "--trials=2"],
    "elements": ["matrix-elements", "--n=48", "--which=all", "--format=json"],
    "special": ["auxfun-eval", "--function=g", "--phi=0.5"],
}

# Inputs on which the program is known to break its own contract.  They are
# run untimed after the measured passes of their workload and reported
# apart from it, so the timed workloads hold only ops that succeed (see
# README.md, "Known failures").
PROBES = {
    "transport": [],
    "elements": [
        # hermiticity check with the absolute HERMITICITY_TOL raises
        # ValueError for x and p at N = 384 (and at scattered N >= 261)
        ["matrix-elements", "--n=384", "--which=x"],
        ["matrix-elements", "--n=384", "--which=p"],
    ],
    "special": [
        # direct summation of S(z) misses the 1e-12 absolute contract from
        # 1 - |z| ~ 0.01 inwards, with error estimates near 1e-14
        ["auxfun-eval", "--function=G", "--z=-0.5975203825340357:-0.7893474472349801"],
        ["auxfun-eval", "--function=G", "--z=-0.999:0.0"],
        ["auxfun-eval", "--function=G2", "--z=1.0001:0.0"],
    ],
}


def make_ops(workload: str, seed: int) -> list[list[str]]:
    """The workload's op list for ``seed``, in a seeded random order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = {"transport": _transport, "elements": _elements, "special": _special}[workload](rng)
    assert len(ops) >= MIN_OPS, (workload, len(ops))
    rng.shuffle(ops)
    return ops


def _ints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers, one from each equal slice of [lo, hi]."""
    width = (hi - lo + 1) / count
    return [lo + int(width * i + rng.random() * width) for i in range(count)]


def _floats(rng: random.Random, lo: float, hi: float, count: int, log: bool = False) -> list[float]:
    """``count`` floats, one from each equal (or log-equal) slice of [lo, hi]."""
    if log:
        return [math.exp(x) for x in _floats(rng, math.log(lo), math.log(hi), count)]
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _points(values) -> str:
    return ",".join(f"{z.real!r}:{z.imag!r}" for z in values)


# --------------------------------------------------------------------------
# transport: duality map, Born weights, stroboscopic transport

# Percentiles are taken over ops sorted by cost, so the ops around the p50
# and p90 ranks of each workload come from one narrow stratum: a seed then
# moves those ranks' costs little.

# (n range, duality_deviation calls per op, ops): trials = calls / (2n + 1).
# Small n runs many trials at about 200 calls, the p50 block; n in 160..176
# with one trial is the p90 block.  The strata next to a block stay clear of
# its cost.
_DUALITY_STRATA = (
    ((8, 32), (195, 205), 30),
    ((33, 44), (1, 1), 10),
    ((104, 128), (1, 1), 6),
    ((160, 176), (1, 1), 12),
    ((224, 288), (1, 1), 2),
    ((480, 512), (1, 1), 1),
)
# (n range, ops); the top stratum sets peak memory through the dense map
_EVOLVE_STRATA = (
    ((64, 256), 35),
    ((480, 640), 8),
    ((1025, 2048), 1),
    ((4064, 4096), 1),
)
_STATES = ("random", "ont", "energy")


def _transport(rng: random.Random) -> list[list[str]]:
    ops = []
    for (n_lo, n_hi), (c_lo, c_hi), count in _DUALITY_STRATA:
        for n in _ints(rng, n_lo, n_hi, count):
            trials = max(1, round(rng.uniform(c_lo, c_hi) / (2 * n + 1)))
            ops.append([
                "duality-check", f"--n={n}", f"--trials={trials}",
                f"--omega={rng.uniform(0.5, 2.0)!r}", f"--seed={rng.randrange(2**31)}",
            ])
    for (n_lo, n_hi), count in _EVOLVE_STRATA:
        # exact shares per stratum: states cycle, 70 % --steps and 30 % --time
        n_steps = round(0.7 * count)
        for i, n in enumerate(_ints(rng, n_lo, n_hi, count)):
            kind = _STATES[i % 3]
            if kind == "random":
                state = "random"
            elif kind == "ont":
                state = f"ont:{rng.randrange(n)}"
            else:
                state = f"energy:{rng.randrange(n)}"
            if i < n_steps:
                when = f"--steps={rng.randint(-2 * n, 2 * n)}"
            else:
                when = f"--time={rng.uniform(-20.0, 20.0)!r}"
            ops.append([
                "evolve", f"--n={n}", f"--state={state}", when,
                f"--omega={rng.uniform(0.5, 2.0)!r}", f"--seed={rng.randrange(2**31)}",
            ])
    return ops


# --------------------------------------------------------------------------
# elements: operator build, conjugation and the CSV/JSON writer

# (n range, which cycle, format cycle, ops).  The 12 JSON ops at n in
# 100..112 are the p90 block; spectrum ops make the p50 region.  x, p and
# all stop at n = 256: from 261 up the hermiticity check fails at scattered
# n (see PROBES).
_ELEMENT_STRATA = (
    ((8, 48), ("a", "adag", "x", "p", "all"), ("csv", "json"), 30),
    ((49, 96), ("a", "adag", "x", "p", "all"), ("csv",), 10),
    ((100, 112), ("a", "adag", "x", "p"), ("json",), 12),
    ((129, 192), ("a", "x"), ("csv", "json"), 2),
    ((224, 256), ("x", "p"), ("csv", "json"), 2),
    ((376, 384), ("a", "adag"), ("csv", "json"), 2),
)


def _elements(rng: random.Random) -> list[list[str]]:
    ops = []
    for (n_lo, n_hi), kinds, formats, count in _ELEMENT_STRATA:
        for i, n in enumerate(_ints(rng, n_lo, n_hi, count)):
            ops.append([
                "matrix-elements", f"--n={n}", f"--which={kinds[i % len(kinds)]}",
                f"--format={formats[i % len(formats)]}",
            ])
    for i, n in enumerate(_ints(rng, 8, 4096, 52)):
        ops.append([
            "spectrum", f"--n={n}", f"--omega={rng.uniform(0.1, 10.0)!r}",
            f"--format={('csv', 'json')[i % 2]}",
        ])
    return ops


# --------------------------------------------------------------------------
# special: F, f, g, S, its zeros and the sheet map

# g costs about 1.5 s * (1e-3 / phi): the lowest decade is sampled in three
# narrow bands so that its cost, most of the workload's, barely moves with
# the seed.  The other decades are cheap and drawn freely.
_G_BANDS = ((1.0e-3, 1.1e-3), (2.0e-3, 2.2e-3), (5.0e-3, 5.5e-3))
_G_DECADES = ((1e-2, 1e-1, 6), (1e-1, 1.0, 6), (1.0, math.pi, 6))
# 1 - |z| per point of an F/G op: one point per band
_DISK_GAPS_F = ((0.3, 0.9), (0.03, 0.3), (3e-3, 3e-2), (1e-4, 1e-3))
# G and G2 stop at 1 - |z| = 0.03, where their worst error is ~2e-13 (see PROBES)
_DISK_GAPS_G = ((0.3, 0.9), (0.1, 0.3), (0.05, 0.1), (0.03, 0.05))


def _disk_points(rng: random.Random, gaps, invert: bool) -> list[complex]:
    args = _floats(rng, -math.pi, math.pi, len(gaps))
    rng.shuffle(args)
    points = []
    for (lo, hi), theta in zip(gaps, args):
        gap = _floats(rng, lo, hi, 1, log=True)[0]
        z = (1.0 - gap) * complex(math.cos(theta), math.sin(theta))
        points.append(1.0 / z if invert else z)
    return points


def _special(rng: random.Random) -> list[list[str]]:
    ops = []
    g_angles = [_floats(rng, lo, hi, 1)[0] for lo, hi in _G_BANDS]
    for lo, hi, count in _G_DECADES:
        g_angles += _floats(rng, lo, hi, count, log=True)
    for phi in g_angles:
        ops.append(["auxfun-eval", "--function=g", f"--phi={rng.choice((-1, 1)) * phi!r}"])
    for _ in range(22):
        # |phi| >= 1e-3: closer to 0 the tail start of F exceeds its term budget
        angles = [rng.choice((-1, 1)) * p for p in _floats(rng, 1e-3, math.pi, 6, log=True)]
        ops.append(["auxfun-eval", "--function=f", f"--phi={_fmt(angles)}"])
    for function, gaps, invert in (
        ("F", _DISK_GAPS_F, False),
        ("G", _DISK_GAPS_G, False),
        ("F2", _DISK_GAPS_F, True),
        ("G2", _DISK_GAPS_G, True),
    ):
        for _ in range(10):
            points = _disk_points(rng, gaps, invert)
            ops.append(["auxfun-eval", f"--function={function}", f"--z={_points(points)}"])
    # degrees 240..256 are the p90 block
    for (lo, hi), count in (((16, 64), 4), ((240, 256), 14), ((480, 512), 1)):
        ops.extend(["zeros", f"--n={n}"] for n in _ints(rng, lo, hi, count))
    for (lo, hi) in ((60, 180), (360, 720), (1440, 2000)):
        ops.append(["f-curve", f"--samples={_ints(rng, lo, hi, 1)[0]}"])
    for (lo, hi) in ((51, 201), (301, 601), (701, 1001)):
        ops.append(["map-domains", f"--samples={2 * (_ints(rng, lo, hi, 1)[0] // 2) + 1}"])
    return ops
