"""Command-line front end.

Eight subcommands: duality-check, spectrum, matrix-elements, auxfun-eval,
zeros, map-domains, f-curve, evolve.  Each writes a CSV or JSON artifact
(column schemas in FORMATS.md) and exits 0 on success, 1 with a one-line
JSON error report on any invariant violation, 2 on unusable flags.  Output
is byte-identical across runs for identical flags and seed.

Each handler calls the library and returns the artifact with its failed
verdict, if any, against a fixed contract (``DUALITY_TOL``, ``ELEMENT_TOL``,
``CLOSURE_TOL``); only ``main`` writes artifacts and turns a failed verdict
into exit 1.  ``matrix-elements`` calls ``operators.compare_matrix_elements``
and ``evolve`` ``dynamics.evolve_report``; no private library name is imported.

``main(argv)`` may be called any number of times in one process: it parses
with one parser, built on the first call and kept for the life of the
process, and no call leaves state behind for the next.  That parser holds
the ``_cmd_*`` handlers themselves, so patching a ``_cmd_*`` name after the
first call has no effect; the handlers look up the library functions and
the tolerances at call time.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .auxfun import (
    angle_kernel,
    li_three_halves,
    li_three_halves_circle,
    li_three_halves_sheet2,
    sqrt_series,
    sqrt_series_disk,
    sqrt_series_sheet2,
    sqrt_series_zeros,
)
from .dynamics import evolve_report, sampled_duality_deviations
from .errors import CircleDualError, ConvergenceError, ZeroFindingError
from .figdata import (
    FigureData,
    emit_domain_map,
    emit_f_curve,
    emit_spectrum,
    make_metadata,
    write_figure,
)
from .hilbert import energy_state, ontological_state, random_state
from .operators import compare_matrix_elements

DUALITY_TOL = 1e-10
ELEMENT_TOL = 1e-10
CLOSURE_TOL = 1e-12
MAX_RADII = 10_000


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return value


def _step_count(text: str) -> int:
    value = int(text)
    try:
        float(value)
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(f"step count too large for a float time: {text}") from exc
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite_float(tok) for tok in text.split(",") if tok.strip() != ""]


def _radius_spec(text: str) -> list[float]:
    """Either 'start:stop:step' or a comma-separated list."""
    if ":" in text:
        try:
            start, stop, step = (_finite_float(tok) for tok in text.split(":"))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad radius range {text!r}") from exc
        if step <= 0:
            raise argparse.ArgumentTypeError("radius step must be positive")
        # bound the point count before building any list (it may be +-inf)
        steps = (stop - start) / step
        if not 0.0 <= steps <= MAX_RADII - 1:
            raise argparse.ArgumentTypeError(
                f"radius range {text!r} needs start <= stop and at most {MAX_RADII} radii"
            )
        count = int(round(steps))
        values = [start + k * step for k in range(count + 1)]
        # snap float drift of the last point, and only that, back onto the requested stop
        if abs(values[-1] - stop) <= 1e-9 * step:
            values[-1] = stop
        return values
    return _float_list(text)


def _complex_list(text: str) -> list[complex]:
    """Comma-separated re:im pairs, e.g. '0.3:0.4,2:1'."""
    points = []
    for tok in text.split(","):
        if tok.strip() == "":
            continue
        try:
            re_part, im_part = tok.split(":")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad complex point {tok!r}") from exc
        points.append(complex(_finite_float(re_part), _finite_float(im_part)))
    return points


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; never handed out, since callers share it."""
    parser = argparse.ArgumentParser(
        prog="circledual",
        description="Verification suites and figure data for the oscillator/circle correspondence.",
    )
    parser.add_argument("--version", action="version", version=f"circledual {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format):
        p.add_argument("--out", required=True, help="output artifact path")
        p.add_argument("--format", choices=("csv", "json"), default=default_format)

    p = sub.add_parser("duality-check", help="stroboscopic transport theorem on random states")
    p.add_argument("--n", type=_positive_int, default=11)
    p.add_argument("--omega", type=_positive_float, default=1.0)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    common(p, "json")
    p.set_defaults(handler=_cmd_duality_check)

    p = sub.add_parser("spectrum", help="energy levels of the truncated oscillator")
    p.add_argument("--n", type=_positive_int, default=11)
    p.add_argument("--omega", type=_positive_float, default=1.0)
    common(p, "csv")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("matrix-elements", help="circle-site matrices of a, adag, x, p")
    p.add_argument("--n", type=_positive_int, default=64)
    p.add_argument("--which", choices=("a", "adag", "x", "p", "all"), default="all")
    common(p, "csv")
    p.set_defaults(handler=_cmd_matrix_elements)

    p = sub.add_parser("auxfun-eval", help="evaluate the sqrt-series function family")
    p.add_argument(
        "--function",
        required=True,
        choices=("GN", "G", "G2", "F", "F2", "f", "g"),
        help="GN: partial sum (needs --n); G/F: disk; G2/F2: second sheet; f/g: circle angle",
    )
    p.add_argument("--n", type=_positive_int, default=None, help="order for GN")
    p.add_argument("--phi", type=_float_list, default=None, help="angles for f/g")
    p.add_argument("--z", type=_complex_list, default=None, help="re:im points for GN/G/G2/F/F2")
    common(p, "csv")
    p.set_defaults(handler=_cmd_auxfun_eval)

    p = sub.add_parser("zeros", help="all roots of the degree-n sqrt-coefficient polynomial")
    p.add_argument("--n", type=_positive_int, default=64)
    common(p, "json")
    p.set_defaults(handler=_cmd_zeros)

    p = sub.add_parser("map-domains", help="images of |z| = r circles in the y plane")
    p.add_argument("--radii", type=_radius_spec, default=None, help="'start:stop:step' or list")
    p.add_argument("--samples", type=_positive_int, default=721)
    common(p, "csv")
    p.set_defaults(handler=_cmd_map_domains)

    p = sub.add_parser("f-curve", help="boundary values f(phi) over [-pi, pi]")
    p.add_argument("--samples", type=_positive_int, default=720)
    common(p, "csv")
    p.set_defaults(handler=_cmd_f_curve)

    p = sub.add_parser("evolve", help="evolve a state and compare both transport routes")
    p.add_argument("--n", type=_positive_int, default=11)
    p.add_argument("--omega", type=_positive_float, default=1.0)
    p.add_argument("--state", default="random", help="'random', 'ont:<s>' or 'energy:<n>'")
    p.add_argument("--steps", type=_step_count, default=None, help="stroboscopic step count k")
    p.add_argument("--time", type=_finite_float, default=None, help="arbitrary evolution time")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    common(p, "csv")
    p.set_defaults(handler=_cmd_evolve)

    return parser


def _fail(command: str, exc: Exception) -> int:
    report = {
        "status": "error",
        "command": command,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, ConvergenceError):
        best = exc.best_estimate
        if best is not None:
            best = [complex(best).real, complex(best).imag]
        report.update(best_estimate=best, error_estimate=exc.error_estimate, terms=exc.terms)
    elif isinstance(exc, ZeroFindingError):
        report["diagnostics"] = exc.diagnostics
    print(json.dumps(report, sort_keys=True))
    return 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        fig, failure = args.handler(args)
        write_figure(fig, args.out, args.format)
    except (CircleDualError, OSError) as exc:
        return _fail(args.command, exc)
    if failure is not None:
        return _fail(args.command, CircleDualError(failure))
    return 0


def entrypoint() -> None:
    sys.exit(main())


# --------------------------------------------------------------------------
# handlers: each returns the artifact and its failed verdict (None if it holds)

Outcome = tuple[FigureData, "str | None"]


def _cmd_duality_check(args) -> Outcome:
    ks = np.arange(2 * args.n + 1)
    per_k = sampled_duality_deviations(args.trials, args.n, ks, np.random.default_rng(args.seed))
    overall = float(per_k.max())
    passed = overall <= DUALITY_TOL
    fig = FigureData(
        columns={"k": ks, "max_deviation": per_k},
        metadata=make_metadata(
            "duality-check",
            {
                "n": args.n,
                "omega": args.omega,
                "trials": args.trials,
                "seed": args.seed,
                "tolerance": DUALITY_TOL,
                "max_deviation": overall,
                "passed": passed,
            },
        ),
    )
    failure = f"max deviation {overall:.3e} exceeds tolerance {DUALITY_TOL:.1e}"
    return fig, None if passed else failure


def _cmd_spectrum(args) -> Outcome:
    return emit_spectrum(args.n, args.omega), None


def _cmd_matrix_elements(args) -> Outcome:
    kinds = ("a", "adag", "x", "p") if args.which == "all" else (args.which,)
    elements: dict[str, np.ndarray] = {}
    deviations = {}
    for kind in kinds:
        closed, deviations[f"max_deviation_{kind}"] = compare_matrix_elements(kind, args.n)
        elements[f"re_{kind}"] = closed.real.ravel()
        elements[f"im_{kind}"] = closed.imag.ravel()
        del closed
    # the site columns, two N^2 integer arrays, only once the operators are gone
    sites = np.arange(args.n)
    columns = {"s1": np.repeat(sites, args.n), "s2": np.tile(sites, args.n), **elements}
    worst = max(deviations.values())
    passed = bool(worst <= ELEMENT_TOL)
    fig = FigureData(
        columns=columns,
        metadata=make_metadata(
            "matrix-elements",
            {
                "n": args.n,
                "which": args.which,
                "tolerance": ELEMENT_TOL,
                **deviations,
                "passed": passed,
            },
        ),
    )
    failure = f"closed form deviates from conjugation by {worst:.3e} > {ELEMENT_TOL:.1e}"
    return fig, None if passed else failure


def _cmd_auxfun_eval(args) -> Outcome:
    fn = args.function
    if fn in ("f", "g"):
        if not args.phi:
            raise CircleDualError(f"--function {fn} needs --phi angles")
        phi = np.array(args.phi)
        value, error, _ = (li_three_halves_circle if fn == "f" else angle_kernel)(phi)
        columns = {"phi": phi}
        params = {"function": fn, "phi": list(args.phi)}
    else:
        if not args.z:
            raise CircleDualError(f"--function {fn} needs --z points")
        z = np.array(args.z)
        if fn == "GN":
            if args.n is None:
                raise CircleDualError("--function GN needs --n")
            value, error, _ = sqrt_series(args.n, z)
        else:
            evaluate = {
                "G": sqrt_series_disk,
                "G2": sqrt_series_sheet2,
                "F": li_three_halves,
                "F2": li_three_halves_sheet2,
            }[fn]
            value, error, _ = evaluate(z)
        columns = {"re_z": z.real, "im_z": z.imag}
        params = {"function": fn, "n": args.n, "z": [[p.real, p.imag] for p in args.z]}
    columns.update(re=value.real, im=value.imag, error_estimate=error)
    return FigureData(columns=columns, metadata=make_metadata("auxfun-eval", params)), None


def _cmd_zeros(args) -> Outcome:
    zero_set = sqrt_series_zeros(args.n)
    roots = zero_set.roots
    coeffs = np.sqrt(np.arange(1, args.n + 1, dtype=np.float64))
    fig = FigureData(
        columns={
            "index": np.arange(args.n),
            "re": roots.real,
            "im": roots.imag,
            "modulus": np.abs(roots),
            "argument": np.angle(roots),
            "residual": zero_set.residuals,
        },
        metadata=make_metadata(
            "zeros",
            {
                "n": args.n,
                "residual": zero_set.residual,
                "coeff_sum": float(np.sum(coeffs)),
                "near_circle_fraction": zero_set.near_circle_fraction(),
            },
        ),
    )
    return fig, None


def _cmd_map_domains(args) -> Outcome:
    radii = args.radii if args.radii is not None else [0.05 * k for k in range(1, 21)]
    fig = emit_domain_map(radii, args.samples)
    closure = fig.metadata["parameters"]["closure_gap"]
    violations = fig.metadata["parameters"]["nesting_violations"]
    if closure > CLOSURE_TOL:
        return fig, f"curve closure gap {closure:.3e} > {CLOSURE_TOL:.0e}"
    if violations:
        return fig, f"{violations} rays violate radial nesting"
    return fig, None


def _cmd_f_curve(args) -> Outcome:
    return emit_f_curve(args.samples), None


def _parse_initial_state(spec: str, n: int, seed: int):
    if spec == "random":
        return random_state(n, np.random.default_rng(seed))
    kind, _, text = spec.partition(":")
    make = {"ont": ontological_state, "energy": energy_state}.get(kind)
    try:
        index = int(text)
    except ValueError:
        make = None
    if make is None:
        raise CircleDualError(f"unknown state spec {spec!r}")
    return make(index, n)


def _cmd_evolve(args) -> Outcome:
    state = _parse_initial_state(args.state, args.n, args.seed)
    report = evolve_report(state, args.omega, steps=args.steps, time=args.time)
    params = {
        "n": args.n,
        "omega": args.omega,
        "state": args.state,
        "seed": args.seed,
    }
    columns = {
        "site": np.arange(args.n),
        "weight_initial": report.initial.weights,
        "weight_quantum": report.quantum.weights,
    }
    if args.steps is not None:
        params.update(steps=args.steps, time=report.time, deviation=report.deviation)
        columns["weight_transport"] = report.transported.weights
    else:
        params.update(
            time=report.time, nearest_k=report.k, deviation_from_nearest_rotation=report.deviation
        )
    return FigureData(columns=columns, metadata=make_metadata("evolve", params)), None
