"""Command-line front end.

Eight subcommands: duality-check, spectrum, matrix-elements, auxfun-eval,
zeros, map-domains, f-curve, evolve.  Each writes a CSV or JSON artifact
(column schemas in FORMATS.md) and exits 0 on success, 1 with a one-line
JSON error report on any invariant violation, 2 on unusable flags.  Output
is byte-identical across runs for identical flags and seed; pass
--timestamp to stamp artifacts at the cost of that identity.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import __version__
from .auxfun import (
    SeriesResult,
    angle_kernel,
    li_three_halves,
    li_three_halves_circle,
    li_three_halves_sheet2,
    sqrt_series,
    sqrt_series_disk,
    sqrt_series_sheet2,
    sqrt_series_zeros,
)
from .dynamics import (
    born_distribution,
    duality_deviations,
    evolve_quantum,
    transport_steps,
)
from .errors import CircleDualError, ConvergenceError, ZeroFindingError
from .figdata import (
    FigureData,
    domain_map_closure_gap,
    domain_map_nesting_violations,
    emit_domain_map,
    emit_f_curve,
    emit_spectrum,
    make_metadata,
    write_figure,
)
from .hilbert import (
    Basis,
    build_duality_map,
    check_dense_size,
    energy_state,
    ontological_state,
    random_state,
    to_energy,
)
from .operators import (
    build_ladder,
    build_position_momentum,
    conjugate_to_ontological,
    ontological_matrix,
)

DUALITY_TOL = 1e-10
ELEMENT_TOL = 1e-10
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
        # snap float drift at the endpoint back onto the requested stop
        return [stop if abs(v - stop) < 1e-9 else v for v in values]
    return _float_list(text)


def _complex_list(text: str) -> list[complex]:
    """Comma-separated re:im pairs, e.g. '0.3:0.4,2:1'."""
    points = []
    for tok in text.split(","):
        if tok.strip() == "":
            continue
        try:
            re_part, im_part = tok.split(":")
            points.append(complex(float(re_part), float(im_part)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad complex point {tok!r}") from exc
    return points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circledual",
        description="Verification suites and figure data for the oscillator/circle correspondence.",
    )
    parser.add_argument("--version", action="version", version=f"circledual {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format):
        p.add_argument("--out", required=True, help="output artifact path")
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.add_argument("--timestamp", default=None, help="optional metadata stamp (breaks byte determinism)")

    p = sub.add_parser("duality-check", help="stroboscopic transport theorem on random states")
    p.add_argument("--n", type=_positive_int, default=11)
    p.add_argument("--omega", type=_positive_float, default=1.0)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--tolerance", type=_positive_float, default=DUALITY_TOL)
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
    p.add_argument("--tolerance", type=_positive_float, default=ELEMENT_TOL)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CircleDualError as exc:
        return _fail(args.command, exc)
    except OSError as exc:
        return _fail(args.command, exc)


def entrypoint() -> None:
    sys.exit(main())


# --------------------------------------------------------------------------
# handlers


def _cmd_duality_check(args) -> int:
    check_dense_size(args.trials, args.n, "the batch of states")
    rng = np.random.default_rng(args.seed)
    states = np.array([random_state(args.n, rng).amplitudes for _ in range(args.trials)])
    ks = np.arange(2 * args.n + 1)
    per_k = duality_deviations(states, ks, args.omega)
    overall = float(per_k.max())
    fig = FigureData(
        columns={"k": ks, "max_deviation": per_k},
        metadata=make_metadata(
            "duality-check",
            {
                "n": args.n,
                "omega": args.omega,
                "trials": args.trials,
                "seed": args.seed,
                "tolerance": args.tolerance,
                "max_deviation": overall,
                "passed": bool(overall <= args.tolerance),
            },
            args.timestamp,
        ),
    )
    write_figure(fig, args.out, args.format)
    if overall > args.tolerance:
        return _fail(
            "duality-check",
            CircleDualError(
                f"max deviation {overall:.3e} exceeds tolerance {args.tolerance:.1e}"
            ),
        )
    return 0


def _cmd_spectrum(args) -> int:
    fig = emit_spectrum(args.n, args.omega, args.timestamp)
    write_figure(fig, args.out, args.format)
    return 0


def _cmd_matrix_elements(args) -> int:
    kinds = ("a", "adag", "x", "p") if args.which == "all" else (args.which,)
    dmap = build_duality_map(args.n)
    a, adag = build_ladder(args.n)
    x, p = build_position_momentum(args.n)
    energy_ops = {"a": a, "adag": adag, "x": x, "p": p}
    sites = np.arange(args.n)
    s1 = np.repeat(sites, args.n)
    s2 = np.tile(sites, args.n)
    columns: dict[str, np.ndarray] = {"s1": s1, "s2": s2}
    deviations = {}
    for kind in kinds:
        closed = ontological_matrix(kind, args.n).entries
        conjugated = conjugate_to_ontological(energy_ops[kind], dmap).entries
        deviations[f"max_deviation_{kind}"] = float(np.max(np.abs(closed - conjugated)))
        columns[f"re_{kind}"] = closed.real.ravel()
        columns[f"im_{kind}"] = closed.imag.ravel()
    worst = max(deviations.values())
    fig = FigureData(
        columns=columns,
        metadata=make_metadata(
            "matrix-elements",
            {
                "n": args.n,
                "which": args.which,
                "tolerance": args.tolerance,
                **deviations,
                "passed": bool(worst <= args.tolerance),
            },
            args.timestamp,
        ),
    )
    write_figure(fig, args.out, args.format)
    if worst > args.tolerance:
        return _fail(
            "matrix-elements",
            CircleDualError(
                f"closed form deviates from conjugation by {worst:.3e} "
                f"> {args.tolerance:.1e}"
            ),
        )
    return 0


def _cmd_auxfun_eval(args) -> int:
    fn = args.function
    if fn in ("f", "g"):
        if not args.phi:
            raise CircleDualError(f"--function {fn} needs --phi angles")
        evaluate = li_three_halves_circle if fn == "f" else angle_kernel
        results = [evaluate(p) for p in args.phi]
        columns = {
            "phi": np.array(args.phi),
            "re": np.array([r.value.real for r in results]),
            "im": np.array([r.value.imag for r in results]),
            "error_estimate": np.array([r.error for r in results]),
        }
        params = {"function": fn, "phi": list(args.phi)}
    else:
        if not args.z:
            raise CircleDualError(f"--function {fn} needs --z points")
        if fn == "GN":
            if args.n is None:
                raise CircleDualError("--function GN needs --n")
            results = [
                SeriesResult(sqrt_series(args.n, z), 0.0, args.n) for z in args.z
            ]
        else:
            evaluate = {
                "G": sqrt_series_disk,
                "G2": sqrt_series_sheet2,
                "F": li_three_halves,
                "F2": li_three_halves_sheet2,
            }[fn]
            results = [evaluate(z) for z in args.z]
        columns = {
            "re_z": np.array([z.real for z in args.z]),
            "im_z": np.array([z.imag for z in args.z]),
            "re": np.array([r.value.real for r in results]),
            "im": np.array([r.value.imag for r in results]),
            "error_estimate": np.array([r.error for r in results]),
        }
        params = {
            "function": fn,
            "n": args.n,
            "z": [[z.real, z.imag] for z in args.z],
        }
    fig = FigureData(
        columns=columns,
        metadata=make_metadata("auxfun-eval", params, args.timestamp),
    )
    write_figure(fig, args.out, args.format)
    return 0


def _cmd_zeros(args) -> int:
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
            args.timestamp,
        ),
    )
    write_figure(fig, args.out, args.format)
    return 0


def _cmd_map_domains(args) -> int:
    radii = args.radii if args.radii is not None else [0.05 * k for k in range(1, 21)]
    fig = emit_domain_map(radii, args.samples, args.timestamp)
    closure = domain_map_closure_gap(fig)
    violations = domain_map_nesting_violations()
    fig.metadata["parameters"]["closure_gap"] = closure
    fig.metadata["parameters"]["nesting_violations"] = violations
    write_figure(fig, args.out, args.format)
    if closure > 1e-12:
        return _fail(
            "map-domains",
            CircleDualError(f"curve closure gap {closure:.3e} > 1e-12"),
        )
    if violations:
        return _fail(
            "map-domains",
            CircleDualError(f"{violations} rays violate radial nesting"),
        )
    return 0


def _cmd_f_curve(args) -> int:
    fig = emit_f_curve(args.samples, args.timestamp)
    write_figure(fig, args.out, args.format)
    return 0


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


def _cmd_evolve(args) -> int:
    if (args.steps is None) == (args.time is None):
        raise CircleDualError("give exactly one of --steps or --time")
    state = _parse_initial_state(args.state, args.n, args.seed)
    energy = state if state.basis is Basis.ENERGY else to_energy(state)
    on_grid = args.steps is not None
    t = 2.0 * math.pi * args.steps / (args.n * args.omega) if on_grid else args.time
    # both modes compare against a rigid rotation: --time against the nearest
    # one (the rule of offgrid_deviation), with each distribution taken once
    initial = born_distribution(energy)
    quantum = born_distribution(evolve_quantum(energy, t, args.omega))
    k = args.steps if on_grid else round(t * args.n * args.omega / (2.0 * math.pi)) % args.n
    transported = transport_steps(initial, k)
    deviation = float(np.max(np.abs(quantum.weights - transported.weights)))
    params = {
        "n": args.n,
        "omega": args.omega,
        "state": args.state,
        "seed": args.seed,
    }
    columns = {
        "site": np.arange(args.n),
        "weight_initial": initial.weights,
        "weight_quantum": quantum.weights,
    }
    if on_grid:
        params.update({"steps": args.steps, "time": t, "deviation": deviation})
        columns["weight_transport"] = transported.weights
    else:
        params.update({"time": t, "nearest_k": k, "deviation_from_nearest_rotation": deviation})
    fig = FigureData(columns=columns, metadata=make_metadata("evolve", params, args.timestamp))
    write_figure(fig, args.out, args.format)
    return 0
