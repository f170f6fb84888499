"""Figure-data assembly and deterministic CSV/JSON serialization.

Every artifact is either a CSV (header row plus data rows) or a JSON
object {"metadata": ..., "columns": ...}.  Floats are written with 17
significant digits so a reader recovers the exact doubles; given the same
parameters the bytes are identical run to run.  Column layouts per command
are documented in FORMATS.md.

The writers work column by column.  Every column is checked whole first
(1-d, bool/int/float, floats finite) and the metadata rendered, before the
file is opened, so a value that cannot be written leaves nothing behind.
Cells then go out in blocks of about ``_BLOCK_CELLS``, so a block takes
about 2 MiB of memory at any artifact size: whole CSV rows, or for JSON
either every column at once (a group), when all the artifact's cells fit
one block, or entries of one column array.  The text is ``"%.17g"`` per
float, ``"%d"`` per integer and ``true``/``false`` per bool, by one of two
routes that give the same bytes, chosen once per block by its cell count:

* below ``_KERNEL_CELLS`` (1024) cells, or ``_INTEGER_KERNEL_CELLS``
  (256) for a block of only integers and bools, one printf-style
  template repeated once per row (per column of a JSON group), so no
  Python code runs per cell, but each float goes through CPython's
  correctly rounded dtoa on its own;
* from there on, a numpy kernel (``_textkernel``) that lays every value
  out as a fixed-width field, an integer's only as wide as its block's
  widest magnitude needs, in one word matrix per block; a JSON group
  reads each column's text from its own rows of it.  Its fixed cost per
  block is what the crossover pays back; at 1024 cells the kernel was the
  faster route for every column mix measured.  A float whose 17 digits it
  cannot certify (an exact tie, a value beside a power of ten, |x|
  outside [1e-292, 1e300), a subnormal) it formats alone by ``"%.17g"``.

On a 2-vCPU Xeon, 10^6 floats took 0.57 s through the template and 0.15 s
through the kernel, in one session.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import __version__
from .auxfun import li_three_halves_circle, map_to_y
from .errors import DimensionError, DomainError
from .hilbert import check_dense_size


@dataclass
class FigureData:
    """Named numeric series plus an echo of how they were produced."""

    columns: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {name: len(vals) for name, vals in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise DimensionError(f"column lengths differ: {lengths}")
        if "command" not in self.metadata:
            raise ValueError("metadata must record the producing command")

    @property
    def rows(self) -> int:
        return 0 if not self.columns else len(next(iter(self.columns.values())))


def make_metadata(command: str, parameters: dict) -> dict:
    """The metadata of every artifact; ``timestamp`` is always null, kept for the layout."""
    return {
        "command": command,
        "version": __version__,
        "timestamp": None,
        "parameters": parameters,
    }


def _format_number(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"cannot serialize non-finite value {value!r}")
    return format(value, ".17g")


def _render_json(obj, indent: int = 0) -> str:
    """Metadata layout: two-space indented objects, one-line arrays."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {_render_json(val, indent + 1)}"
            for key, val in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [_render_json(v, indent + 1) for v in obj]
        return "[" + ", ".join(items) + "]"
    return _format_number(obj)


# Cells formatted at a time: a CSV block is _BLOCK_CELLS // columns rows, a
# JSON block every column of an artifact of at most _BLOCK_CELLS cells, or
# else _BLOCK_CELLS entries of one column.  Bounds the memory a block
# takes to about 2 MiB whatever the artifact size.  A pass of the `elements`
# benchmark, many commands with other work between them, took 0.98, 0.80 and
# 0.88 times its 4 Ki-cell time at 8, 16 and 32 Ki cells (medians of 8
# rounds); 10^6 floats written in one loop take the same time at 4 and 16 Ki.
_BLOCK_CELLS = 16384


def _checked_columns(fig: FigureData) -> list[np.ndarray]:
    """Every column as a 1-d bool, integer or finite float64 array.

    Called before the artifact is opened, so a column that cannot be
    written leaves any existing file untouched.
    """
    checked = []
    for name, values in fig.columns.items():
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise DimensionError(f"column {name!r} must be 1-d, got shape {arr.shape}")
        if arr.dtype.kind == "f":
            arr = arr.astype(np.float64, copy=False)
            finite = np.isfinite(arr)
            if not finite.all():
                row = int(np.argmin(finite))
                raise DomainError(
                    f"cannot serialize non-finite value {float(arr[row])!r} "
                    f"in column {name!r}, row {row}"
                )
        elif arr.dtype.kind not in "biu":
            raise DomainError(f"cannot serialize column {name!r} of dtype {arr.dtype}")
        checked.append(arr)
    return checked


# printf field per dtype kind; "%.17g" % x is the same text as format(x, ".17g")
_FIELD = {"b": "%s", "i": "%d", "u": "%d", "f": "%.17g"}

# Cells per block from which the numpy kernel formats the block.  Below it
# the kernel's fixed cost of 0.1-0.2 ms can outweigh its lower cost per
# value; from it the kernel was faster for every column mix measured
# (CHANGES.md has the table).  A block of only integers and bools has no
# float digits to certify: at 256 cells the kernel took 16-22 us against
# 34-40 us by the template, for bools and for integers below 10^4 (the
# site and level indices of the artifacts), so it takes the kernel from
# _INTEGER_KERNEL_CELLS.
_KERNEL_CELLS = 1024
_INTEGER_KERNEL_CELLS = 256


def _block_values(arr: np.ndarray) -> list:
    """A checked column slice as Python values, bools already spelled true/false."""
    if arr.dtype.kind == "b":
        return np.where(arr, "true", "false").tolist()
    return arr.tolist()


def _template_text(block: list[np.ndarray], seps: list[str]) -> bytes:
    row = "".join(_FIELD[arr.dtype.kind] + sep for arr, sep in zip(block, seps))
    values = [_block_values(arr) for arr in block]
    return (row * len(values[0]) % tuple(chain.from_iterable(zip(*values)))).encode()


def _block_text(block: list[np.ndarray], seps: list[str], by_column: bool = False):
    """Rows of checked column slices as text, each field followed by its
    separator; with ``by_column``, a list of each column's text on its own."""
    integers = all(arr.dtype.kind in "biu" for arr in block)
    if len(block) * len(block[0]) >= (_INTEGER_KERNEL_CELLS if integers else _KERNEL_CELLS):
        # imported here, so that importing the package (every CLI launch) does
        # not compile the kernel: about 5 ms where no bytecode cache is written
        from . import _textkernel

        if by_column:
            return _textkernel.column_texts(block, seps)
        return _textkernel.block_text(block, seps)
    if by_column:
        return [_template_text([arr], [sep]) for arr, sep in zip(block, seps)]
    return _template_text(block, seps)


def write_json(fig: FigureData, path) -> None:
    columns = _checked_columns(fig)
    metadata = _render_json(fig.metadata, 1)
    with open(path, "wb") as fh:
        fh.write(('{\n  "metadata": ' + metadata + ',\n  "columns": ').encode())
        if not columns:
            fh.write(b"{}\n}\n")
            return
        # an artifact that fits one block is formatted at once, a larger one a
        # block of one column at a time
        texts = None
        if len(columns) * fig.rows <= _BLOCK_CELLS:
            texts = _block_text(columns, [", "] * len(columns), by_column=True)
        for i, (name, arr) in enumerate(zip(fig.columns, columns)):
            fh.write((("{\n" if i == 0 else ",\n") + f"    {json.dumps(str(name))}: [").encode())
            if texts is not None:
                fh.write(texts[i][:-2])
            else:
                for start in range(0, len(arr), _BLOCK_CELLS):
                    text = _block_text([arr[start : start + _BLOCK_CELLS]], [", "])
                    fh.write(text if start + _BLOCK_CELLS < len(arr) else text[:-2])
            fh.write(b"]")
        fh.write(b"\n  }\n}\n")


def write_csv(fig: FigureData, path) -> None:
    columns = _checked_columns(fig)
    seps = [","] * (len(columns) - 1) + ["\n"]
    step = max(1, _BLOCK_CELLS // max(1, len(columns)))
    with open(path, "wb") as fh:
        fh.write((",".join(fig.columns) + "\n").encode())
        for start in range(0, fig.rows, step):
            fh.write(_block_text([arr[start : start + step] for arr in columns], seps))


def write_figure(fig: FigureData, path, fmt: str) -> None:
    if fmt == "csv":
        write_csv(fig, path)
    elif fmt == "json":
        write_json(fig, path)
    else:
        raise ValueError(f"unknown format {fmt!r}")


# --------------------------------------------------------------------------
# figure-data producers


def emit_spectrum(n: int, omega: float) -> FigureData:
    """Level index k against its energy k*omega, k = 0..n-1."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    check_dense_size(n, 1, "the spectrum")
    levels = np.arange(n)
    return FigureData(
        columns={"level": levels, "energy": levels * float(omega)},
        metadata=make_metadata("spectrum", {"n": n, "omega": float(omega)}),
    )


def emit_f_curve(samples: int) -> FigureData:
    """f on the closed angle range [-pi, pi], samples+1 rows inclusive."""
    if samples < 2:
        raise DimensionError(f"need at least 2 samples, got {samples}")
    check_dense_size(samples + 1, 1, "the f curve")
    phi = -math.pi + 2.0 * math.pi * np.arange(samples + 1) / samples
    f = li_three_halves_circle(phi)
    return FigureData(
        columns={"phi": phi, "re_f": f.value.real, "im_f": f.value.imag},
        metadata=make_metadata(
            "f-curve",
            {"samples": samples, "max_error_estimate": float(np.max(f.error))},
        ),
    )


# The nesting check follows 360 rays out through 20 equally spaced radii up
# to 1, whatever circles the artifact holds.
_NESTING_RAYS = np.exp(2j * np.pi * np.arange(360) / 360)
_NESTING_RADII = np.linspace(0.05, 1.0, 20)


def emit_domain_map(radii, samples_per_circle: int) -> FigureData:
    """Images of the circles |z| = r under the two-sheet map, one closed curve per radius.

    Each curve is sampled at samples_per_circle+1 angles with the endpoint
    repeated by evaluation (theta = 0 and 2*pi), so closure is a real check
    rather than a copy.  Radii above 1 are rejected: the first sheet only.
    On the unit circle an even sample count puts a sample at theta = pi,
    z = -1 + 1.2e-16i: beside the pole z = -1, with a finite |y| near 3e32.
    The same call of ``map_to_y`` yields the checks in the parameters:
    ``closure_gap``, the worst first-to-last distance of a curve, and
    ``nesting_violations``, how many rays have |y| fail to grow with r.
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise DimensionError("need at least one radius")
    if any(not 0.0 < r <= 1.0 for r in radii):
        raise DomainError(f"radii must lie in (0, 1], got {radii}")
    if samples_per_circle < 8:
        raise DimensionError(f"need >= 8 samples per circle, got {samples_per_circle}")
    check_dense_size(len(radii), samples_per_circle + 1, "the domain map")
    theta = 2.0 * math.pi * np.arange(samples_per_circle + 1) / samples_per_circle
    circles = np.multiply.outer(radii, np.exp(1j * theta))
    rays = np.multiply.outer(_NESTING_RAYS, _NESTING_RADII)
    y = map_to_y(np.concatenate([circles.ravel(), rays.ravel()]))
    curves = y[: circles.size].reshape(circles.shape)
    along_rays = np.abs(y[circles.size :]).reshape(rays.shape)
    return FigureData(
        columns={
            "radius": np.repeat(radii, theta.size),
            "theta": np.tile(theta, len(radii)),
            "re_y": curves.real.ravel(),
            "im_y": curves.imag.ravel(),
        },
        metadata=make_metadata(
            "map-domains",
            {
                "radii": radii,
                "samples_per_circle": samples_per_circle,
                "closure_gap": float(np.max(np.abs(curves[:, 0] - curves[:, -1]))),
                "nesting_violations": int(np.any(np.diff(along_rays) <= 0.0, axis=1).sum()),
            },
        ),
    )
