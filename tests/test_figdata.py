import hashlib
import json
import math
import os
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_csv, reference_fields, reference_json

from circledual import DimensionError, DomainError, _textkernel, cli, figdata
from circledual._textkernel import _E_MAX, _E_MIN
from circledual.figdata import (
    _BLOCK_CELLS,
    _INTEGER_KERNEL_CELLS,
    _KERNEL_CELLS,
    FigureData,
    emit_domain_map,
    emit_f_curve,
    emit_spectrum,
    make_metadata,
    write_csv,
    write_json,
)


def test_spectrum_basic():
    fig = emit_spectrum(11, 1.0)
    assert fig.columns["energy"].tolist() == list(range(11))
    assert fig.metadata["command"] == "spectrum"


def test_spectrum_single_level():
    fig = emit_spectrum(1, 1.0)
    assert fig.columns["energy"].tolist() == [0.0]


def test_spectrum_rejects_empty():
    with pytest.raises(DimensionError):
        emit_spectrum(0, 1.0)


def test_f_curve_grid_covers_closed_range():
    fig = emit_f_curve(samples=24)
    phi = fig.columns["phi"]
    assert phi[0] == -math.pi and phi[-1] == pytest.approx(math.pi, abs=1e-15)
    assert len(phi) == 25
    assert fig.metadata["parameters"]["max_error_estimate"] < 1e-10


def test_domain_map_closure_and_endpoint():
    fig = emit_domain_map([0.5, 1.0], samples_per_circle=61)
    assert fig.metadata["parameters"]["closure_gap"] <= 1e-12
    radius = fig.columns["radius"]
    re_y = fig.columns["re_y"]
    first_unit_row = np.flatnonzero(radius == 1.0)[0]
    assert re_y[first_unit_row] == pytest.approx(1.0, abs=1e-14)


def test_domain_map_validation():
    with pytest.raises(DomainError):
        emit_domain_map([1.2], 721)
    with pytest.raises(DimensionError):
        emit_domain_map([], 721)
    with pytest.raises(DimensionError):
        emit_domain_map([0.5], samples_per_circle=4)


def test_domain_map_nesting_holds():
    assert emit_domain_map([0.5], 721).metadata["parameters"]["nesting_violations"] == 0


def test_figure_data_validation():
    with pytest.raises(DimensionError):
        FigureData(
            columns={"a": np.arange(3), "b": np.arange(4)},
            metadata={"command": "x"},
        )
    with pytest.raises(ValueError):
        FigureData(columns={"a": np.arange(3)}, metadata={})


def test_csv_serialization_17g(tmp_path):
    fig = FigureData(
        columns={"idx": np.array([0, 1]), "val": np.array([1.0 / 3.0, 2.0**-40])},
        metadata=make_metadata("spectrum", {}),
    )
    path = tmp_path / "out.csv"
    write_csv(fig, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "idx,val"
    assert lines[1].split(",")[0] == "0"  # integers stay integers
    assert float(lines[1].split(",")[1]) == 1.0 / 3.0  # round-trip exact


def test_json_serialization_is_valid_and_ordered(tmp_path):
    fig = FigureData(
        columns={"val": np.array([0.1, float(2**53)])},
        metadata=make_metadata("zeros", {"n": 3, "nested": [1.5, None, "txt"]}),
    )
    path = tmp_path / "out.json"
    write_json(fig, path)
    payload = json.loads(path.read_text())
    assert payload["metadata"]["parameters"]["nested"] == [1.5, None, "txt"]
    assert payload["columns"]["val"][0] == 0.1
    assert payload["metadata"]["timestamp"] is None


def test_non_finite_values_are_rejected(tmp_path):
    fig = FigureData(
        columns={"val": np.array([np.inf])},
        metadata=make_metadata("spectrum", {}),
    )
    with pytest.raises(ValueError):
        write_csv(fig, tmp_path / "bad.csv")
    # both writers name the column and the first bad row, and open no file
    fig = FigureData(
        columns={"ok": np.arange(4.0), "val": np.array([1.0, 2.0, np.nan, np.inf])},
        metadata=make_metadata("spectrum", {}),
    )
    for write in (write_csv, write_json):
        with pytest.raises(DomainError, match=r"non-finite value nan in column 'val', row 2"):
            write(fig, tmp_path / "bad.out")
    assert not (tmp_path / "bad.csv").exists() and not (tmp_path / "bad.out").exists()


# ---------------------------------------------------------------------------
# the column-wise writers against the cell-by-cell reference


def assert_matches_reference(fig, tmp_path):
    for write, reference in ((write_csv, reference_csv), (write_json, reference_json)):
        path = tmp_path / f"artifact-{write.__name__}"
        write(fig, path)
        assert path.read_bytes() == reference(fig), write.__name__


@pytest.mark.parametrize(
    "produce",
    [
        lambda: emit_spectrum(37, 0.3),
        lambda: emit_f_curve(samples=64),
        lambda: emit_domain_map([0.25, 1.0], samples_per_circle=33),
    ],
    ids=["spectrum", "f-curve", "map-domains"],
)
def test_producers_match_reference_writer(produce, tmp_path):
    assert_matches_reference(produce(), tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["duality-check", "--n", "9", "--trials", "5"],
        ["spectrum", "--n", "12", "--omega", "0.7"],
        ["matrix-elements", "--n", "24", "--which", "all"],
        ["auxfun-eval", "--function", "f", "--phi=0.5,-2.0,3.1"],
        ["auxfun-eval", "--function", "G", "--z=0.5:0.1,-0.3:0.2"],
        ["zeros", "--n", "24"],
        ["map-domains", "--radii", "0.5,1", "--samples", "15"],
        ["f-curve", "--samples", "30"],
        ["evolve", "--n", "11", "--steps", "2"],
        ["evolve", "--n", "11", "--time", "0.7", "--state", "energy:2"],
        # real figures at size: blocks from _KERNEL_CELLS cells go through the numpy
        # kernel, smaller ones through the printf template (the 301-row f curve, and
        # the last CSV block of the 384^2 matrix elements, 36 rows); the duality
        # check's k (to 10002) and the spectrum's level (to 19999) take integer
        # fields of two 4-digit chunks.  No golden hashes: FFT bits vary by platform
        ["matrix-elements", "--n", "384", "--which", "all"],
        ["map-domains", "--radii", "0.01:1:0.01"],
        ["f-curve", "--samples", "7200"],
        ["f-curve", "--samples", "300"],
        ["duality-check", "--n", "5001", "--trials", "1"],
        ["spectrum", "--n", "20000"],
        # JSON artifacts of one block, formatted as one group by the kernel: the top
        # zeros degree (6 x 512 cells) and a duality check of 2 x 601 cells
        ["zeros", "--n", "512"],
        ["duality-check", "--n", "300", "--trials", "2"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_cli_artifacts_match_reference_writer(argv, tmp_path, monkeypatch):
    """The command's figure, built once, in both formats against the reference writer."""
    figures = []
    monkeypatch.setattr(cli, "write_figure", lambda fig, path, fmt: figures.append(fig))
    assert cli.main([*argv, "--out", str(tmp_path / "unwritten")]) == 0
    assert_matches_reference(figures[0], tmp_path)


def synthetic_figure(rows, seed=0):
    """Every dtype and float class the writers meet, cycled to ``rows`` rows."""
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0**-1074 * 3,
                         1.0 / 3.0, -2.5, 1e16, 123456789.0, -7.0])
    bits = rng.integers(0, 2**64, size=rows, dtype=np.uint64).view(np.float64)
    bits[~np.isfinite(bits)] = 1.5  # random bit patterns: every exponent, subnormals too
    return FigureData(
        columns={
            "flag": np.arange(rows) % 3 == 0,
            "index": np.arange(rows) - rows // 2,
            "count": np.arange(rows, dtype=np.uint32),
            "special": np.resize(specials, rows),
            "signed": rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows),
            "whole": np.round(rng.standard_normal(rows) * 1e6),
            "bits": bits,
        },
        metadata=make_metadata(
            "synthetic",
            {"rows": rows, "flags": [True, False], "nested": [1.5, None, "txt", -0.0, 2**70],
             "empty": {}, "items": [], "scale": np.float64(5e-324)},
        ),
    )


# the synthetic figure has 7 columns: its CSV blocks are _BLOCK_CELLS // 7 rows and
# take the kernel from ceil(_KERNEL_CELLS / 7) rows, its JSON column blocks from
# _KERNEL_CELLS rows; each boundary is written one row short of it, at it and past it.
# The edges of 4 Ki-cell blocks (585 CSV rows, 4096 JSON entries) stay as cases of
# a figure that ends inside its first block.
_CSV_BLOCK_ROWS = _BLOCK_CELLS // 7
_CSV_KERNEL_ROWS = -(-_KERNEL_CELLS // 7)
_SMALL_BLOCK_CELLS = 4096


@pytest.mark.parametrize(
    "rows",
    [0, 1]
    + [edge + step for edge in (_CSV_KERNEL_ROWS, _CSV_BLOCK_ROWS, _KERNEL_CELLS, _BLOCK_CELLS,
                                _SMALL_BLOCK_CELLS // 7, _SMALL_BLOCK_CELLS)
       for step in (-1, 0, 1)],
)
def test_synthetic_columns_match_reference_writer(rows, tmp_path):
    assert_matches_reference(synthetic_figure(rows), tmp_path)


# a JSON artifact of k columns is formatted as one group up to _BLOCK_CELLS // k rows,
# and a column at a time past it
_GROUP_COLUMNS = {2: ("index", "bits"), 6: ("flag", "index", "count", "special", "signed", "whole")}


@pytest.mark.parametrize(
    "k, rows",
    [(k, rows) for k in _GROUP_COLUMNS
     for rows in (0, *(_BLOCK_CELLS // k + step for step in (-1, 0, 1)))],
)
def test_json_groups_match_reference_writer(k, rows, tmp_path):
    fig = synthetic_figure(rows)
    fig.columns = {name: fig.columns[name] for name in _GROUP_COLUMNS[k]}
    assert_matches_reference(fig, tmp_path)


def test_no_columns_match_reference_writer(tmp_path):
    assert_matches_reference(
        FigureData(columns={}, metadata=make_metadata("synthetic", {})), tmp_path
    )


# spectrum values k*omega are exact on every platform, so its bytes are fixed;
# the metadata records the package version, which a version bump changes
SPECTRUM_SHA256 = {
    "csv": "1d0a94b183b0c4df278213c964231f2826c4f85d251bae0cfc3d34bd2258b7e2",
    "json": "08bb91b00eec6b96d0250717382e03af1d9a22225c53a99f96a1ab39424838c8",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_artifact_golden_hash(fmt, tmp_path):
    out = tmp_path / f"spectrum.{fmt}"
    argv = ["spectrum", "--n", "4096", "--omega", "1.5", "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SPECTRUM_SHA256[fmt]


# ---------------------------------------------------------------------------
# the block kernel against the cell-by-cell reference


def assert_kernel_matches_reference(values):
    """The kernel's text of one column, one value a line, equals the reference CSV."""
    values = np.asarray(values)
    fig = FigureData(columns={"v": values}, metadata=make_metadata("synthetic", {}))
    assert b"v\n" + _textkernel.block_text([values], ["\n"]) == reference_csv(fig)


def test_kernel_matches_reference_on_random_bit_patterns():
    """2^20 doubles from random bits: every exponent, subnormals and both signs."""
    bits = np.random.default_rng(11).integers(0, 2**64, size=1 << 20, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_kernel_matches_reference(values[np.isfinite(values)])


def test_kernel_matches_reference_on_scaled_and_whole_values():
    rng = np.random.default_rng(12)
    assert_kernel_matches_reference(
        rng.standard_normal(1 << 16) * 10.0 ** rng.integers(-40, 40, 1 << 16)
    )
    assert_kernel_matches_reference(np.round(rng.standard_normal(1 << 16) * 1e6))
    # integer-valued floats with all 17 digits
    assert_kernel_matches_reference(rng.integers(10**16, 10**17, 4096).astype(np.float64))


def exact_ties(rng):
    """Doubles x = m 2^-(k+1), m odd, with x 10^k = (m 5^k)/2: 17 digits and a half."""
    ties = [3 * 2.0**-25]
    for k in range(2, 25):
        low, high = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        for m in rng.integers(low, high, 24) | 1:
            ties.append(math.ldexp(float(m), -(k + 1)))
    for x in ties:
        scaled = Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))
        assert scaled - math.floor(scaled) == Fraction(1, 2), x
    return np.array(ties)


def test_kernel_matches_reference_on_edge_values():
    rng = np.random.default_rng(13)
    tiny, huge = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    neighbours = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    # the neighbours below a power of ten that "%.17g" rounds up to it
    round_up = [x for x in neighbours if Decimal(format(x, ".17g")) > Decimal(x)
                and Decimal(format(x, ".17g")).normalize().as_tuple().digits == (1,)]
    assert len(round_up) > 10
    edges = np.concatenate([
        [0.0, 5e-324, 2 * 5e-324, tiny, np.nextafter(tiny, 0.0), huge, 1e-5, 1e-4, 1e16, 1e17],
        rng.integers(1, 2**52, 64).astype(np.float64) * 5e-324,  # subnormals
        neighbours,
        exact_ties(rng),
        round_up,
    ])
    assert_kernel_matches_reference(np.concatenate([edges, -edges]))


def test_kernel_matches_reference_on_integers_and_bools():
    rng = np.random.default_rng(14)
    int64 = np.iinfo(np.int64)
    assert_kernel_matches_reference(np.concatenate([
        [int64.min, int64.min + 1, int64.max, 0, -1, 1, 9, 10, -10, 99, 100],
        rng.integers(int64.min, int64.max, 4096, dtype=np.int64, endpoint=True),
        10 ** rng.integers(0, 19, 4096) * rng.choice([-1, 1], 4096),
    ]))
    assert_kernel_matches_reference(np.concatenate([
        np.array([0, 2**64 - 1, 10**19, 10**19 - 1], dtype=np.uint64),
        rng.integers(0, 2**64 - 1, 4096, dtype=np.uint64, endpoint=True),
    ]))
    assert_kernel_matches_reference(rng.integers(-(2**31), 2**31, 4096).astype(np.int32))
    assert_kernel_matches_reference(rng.random(4096) < 0.5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_kernel_matches_reference_on_any_finite_floats(values):
    assert_kernel_matches_reference(np.array(values, dtype=np.float64))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
)
def test_kernel_matches_reference_on_any_64_bit_integers(signed, unsigned):
    assert_kernel_matches_reference(np.array(signed, dtype=np.int64))
    assert_kernel_matches_reference(np.array(unsigned, dtype=np.uint64))


# An integer field is the sign, then as many 4-digit chunks as the widest
# magnitude of its run needs, then the separator: chunks // 2 + 1 words.
_INT_DTYPES = (np.int64, np.uint64, np.int32)
_SEPARATORS = [",", "\n", ", "]


def widest_magnitude(dtype):
    info = np.iinfo(dtype)
    return max(int(info.max), -int(info.min))


def int_field_words(widest):
    return -(-len(str(widest)) // 4) // 2 + 1


def integer_block(rng, dtype, widest, cells):
    """cells integers of dtype, one of them +-widest and the rest 0, small or up to widest."""
    signed = np.iinfo(dtype).min < 0
    kind = rng.integers(0, 3, cells)
    magnitudes = np.where(kind == 0, 0, rng.integers(0, 100, cells, dtype=np.uint64))
    wide = kind == 2
    magnitudes[wide] = rng.integers(0, widest, int(wide.sum()), dtype=np.uint64, endpoint=True)
    magnitudes[rng.integers(0, cells)] = widest
    negative = rng.random(cells) < 0.5 if signed else np.zeros(cells, bool)
    negative |= magnitudes > np.iinfo(dtype).max  # the least signed value
    return np.array([-int(m) if neg else int(m) for m, neg in zip(magnitudes, negative)],
                    dtype=dtype)


def assert_integer_block_matches_reference(values, columns, seps):
    """values as a block of columns (each one separator), checked against the oracle."""
    block = list(values.reshape(columns, -1))
    assert _textkernel.block_text(block, seps) == reference_fields(block, seps)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(dtype, decade) for dtype in _INT_DTYPES for decade in range(20)
                     if 10**decade <= widest_magnitude(dtype)]),
    st.integers(1, 3),
    st.integers(1, 2 * _BLOCK_CELLS),
    st.lists(st.sampled_from(_SEPARATORS), min_size=3, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_integer_fields_match_reference_at_every_width(case, columns, cells, seps, seed):
    """The block's widest |value| in [10^d, 10^(d+1)) for every decade d a dtype holds."""
    dtype, decade = case
    rng = np.random.default_rng(seed)
    widest = int(rng.integers(10**decade, min(10 ** (decade + 1) - 1, widest_magnitude(dtype)),
                              dtype=np.uint64, endpoint=True))
    rows = max(1, cells // columns)
    values = integer_block(rng, dtype, widest, columns * rows)
    assert _textkernel._field(values.reshape(columns, rows))[0] == int_field_words(widest)
    assert_integer_block_matches_reference(values, columns, seps[:columns])


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("widest", [10 ** (4 * k) + step for k in range(1, 5) for step in (-1, 0)])
def test_integer_fields_change_width_at_each_chunk(dtype, widest):
    """+-(10^(4k) - 1) and +-10^(4k): the last value of k chunks and the first of k + 1."""
    rng = np.random.default_rng(widest)
    for sign in (1, -1) if dtype is np.int64 else (1,):
        values = integer_block(rng, dtype, widest, 2 * _KERNEL_CELLS)
        values[0] = sign * widest
        assert _textkernel._field(values[None])[0] == int_field_words(widest)
        for columns, seps in ((1, ["\n"]), (1, [", "]), (2, [",", "\n"])):
            assert_integer_block_matches_reference(values, columns, seps)


def test_integers_below_ten_thousand_take_one_word_per_field():
    """4096 integers with |v| < 10^4 are one 8-byte word each, sign and separator included."""
    small = np.arange(4096) * 4 - 8190
    assert np.abs(small).max() == 8190
    assert _textkernel._field(small[None])[0] == 1
    assert _textkernel._field(np.stack([small, small]))[0] == 1
    assert_kernel_matches_reference(small)
    assert _textkernel._field(np.array([[0, 10**4]]))[0] == 2
    assert _textkernel._field(np.array([[np.iinfo(np.int64).min]]))[0] == 3
    assert _textkernel._field(np.array([[2**64 - 1]], dtype=np.uint64))[0] == 3


def test_power_table_is_within_its_error_bound():
    """hi + lo is 10^(16 - e) to 2^-104 relative, so its share of the digits' error is < 1e-14."""
    tables = _textkernel.TABLES
    for row, e in enumerate(range(_E_MAX, _E_MIN - 1, -1)):
        exact = Fraction(10) ** (16 - e)
        stored = Fraction(float(tables.pow_hi[row])) + Fraction(float(tables.pow_lo[row]))
        assert abs(stored - exact) <= exact / 2**104, e


def test_blocks_take_the_kernel_from_the_crossover(monkeypatch):
    """A block with a float column takes the kernel from _KERNEL_CELLS cells, a block of
    only integers and bools from _INTEGER_KERNEL_CELLS; a smaller one takes the template.
    The rule is the same for a CSV block and for a JSON group read column by column."""
    calls = []
    kernels = {"block_text": _textkernel.block_text, "column_texts": _textkernel.column_texts}

    def recording(name):
        def call(block, seps):
            calls.append(len(block) * len(block[0]))
            return kernels[name](block, seps)
        return call

    for name in kernels:
        monkeypatch.setattr(_textkernel, name, recording(name))

    def floats(rows):
        return np.arange(rows) * 0.1

    def bools(rows):
        return np.arange(rows) % 3 == 0

    ints = np.arange
    cases = [  # the columns of a block, cycled, and the crossover the block takes
        ([floats], _KERNEL_CELLS),
        ([ints, floats], _KERNEL_CELLS),
        ([bools, floats], _KERNEL_CELLS),
        ([ints], _INTEGER_KERNEL_CELLS),
        ([bools], _INTEGER_KERNEL_CELLS),
        ([ints, bools], _INTEGER_KERNEL_CELLS),
    ]
    for kinds, crossover in cases:
        for columns in (len(kinds), 4):
            for rows in (crossover // columns - 1, crossover // columns):
                block = [kinds[j % len(kinds)](rows) for j in range(columns)]
                seps = [","] * (columns - 1) + ["\n"]
                expected = [columns * rows] if columns * rows >= crossover else []
                calls.clear()
                text = figdata._block_text(block, seps)
                assert calls == expected, (kinds, columns, rows)
                assert text == kernels["block_text"](block, seps)
                calls.clear()
                texts = figdata._block_text(block, [", "] * columns, by_column=True)
                assert calls == expected, (kinds, columns, rows)
                assert texts == [kernels["block_text"]([arr], [", "]) for arr in block]


def test_writers_hold_a_few_blocks_of_text():
    """2^20 rows of 2 integer and 8 float columns: no whole-column text is ever built.

    The columns take 80 MiB; one float column as kernel fields alone would be
    48 MiB.  Both writers stay within a few MiB beyond the columns.
    """
    rows = 1 << 20
    rng = np.random.default_rng(15)
    columns = {"s1": np.arange(rows) // 1024, "s2": np.arange(rows) % 1024}
    columns.update({f"v{j}": rng.standard_normal(rows) for j in range(8)})
    fig = FigureData(columns=columns, metadata=make_metadata("synthetic", {}))
    for write in (write_csv, write_json):
        tracemalloc.start()
        try:
            write(fig, os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, (write.__name__, peak)
