import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest
from oracles import reference_csv, reference_json

from circledual import DimensionError, DomainError, cli, figdata
from circledual.figdata import (
    _ROW_BLOCK,
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
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_cli_artifacts_match_reference_writer(argv, tmp_path, monkeypatch):
    figures = []

    def recording(fig, path, fmt):
        figures.append(fig)
        figdata.write_figure(fig, path, fmt)

    monkeypatch.setattr(cli, "write_figure", recording)
    for fmt, reference in (("csv", reference_csv), ("json", reference_json)):
        out = tmp_path / f"artifact.{fmt}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == reference(figures[-1]), fmt


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


@pytest.mark.parametrize("rows", [0, 1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1])
def test_synthetic_columns_match_reference_writer(rows, tmp_path):
    assert_matches_reference(synthetic_figure(rows), tmp_path)


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
