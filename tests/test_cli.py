import contextlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledual import ConvergenceError, ZeroFindingError, cli, dynamics
from circledual.cli import _fail, main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, np.array(rows, dtype=np.float64)


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "circledual", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


# ---------------------------------------------------------------------------
# happy paths per command


def test_spectrum_values(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--n", "11", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header == ["level", "energy"]
    assert np.array_equal(data[:, 1], np.arange(11.0))


def test_spectrum_scaled_omega(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--n", "4", "--omega", "0.5", "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert np.array_equal(data[:, 1], [0.0, 0.5, 1.0, 1.5])


def test_duality_check_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["duality-check", "--n", "11", "--trials", "20", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    meta = payload["metadata"]
    assert meta["command"] == "duality-check"
    assert meta["parameters"]["max_deviation"] <= 1e-10
    assert meta["parameters"]["passed"] is True
    assert len(payload["columns"]["k"]) == 2 * 11 + 1
    assert meta["timestamp"] is None


def test_f_curve_columns_and_pi_behavior(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["f-curve", "--samples", "720", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header == ["phi", "re_f", "im_f"]
    assert data.shape[0] == 721
    phi, im_f = data[:, 0], data[:, 2]
    at_pi = np.isclose(np.abs(phi), math.pi, atol=1e-12)
    assert at_pi.sum() == 2
    assert np.max(np.abs(im_f[at_pi])) <= 1e-8
    # odd imaginary part across the curve
    assert abs(im_f[0] + im_f[-1]) <= 1e-8


def test_zeros_artifact(tmp_path):
    out = tmp_path / "zeros.json"
    assert main(["zeros", "--n", "64", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    meta = payload["metadata"]["parameters"]
    roots = payload["columns"]
    assert len(roots["re"]) == 64
    coeff_sum = meta["coeff_sum"]
    assert max(roots["residual"]) <= 1e-8 * coeff_sum
    assert meta["residual"] <= 1e-8 * coeff_sum


def test_map_domains_closure_and_nesting(tmp_path):
    out = tmp_path / "domains.csv"
    code = main(["map-domains", "--radii", "0.05:1.0:0.05", "--samples", "181", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["radius", "theta", "re_y", "im_y"]
    radii = np.unique(data[:, 0])
    assert radii.size == 20
    for r in radii:
        rows = data[data[:, 0] == r]
        gap = math.hypot(rows[0, 2] - rows[-1, 2], rows[0, 3] - rows[-1, 3])
        assert gap <= 1e-12
    # r = 1 curve contains the cut endpoint y = 1 at theta = 0
    top = data[np.isclose(data[:, 0], 1.0) & (data[:, 1] == 0.0)]
    assert np.allclose(top[0, 2:], [1.0, 0.0], atol=1e-12)


def test_small_radius_curves_shrink_like_4r(tmp_path):
    out = tmp_path / "domains.csv"
    assert main(["map-domains", "--radii", "0.001", "--samples", "9", "--out", str(out)]) == 0
    _, data = read_csv(out)
    magnitudes = np.hypot(data[:, 2], data[:, 3])
    assert np.max(np.abs(magnitudes - 4.0 * 0.001)) < 1e-4


@pytest.mark.parametrize("kind", ["x", "p"])
def test_matrix_elements_hermitian_at_384(tmp_path, kind):
    out = tmp_path / "elements.csv"
    assert main(["matrix-elements", "--n", "384", "--which", kind, "--out", str(out)]) == 0


def test_matrix_elements_artifact(tmp_path):
    out = tmp_path / "elements.csv"
    assert main(["matrix-elements", "--n", "16", "--which", "x", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header == ["s1", "s2", "re_x", "im_x"]
    assert data.shape == (256, 4)


def test_evolve_stroboscopic(tmp_path):
    out = tmp_path / "evolve.csv"
    code = main(
        ["evolve", "--n", "11", "--state", "random", "--steps", "4", "--out", str(out)]
    )
    assert code == 0
    header, data = read_csv(out)
    assert header == ["site", "weight_initial", "weight_quantum", "weight_transport"]
    assert np.max(np.abs(data[:, 2] - data[:, 3])) <= 1e-10


def test_evolve_one_hot_site(tmp_path):
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--n", "8", "--state", "ont:2", "--steps", "3", "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert data[5, 2] == pytest.approx(1.0, abs=1e-12)  # site 2 + 3 steps


def test_evolve_offgrid_reports_deviation(tmp_path):
    out = tmp_path / "evolve.json"
    code = main(
        ["evolve", "--n", "8", "--state", "random", "--time", "0.3",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    params = payload["metadata"]["parameters"]
    assert "deviation_from_nearest_rotation" in params
    assert "weight_transport" not in payload["columns"]


def test_evolve_time_takes_each_distribution_once(tmp_path, monkeypatch):
    """One evolution and two Born distributions per off-grid run."""
    counts = {"born_distribution": 0, "evolve_quantum": 0}
    for name in counts:
        original = getattr(dynamics, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counting)
        monkeypatch.setattr(cli, name, counting)
    argv = ["evolve", "--n", "8", "--state", "random", "--time", "0.3",
            "--out", str(tmp_path / "evolve.csv")]
    assert main(argv) == 0
    assert counts == {"born_distribution": 2, "evolve_quantum": 1}


def test_auxfun_eval_f_and_g(tmp_path):
    out = tmp_path / "aux.csv"
    code = main(["auxfun-eval", "--function", "f", "--phi", "0,3.141592653589793", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["phi", "re", "im", "error_estimate"]
    assert abs(data[0, 1] - 2.6123753486854883) < 1e-8
    assert abs(data[1, 2]) < 1e-8
    out2 = tmp_path / "g.csv"
    assert main(["auxfun-eval", "--function", "g", "--phi", "2.0", "--out", str(out2)]) == 0
    _, gdata = read_csv(out2)
    assert abs(gdata[0, 1] - -0.44881365681338) < 1e-7


def test_auxfun_eval_z_functions(tmp_path):
    out = tmp_path / "gn.csv"
    code = main(["auxfun-eval", "--function", "GN", "--n", "2", "--z", "1:0", "--out", str(out)])
    assert code == 0
    _, data = read_csv(out)
    assert abs(data[0, 2] - (1.0 + math.sqrt(2.0))) < 1e-12
    out2 = tmp_path / "g2.csv"
    assert main(["auxfun-eval", "--function", "G2", "--z", "2:1", "--out", str(out2)]) == 0


def test_auxfun_eval_f_next_to_branch_point(tmp_path):
    mpmath = pytest.importorskip("mpmath")
    out = tmp_path / "f.csv"
    assert main(["auxfun-eval", "--function", "F", "--z=0.999999:0", "--out", str(out)]) == 0
    _, data = read_csv(out)
    with mpmath.workdps(30):
        exact = complex(mpmath.polylog(1.5, 0.999999))
    assert abs(complex(data[0, 2], data[0, 3]) - exact) <= 1e-12


# ---------------------------------------------------------------------------
# determinism


def test_repeated_runs_are_byte_identical(tmp_path):
    pairs = []
    for label in ("one", "two"):
        d = tmp_path / label
        d.mkdir()
        assert main(["duality-check", "--n", "5", "--trials", "10", "--seed", "3",
                     "--out", str(d / "r.json")]) == 0
        assert main(["zeros", "--n", "32", "--out", str(d / "z.json")]) == 0
        assert main(["f-curve", "--samples", "36", "--out", str(d / "f.csv")]) == 0
        pairs.append(d)
    for name in ("r.json", "z.json", "f.csv"):
        assert (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()


def test_subprocess_determinism(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        proc = run_subprocess("spectrum", "--n", "7", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    assert out_a.read_bytes() == out_b.read_bytes()


def test_seventeen_digit_serialization(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["f-curve", "--samples", "12", "--out", str(out)]) == 0
    _, data = read_csv(out)
    rendered = out.read_text(encoding="utf-8").strip().split("\n")[1].split(",")
    assert float(rendered[1]) == data[0, 1]  # round-trip exact


# ---------------------------------------------------------------------------
# failure modes


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum", "--n", "0", "--out", "x.csv"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["f-curve", "--format", "xml", "--out", "x"])
    assert excinfo.value.code == 2


def test_invariant_violation_exit_one(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["duality-check", "--n", "5", "--trials", "5",
                 "--tolerance", "1e-300", "--out", str(out)])
    assert code == 1
    report = json.loads(capsys.readouterr().out.strip())
    assert report["status"] == "error"
    assert report["command"] == "duality-check"
    # the artifact is still written with the failing stats recorded
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["metadata"]["parameters"]["passed"] is False


def test_semantic_errors_exit_one(tmp_path, capsys):
    assert main(["evolve", "--n", "4", "--state", "random", "--out", str(tmp_path / "e.csv")]) == 1
    assert main(["auxfun-eval", "--function", "f", "--out", str(tmp_path / "a.csv")]) == 1
    assert main(["auxfun-eval", "--function", "GN", "--z", "1:0", "--out", str(tmp_path / "b.csv")]) == 1
    assert main(["map-domains", "--radii", "1.5", "--out", str(tmp_path / "m.csv")]) == 1
    assert main(["zeros", "--n", "700", "--out", str(tmp_path / "z.json")]) == 1
    assert main(["spectrum", "--n", "3", "--out", str(tmp_path / "nodir" / "x.csv")]) == 1
    for line in capsys.readouterr().out.strip().split("\n"):
        assert json.loads(line)["status"] == "error"


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--state", "ont:abc", "--steps", "1"],
        ["evolve", "--time", "inf"],
        ["duality-check", "--n", "3", "--seed", "-1"],
        ["evolve", "--n", "11", "--time", "1e308"],
        ["auxfun-eval", "--function", "f", "--phi", "nan"],
        ["auxfun-eval", "--function", "g", "--phi", "nan"],
        ["auxfun-eval", "--function", "F", "--z", "nan:0"],
        ["auxfun-eval", "--function", "GN", "--n", "5", "--z", "inf:0"],
        ["auxfun-eval", "--function", "GN", "--n", "5", "--z", "1e100:0"],
        ["map-domains", "--radii", "0:inf:0.1"],
        ["map-domains", "--radii=0:1:1e-300"],
        ["evolve", "--n", "4", "--steps", "1" + "0" * 400],
        ["duality-check", "--n", "200000", "--trials", "100"],
        ["matrix-elements", "--n", "4097"],
    ],
)
def test_failures_never_print_a_traceback(tmp_path, argv):
    proc = run_subprocess(*argv, "--out", str(tmp_path / "artifact"))
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 1:
        assert json.loads(proc.stdout.strip().split("\n")[-1])["status"] == "error"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["map-domains", "--radii=0:1:1e-300"], 2),
        (["map-domains", "--radii=1e-6:1:1e-6"], 2),
        (["evolve", "--n", "4", "--steps", "1" + "0" * 400], 2),
        (["duality-check", "--n", "200000", "--trials", "100"], 1),
        (["matrix-elements", "--n", "4097"], 1),
    ],
)
def test_oversized_requests_are_refused_at_once(tmp_path, capsys, argv, code):
    """Sizes are checked before anything of that size is built."""
    start = time.perf_counter()
    try:
        got = main(argv + ["--out", str(tmp_path / "artifact")])
    except SystemExit as exc:
        got = exc.code
    assert time.perf_counter() - start < 1.0
    assert got == code
    if code == 1:
        assert json.loads(capsys.readouterr().out.strip())["error"] == "DimensionError"


FLOAT_TEXT = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400", "x"]),
    st.floats().map(repr),
)


@settings(max_examples=150, deadline=None)
@given(
    template=st.sampled_from(
        [
            ("auxfun-eval", "--function", "f", "--phi={}"),
            ("auxfun-eval", "--function", "F", "--z={}:0"),
            ("auxfun-eval", "--function", "GN", "--n", "5", "--z=0.5:{}"),
            ("evolve", "--n", "4", "--time={}"),
            ("evolve", "--n", "4", "--steps", "1", "--omega={}"),
            ("map-domains", "--samples", "9", "--radii={}"),
        ]
    ),
    text=FLOAT_TEXT,
)
def test_float_flags_exit_cleanly(tmp_path_factory, template, text):
    out = tmp_path_factory.getbasetemp() / "float-flag-artifact"
    argv = [part.format(text) for part in template] + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert json.loads(stdout.getvalue().strip().split("\n")[-1])["status"] == "error"


def test_error_report_keeps_diagnostics(capsys):
    exc = ConvergenceError("routes disagree", best_estimate=1.5 - 2j, error_estimate=3e-5, terms=42)
    assert _fail("auxfun-eval", exc) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "ConvergenceError"
    assert report["best_estimate"] == [1.5, -2.0]
    assert report["error_estimate"] == 3e-5
    assert report["terms"] == 42

    _fail("auxfun-eval", ConvergenceError("no estimate"))
    report = json.loads(capsys.readouterr().out)
    assert report["best_estimate"] is None and report["terms"] == 0

    diagnostics = {"degree": 8, "residual": 1e-3, "bound": 1e-8}
    _fail("zeros", ZeroFindingError("residual too large", diagnostics=diagnostics))
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"] == diagnostics
    assert "best_estimate" not in report


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
