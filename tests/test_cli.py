import argparse
import ast
import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledual import ConvergenceError, ZeroFindingError, auxfun, cli, dynamics, figdata, operators
from circledual.cli import _fail, main

SRC = str(Path(__file__).resolve().parent.parent / "src")
# launched interpreters write no bytecode into src/: a later run from this tree,
# a benchmark's included, would otherwise import from caches it did not build
LAUNCH_ENV = {"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, np.array(rows, dtype=np.float64)


def run_subprocess(*argv, src=SRC):
    """``python -m circledual *argv`` in a fresh interpreter that imports from src."""
    return subprocess.run(
        [sys.executable, "-m", "circledual", *argv],
        capture_output=True,
        text=True,
        env={**LAUNCH_ENV, "PYTHONPATH": src},
    )


# the launched command is this wrapper's only child, so the wrapper's
# RUSAGE_CHILDREN is its peak.  Neither pytest's RUSAGE_CHILDREN (the largest
# child it ever reaped) nor the command's own RUSAGE_SELF (Linux carries the
# high-water mark of the process that launched it across exec) is.
_PEAK_OF_CHILD = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run(sys.argv[2:], timeout=float(sys.argv[1])).returncode\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def run_measured(*argv, timeout=60):
    """``run_subprocess`` within ``timeout`` seconds, and the launched process's peak RSS in MiB."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_OF_CHILD, str(timeout), sys.executable, "-m", "circledual", *argv],
        capture_output=True,
        text=True,
        env={**LAUNCH_ENV, "PYTHONPATH": SRC},
    )
    *stderr, peak_kib = proc.stderr.split("\n")[:-1]
    assert peak_kib.isdigit(), proc.stderr  # the wrapper failed: the command timed out
    proc.stderr = "".join(line + "\n" for line in stderr)
    return proc, int(peak_kib) / 1024  # ru_maxrss is in KiB on Linux


def test_launches_write_no_bytecode_into_the_source_tree(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_subprocess("--version", src=str(src))
    assert proc.returncode == 0 and proc.stdout.startswith("circledual "), proc.stderr
    assert list(src.rglob("__pycache__")) == []


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
    """All 2N + 1 values of k, and step k and step k + N (one residue, evaluated once)
    carry the same gap."""
    out = tmp_path / "report.json"
    for n, trials in ((11, 20), (512, 10)):
        assert main(["duality-check", "--n", str(n), "--trials", str(trials), "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        meta = payload["metadata"]
        assert meta["command"] == "duality-check"
        assert meta["parameters"]["max_deviation"] <= 1e-10
        assert meta["parameters"]["passed"] is True
        k, gap = payload["columns"]["k"], payload["columns"]["max_deviation"]
        assert k == list(range(2 * n + 1))
        assert all(gap[i] == gap[i + n] for i in range(n + 1))
        assert max(gap) <= 1e-10
        assert meta["timestamp"] is None


def test_duality_check_draws_its_batch_at_once(tmp_path):
    """Many trials of a small N cost a few block draws, not one Python call per trial."""
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["duality-check", "--n", "2", "--trials", "200000", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 0


def test_duality_check_streams_its_trials(tmp_path, monkeypatch):
    """Trials drawn and checked in blocks write the bytes of one whole-batch draw."""
    argv = ["duality-check", "--n", "1", "--trials", str(2**20), "--seed", "11"]
    streamed, whole = tmp_path / "streamed.json", tmp_path / "whole.json"
    assert main([*argv, "--out", str(streamed)]) == 0
    monkeypatch.setattr(dynamics, "_DRAW_BLOCK", 2**20)
    assert main([*argv, "--out", str(whole)]) == 0
    assert streamed.read_bytes() == whole.read_bytes()


def test_duality_check_memory_does_not_grow_with_trials(tmp_path):
    """2^22 trials of N = 1 peak far below one batch-sized array (64 MiB) at 2^18-entry blocks,
    and are a few block draws: well inside 20 s."""
    out = tmp_path / "wide.json"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert main(["duality-check", "--n", "1", "--trials", str(2**22), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 20.0
    assert peak < 32 * 2**20, peak / 2**20


def test_duality_check_at_the_ceiling_peaks_under_150_mib(tmp_path):
    """The 4096^2 trials of N = 1 stream through blocks of 2^18 amplitudes: the launched
    process peaks under 150 MiB, where one batch-sized array alone is 256 MiB."""
    out = tmp_path / "ceiling.json"
    argv = ["duality-check", "--n", "1", "--trials", str(4096**2), "--format", "json"]
    proc, peak_mib = run_measured(*argv, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert peak_mib < 150, peak_mib
    assert json.loads(out.read_text(encoding="utf-8"))["metadata"]["parameters"]["passed"] is True


def test_f_curve_columns_and_pi_behavior(tmp_path):
    out = tmp_path / "f.json"
    for samples in (720, 7200):
        assert main(["f-curve", "--samples", str(samples), "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert list(payload["columns"]) == ["phi", "re_f", "im_f"]
        assert payload["metadata"]["parameters"]["max_error_estimate"] <= 1e-13
        phi, im_f = (np.array(payload["columns"][name]) for name in ("phi", "im_f"))
        assert phi.size == samples + 1
        at_pi = np.isclose(np.abs(phi), math.pi, atol=1e-12)
        assert at_pi.sum() == 2
        assert np.max(np.abs(im_f[at_pi])) <= 1e-8
        # odd imaginary part across the curve
        assert abs(im_f[0] + im_f[-1]) <= 1e-8


@pytest.mark.parametrize("n", [64, 512])
def test_zeros_artifact(tmp_path, n):
    """The written roots: all n, closed under conjugation, and each residual, as written and
    recomputed from the written roots, within the 1e-8 * sqrt(n) that sqrt_series_zeros enforces."""
    out = tmp_path / "zeros.json"
    assert main(["zeros", "--n", str(n), "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    meta = payload["metadata"]["parameters"]
    columns = payload["columns"]
    roots = np.array(columns["re"]) + 1j * np.array(columns["im"])
    assert roots.size == n
    assert np.array_equal(np.sort_complex(roots), np.sort_complex(roots.conj()))
    bound = 1e-8 * math.sqrt(n)
    coeffs = np.append(np.sqrt(np.arange(n, 0, -1.0)), 0.0)
    assert np.max(np.abs(np.polyval(coeffs, roots))) <= bound
    assert max(columns["residual"]) <= bound
    assert meta["residual"] <= bound


def test_map_domains_closure_and_nesting(tmp_path):
    out = tmp_path / "domains.json"
    for flags, count, samples in ((["--radii", "0.05:1.0:0.05", "--samples", "181"], 20, 181),
                                  (["--radii", "0.01:1:0.01"], 100, 721)):
        assert main(["map-domains", *flags, "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        params = payload["metadata"]["parameters"]
        assert list(payload["columns"]) == ["radius", "theta", "re_y", "im_y"]
        assert params["closure_gap"] <= 1e-12 and params["nesting_violations"] == 0
        data = np.array(list(payload["columns"].values())).T
        assert data.shape[0] == count * (samples + 1)
        radii = np.unique(data[:, 0])
        assert radii.size == count
        for r in radii:
            curve = data[data[:, 0] == r]
            gap = math.hypot(curve[0, 2] - curve[-1, 2], curve[0, 3] - curve[-1, 3])
            assert gap <= 1e-12
        # r = 1 curve contains the cut endpoint y = 1 at theta = 0
        top = data[np.isclose(data[:, 0], 1.0) & (data[:, 1] == 0.0)]
        assert np.allclose(top[0, 2:], [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "spec, count",
    [("1e-12:1e-11:1e-12", 10), ("0.5:0.5000000005:1e-10", 6), ("0.05:1.0:0.05", 20), ("0.1:0.3:0.1", 3)],
)
def test_radius_ranges_keep_distinct_radii_and_end_at_stop(spec, count):
    """Only the last point of a range may snap onto stop, and only from within 1e-9 steps."""
    radii = cli._radius_spec(spec)
    assert len(radii) == count
    assert all(lo < hi for lo, hi in zip(radii, radii[1:]))
    assert radii[-1] == float(spec.split(":")[1])


def test_small_radius_curves_shrink_like_4r(tmp_path):
    out = tmp_path / "domains.csv"
    assert main(["map-domains", "--radii", "0.001", "--samples", "9", "--out", str(out)]) == 0
    _, data = read_csv(out)
    magnitudes = np.hypot(data[:, 2], data[:, 3])
    assert np.max(np.abs(magnitudes - 4.0 * 0.001)) < 1e-4


def test_even_sample_count_passes_next_to_the_pole(tmp_path):
    """theta = pi rounds to z = -1 + 1.2e-16i, beside the pole z = -1: a finite, huge y."""
    out = tmp_path / "domains.csv"
    assert main(["map-domains", "--radii", "1", "--samples", "8", "--out", str(out)]) == 0
    _, data = read_csv(out)
    at_pi = data[data[:, 1] == math.pi]
    assert at_pi.shape[0] == 1 and np.all(np.isfinite(at_pi))
    assert math.hypot(at_pi[0, 2], at_pi[0, 3]) > 1e30


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (figdata, "li_three_halves_circle", ["f-curve", "--samples", "720"]),
        (figdata, "map_to_y", ["map-domains", "--radii", "0.05:1:0.05", "--samples", "61"]),
        (cli, "li_three_halves_circle", ["auxfun-eval", "--function", "f", "--phi=0.1,-2,3"]),
        (cli, "angle_kernel", ["auxfun-eval", "--function", "g", "--phi=0.1,-2,3"]),
        (cli, "sqrt_series", ["auxfun-eval", "--function", "GN", "--n", "9", "--z=0.1:0,2:1"]),
        (cli, "li_three_halves", ["auxfun-eval", "--function", "F", "--z=0.1:0,0.6:0.7,1:0"]),
        (cli, "sqrt_series_disk", ["auxfun-eval", "--function", "G", "--z=0.1:0,0.6:0.7"]),
        (cli, "li_three_halves_sheet2", ["auxfun-eval", "--function", "F2", "--z=3:0,0.6:0.9"]),
        (cli, "sqrt_series_sheet2", ["auxfun-eval", "--function", "G2", "--z=3:0,0.6:0.9"]),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_one_evaluator_call_per_artifact(tmp_path, monkeypatch, module, name, argv):
    calls = []
    evaluate = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(module, name, spy)
    assert main([*argv, "--out", str(tmp_path / "artifact")]) == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("kind", ["a", "adag"])
def test_matrix_elements_builds_only_the_requested_kind(tmp_path, monkeypatch, kind):
    built = []
    form_kind = operators._kind

    def recorded(which, lowering, raising):
        built.append(which)
        return form_kind(which, lowering, raising)

    monkeypatch.setattr(operators, "_kind", recorded)
    out = tmp_path / "elements.csv"
    assert main(["matrix-elements", "--n", "16", "--which", kind, "--out", str(out)]) == 0
    assert built and set(built) == {kind}


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
    for n, t in ((8, 0.3), (64, 123.456)):
        code = main(
            ["evolve", "--n", str(n), "--state", "random", "--time", str(t),
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        params = payload["metadata"]["parameters"]
        assert "weight_transport" not in payload["columns"]
        # the reported gap is the one to the nearest rotation of the written weights
        columns = {name: np.array(values) for name, values in payload["columns"].items()}
        nearest = np.roll(columns["weight_initial"], params["nearest_k"])
        gap = np.max(np.abs(columns["weight_quantum"] - nearest))
        assert params["nearest_k"] == round(t * n / (2 * math.pi)) % n
        assert params["deviation_from_nearest_rotation"] == gap


def test_evolve_at_a_billion_steps_keeps_the_contract(tmp_path):
    """The step phases come from integers, not from a float time."""
    out = tmp_path / "evolve.json"
    argv = ["evolve", "--n", "64", "--steps", "1000000000", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    params = json.loads(out.read_text(encoding="utf-8"))["metadata"]["parameters"]
    assert params["steps"] == 10**9
    assert params["deviation"] <= 1e-10


def test_evolve_time_takes_each_distribution_once(tmp_path, monkeypatch):
    """One evolution and two Born distributions per off-grid run."""
    counts = {"born_distribution": 0, "evolve_quantum": 0}
    for name in counts:
        original = getattr(dynamics, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counting)
    argv = ["evolve", "--n", "8", "--state", "random", "--time", "0.3",
            "--out", str(tmp_path / "evolve.csv")]
    assert main(argv) == 0
    assert counts == {"born_distribution": 2, "evolve_quantum": 1}


def test_cli_imports_no_private_library_name():
    """The handlers only parse and serialise: nothing private is reached for."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "circledual")
        for alias in node.names
        if alias.name.startswith("_")
        and not (alias.name.startswith("__") and alias.name.endswith("__"))
    ]
    assert private == []


def test_only_main_writes_artifacts_and_fails_verdicts():
    """The handlers return the artifact and the verdict; one path writes and exits."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    callers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("write_figure", "_fail")
    }
    assert callers == {"main"}


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
    # f at -phi is the exact conjugate of f at phi
    out3 = tmp_path / "fpm.csv"
    assert main(["auxfun-eval", "--function", "f", "--phi=0.3,-0.3,2.9,-2.9", "--out", str(out3)]) == 0
    _, pm = read_csv(out3)
    assert np.array_equal(pm[0::2, 1], pm[1::2, 1]) and np.array_equal(pm[0::2, 2], -pm[1::2, 2])


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
# one parser per process

# the artifacts of the fixed contract, one or more per subcommand
CONTRACT_ARGVS = [
    ["duality-check", "--n", "11", "--trials", "20"],
    ["spectrum", "--n", "11"],
    ["matrix-elements", "--n", "16"],
    ["auxfun-eval", "--function", "G", "--z=0.3:0.4,-0.5:0.1"],
    ["auxfun-eval", "--function", "f", "--phi=0.3,-2"],
    ["zeros", "--n", "64"],
    ["map-domains", "--radii", "0.25:1:0.25", "--samples", "61"],
    ["f-curve", "--samples", "72"],
    ["evolve", "--n", "11", "--state", "random", "--steps", "4"],
]


def test_one_parser_per_process(tmp_path, monkeypatch):
    """The first main call builds the argparse tree; later calls, on any subcommand, build none."""
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    assert main(["spectrum", "--n", "3", "--out", str(tmp_path / "s.csv")]) == 0
    first = len(built)
    assert first > 0
    assert main(["zeros", "--n", "8", "--out", str(tmp_path / "z.json")]) == 0
    assert main(["f-curve", "--samples", "12", "--out", str(tmp_path / "f.csv")]) == 0
    assert len(built) == first, built[first:]


def test_no_state_carried_from_one_call_to_the_next(tmp_path, monkeypatch, capsys):
    """Usage errors, --version, a failed verdict and other flags of the same subcommand
    leave nothing behind: each artifact has the bytes a fresh process writes, with a null
    timestamp."""

    def exits(code, *argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == code

    def other(*argv):
        assert main([*argv, "--out", str(tmp_path / "other")]) == 0

    def contract(i):
        assert main([*CONTRACT_ARGVS[i], "--format", "json", "--out", str(tmp_path / f"{i}")]) == 0

    exits(2, "matrix-elements", "--n", "16", "--which", "z", "--out", "x.csv")
    contract(0)
    exits(0, "--version")
    assert capsys.readouterr().out.startswith("circledual ")
    with monkeypatch.context() as patched:
        patched.setattr(cli, "DUALITY_TOL", 1e-300)
        argv = ["duality-check", "--n", "5", "--trials", "3", "--seed", "7", "--out"]
        assert main([*argv, str(tmp_path / "failed.json")]) == 1
    failure_report(capsys, "duality-check")
    other("spectrum", "--n", "4", "--omega", "0.5")
    contract(1)
    exits(2, "spectrum", "--n", "0", "--out", "x.csv")
    other("matrix-elements", "--n", "8", "--which", "p")
    contract(2)
    other("auxfun-eval", "--function", "GN", "--n", "5", "--z=0.3:0.4,2:1")
    contract(3)
    params = json.loads((tmp_path / "3").read_text(encoding="utf-8"))["metadata"]["parameters"]
    assert params["n"] is None
    other("auxfun-eval", "--function", "g", "--phi=0.3,-2")
    contract(4)
    exits(2, "zeros", "--n", "-3", "--out", "x.json")
    contract(5)
    other("map-domains", "--radii", "0.5,0.9", "--samples", "11")
    contract(6)
    exits(0, "--version")
    other("f-curve", "--samples", "8", "--format", "json")
    contract(7)
    other("evolve", "--n", "7", "--state", "ont:2", "--time", "1.5", "--seed", "4")
    contract(8)

    for i, argv in enumerate(CONTRACT_ARGVS):
        fresh = tmp_path / f"fresh-{i}"
        proc = run_subprocess(*argv, "--format", "json", "--out", str(fresh))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / f"{i}").read_bytes() == fresh.read_bytes(), argv
        assert json.loads(fresh.read_text(encoding="utf-8"))["metadata"]["timestamp"] is None


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


@pytest.mark.parametrize("flag", ["--timestamp=now", "--tolerance=1"])
@pytest.mark.parametrize("command", ["duality-check", "matrix-elements", "spectrum"])
def test_retired_flags_exit_two(tmp_path, flag, command):
    """The contracts are fixed and the metadata carries no stamp: neither is a flag."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, flag, "--out", str(tmp_path / "artifact")])
    assert excinfo.value.code == 2


def failure_report(capsys, command):
    """The one-line JSON report of a failed verdict."""
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["status"] == "error" and report["command"] == command
    assert report["error"] == "CircleDualError"
    return report


def test_invariant_violation_exit_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "DUALITY_TOL", 1e-300)
    out = tmp_path / "r.json"
    assert main(["duality-check", "--n", "5", "--trials", "5", "--out", str(out)]) == 1
    failure_report(capsys, "duality-check")
    # the artifact is still written with the failing stats recorded
    params = json.loads(out.read_text(encoding="utf-8"))["metadata"]["parameters"]
    assert params["passed"] is False and params["tolerance"] == 1e-300


def test_matrix_elements_verdict_failure_exit_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ELEMENT_TOL", -1.0)
    out = tmp_path / "elements.json"
    argv = ["matrix-elements", "--n", "16", "--which", "x", "--format", "json"]
    assert main([*argv, "--out", str(out)]) == 1
    report = failure_report(capsys, "matrix-elements")
    assert report["message"].startswith("closed form deviates from conjugation")
    payload = json.loads(out.read_text(encoding="utf-8"))
    params = payload["metadata"]["parameters"]
    assert params["passed"] is False and 0.0 <= params["max_deviation_x"] <= 1e-10
    assert len(payload["columns"]["re_x"]) == 256


def assert_matrix_elements_gate_fails(tmp_path, capsys):
    """compare_matrix_elements and matrix-elements at N = 64 both see a gap above ELEMENT_TOL."""
    assert operators.compare_matrix_elements("x", 64)[1] > cli.ELEMENT_TOL
    out = tmp_path / "elements.json"
    argv = ["matrix-elements", "--n", "64", "--which", "x", "--format", "json"]
    assert main([*argv, "--out", str(out)]) == 1
    report = failure_report(capsys, "matrix-elements")
    assert report["message"].startswith("closed form deviates from conjugation")
    params = json.loads(out.read_text(encoding="utf-8"))["metadata"]["parameters"]
    assert params["passed"] is False and params["max_deviation_x"] > params["tolerance"]


def test_matrix_elements_gap_sees_a_wrong_closed_form(tmp_path, capsys, monkeypatch):
    """A row phase off by 1e-8 in the closed form fails the contract at its real tolerance."""
    site_lowering = operators._site_lowering
    monkeypatch.setattr(operators, "_site_lowering", lambda dim: site_lowering(dim) * (1.0 + 1e-8))
    assert_matrix_elements_gate_fails(tmp_path, capsys)


def test_matrix_elements_gap_sees_a_wrong_level_coefficient(tmp_path, capsys, monkeypatch):
    """One level coefficient sqrt(n) off by 1e-8 on the conjugation side fails the contract too."""
    level_rows = operators._level_rows

    def planted(which, rows, root):
        root = root.copy()
        root[40] *= 1.0 + 1e-8  # sqrt(41): a|41> = sqrt(41)|40>
        return level_rows(which, rows, root)

    monkeypatch.setattr(operators, "_level_rows", planted)
    assert_matrix_elements_gate_fails(tmp_path, capsys)


def test_map_domains_closure_failure_exit_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "CLOSURE_TOL", -1.0)
    out = tmp_path / "domains.json"
    argv = ["map-domains", "--radii", "0.5,1", "--samples", "61", "--format", "json"]
    assert main([*argv, "--out", str(out)]) == 1
    assert failure_report(capsys, "map-domains")["message"].startswith("curve closure gap")
    payload = json.loads(out.read_text(encoding="utf-8"))
    closure = payload["metadata"]["parameters"]["closure_gap"]
    assert 0.0 <= closure <= 1e-12
    assert len(payload["columns"]["radius"]) == 2 * 62


def test_semantic_errors_exit_one(tmp_path, capsys):
    assert main(["evolve", "--n", "4", "--state", "random", "--out", str(tmp_path / "e.csv")]) == 1
    assert main(["auxfun-eval", "--function", "f", "--out", str(tmp_path / "a.csv")]) == 1
    assert main(["auxfun-eval", "--function", "GN", "--z", "1:0", "--out", str(tmp_path / "b.csv")]) == 1
    assert main(["map-domains", "--radii", "1.5", "--out", str(tmp_path / "m.csv")]) == 1
    assert main(["zeros", "--n", "4097", "--out", str(tmp_path / "z.json")]) == 1
    assert main(["spectrum", "--n", "3", "--out", str(tmp_path / "nodir" / "x.csv")]) == 1
    for line in capsys.readouterr().out.strip().split("\n"):
        assert json.loads(line)["status"] == "error"


# artifacts and states whose row count is above the dense ceiling of 4096^2
OVERSIZED_ROWS = [
    ["spectrum", "--n", "10000000000000"],
    ["f-curve", "--samples", "10000000000000"],
    ["map-domains", "--samples", "10000000000000"],
    *(["evolve", "--n", "10000000000000", "--steps", "1", "--state", state]
      for state in ("random", "energy:0", "ont:0")),
    ["spectrum", "--n", "20000000"],
]


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
        *OVERSIZED_ROWS,
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
        (["auxfun-eval", "--function", "GN", "--n", "1000000000", "--z=0.5:0"], 1),
        *((argv, 1) for argv in OVERSIZED_ROWS),
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


@pytest.mark.parametrize("function", ["F", "G2", "GN"])
@pytest.mark.parametrize("point", ["nan:0", "inf:0", "0.3:1e400"])
def test_non_finite_points_are_unusable_flags(tmp_path, function, point):
    out = tmp_path / "aux.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["auxfun-eval", "--function", function, "--n", "3", f"--z={point}", "--out", str(out)])
    assert excinfo.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_serialization_error_leaves_existing_artifact_untouched(tmp_path, capsys, fmt):
    """G_N(2) at N = 2000 overflows to nan: exit 1, report, and no byte written."""
    out = tmp_path / f"aux.{fmt}"
    out.write_bytes(b"previous artifact\n")
    argv = ["auxfun-eval", "--function", "GN", "--n", "2000", "--z=0.5:0,2:0"]
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 1
    report = json.loads(capsys.readouterr().out.strip())
    assert report["status"] == "error" and report["error"] == "DomainError"
    assert "column 're', row 1" in report["message"]
    assert out.read_bytes() == b"previous artifact\n"


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


def test_zeros_failure_reports_diagnostics_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(auxfun, "_SWEEPS", 1)
    out = tmp_path / "zeros.json"
    assert main(["zeros", "--n", "64", "--out", str(out)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "ZeroFindingError"
    diagnostics = report["diagnostics"]
    assert diagnostics["degree"] == 64 and diagnostics["sweeps"] == 1
    assert diagnostics["unconverged"] > 0
    assert {"worst_step", "disk_gap"} <= diagnostics.keys()
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_workflow_launches_every_subcommand():
    """The workflow runs each subcommand once through the installed console script and parses
    its artifact: a new subcommand cannot ship without its launch."""
    launched = set(re.findall(
        r"^ +circledual ([a-z-]+) .*--format json --out (\S+)\n +python -m json\.tool \2 > /dev/null$",
        WORKFLOW.read_text(encoding="utf-8"),
        re.MULTILINE,
    ))
    subparsers = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {command for command, _ in launched} == set(subparsers.choices)
