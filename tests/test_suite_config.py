"""The pytest configuration itself: a failing property must be reported, not crash the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PLANTED = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_planted(x):
    assert x < 10
"""


def test_failing_property_reports_its_falsifying_example(tmp_path):
    """Under ``filterwarnings = ["error"]`` the Hypothesis plugin's patch
    suggester must not turn a failing property into an INTERNALERROR."""
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_planted.py")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
