"""The project's pytest settings report a failing test as a failure."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_hypothesis_test_exits_1(tmp_path):
    """Every warning is an error, but a deprecation that hypothesis's pytest
    plugin trips while it reports a failing example must not turn that
    failure into an INTERNALERROR (exit 3)."""
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
