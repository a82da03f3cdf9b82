"""The test run's own configuration: warnings that ``pyproject.toml`` turns
into errors must not swallow a failing property test's report."""
import subprocess
import sys
from pathlib import Path

from conftest import child_env

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 3
'''


def test_a_failing_hypothesis_test_prints_its_example(tmp_path):
    # on a failure hypothesis imports libcst to offer a patch, and libcst's
    # import of mypy_extensions.TypedDict warns; under the DeprecationWarning
    # errors that warning ended the run in INTERNALERROR, without the example
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         str(tmp_path / "test_failing.py")],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
